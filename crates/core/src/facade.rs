//! A synchronous facade over a simulated HyperProv network.
//!
//! Examples and applications call blocking methods (`store_data`, `get`,
//! `get_lineage`, ...) on [`HyperProv`]; each call injects a command into
//! a client actor and advances virtual time until the completion arrives.
//! This is the experience of using the paper's NodeJS client library, with
//! the whole distributed deployment running inside the process.

use hyperprov_ledger::Digest;
use hyperprov_sim::{SimDuration, SimTime};

use crate::client::{ClientCommand, ClientCompletion, HyperProvError, OpId, OpOutput};
use crate::deploy::{HyperProvNetwork, NetworkConfig};
use crate::net::NodeMsg;
use crate::record::{GraphSlice, HistoryRecord, LineageEntry, ProvenanceRecord, RecordInput};

/// How long (virtual time) [`HyperProvNetwork::run_op`] waits for one
/// operation before giving up.
const OP_PATIENCE: SimDuration = SimDuration::from_secs(30);

impl HyperProvNetwork {
    /// Runs one operation to completion: injects `cmd` on client
    /// `client` and steps the simulation one event at a time until that
    /// operation's completion arrives, returning at that event's instant.
    /// Returns `None` once 30 s of virtual time (`OP_PATIENCE`) have
    /// passed without it; an event queue that runs dry ends the wait at
    /// once (nothing can complete the operation any more) with the clock
    /// moved to that deadline. Completions of other operations found on
    /// the client's queue are dropped.
    pub fn run_op(&mut self, client: usize, cmd: ClientCommand) -> Option<ClientCompletion> {
        let op = cmd.op();
        self.sim
            .inject_message(self.clients[client], NodeMsg::Client(cmd));
        let deadline = self.sim.now() + OP_PATIENCE;
        loop {
            let mut queue = self.completions[client].borrow_mut();
            while let Some(completion) = queue.pop_front() {
                if completion.op == op {
                    return Some(completion);
                }
            }
            drop(queue);
            if self.sim.now() >= deadline {
                return None;
            }
            if !self.sim.step() {
                // Nothing is left that could complete the operation: the
                // wait is over, only the clock still has to say so.
                self.sim.run_until(deadline);
                return None;
            }
        }
    }
}

/// A running HyperProv deployment with a blocking client API.
///
/// # Examples
///
/// ```
/// use hyperprov::HyperProv;
///
/// let mut hp = HyperProv::desktop();
/// let record = hp.store_data("readings", b"1,2,3".to_vec(), vec![], vec![])?;
/// let (back, data) = hp.get_data("readings")?;
/// assert_eq!(data, b"1,2,3");
/// assert_eq!(back.checksum, record.checksum);
/// # Ok::<(), hyperprov::HyperProvError>(())
/// ```
#[derive(Debug)]
pub struct HyperProv {
    net: HyperProvNetwork,
    next_op: u64,
}

impl HyperProv {
    /// Builds and starts the desktop-testbed deployment with one client.
    pub fn desktop() -> Self {
        HyperProv::with_config(&NetworkConfig::desktop(1))
    }

    /// Builds and starts the Raspberry Pi edge deployment with one client.
    pub fn rpi() -> Self {
        HyperProv::with_config(&NetworkConfig::rpi(1))
    }

    /// Builds a deployment from an explicit configuration.
    pub fn with_config(config: &NetworkConfig) -> Self {
        HyperProv {
            net: HyperProvNetwork::build(config),
            next_op: 0,
        }
    }

    /// The underlying network (actors, ledgers, store, metrics).
    pub fn network(&self) -> &HyperProvNetwork {
        &self.net
    }

    /// Mutable access to the underlying network.
    pub fn network_mut(&mut self) -> &mut HyperProvNetwork {
        &mut self.net
    }

    /// Current virtual time of the deployment.
    pub fn now(&self) -> SimTime {
        self.net.sim.now()
    }

    /// Runs the command `cmd` builds under the next op id to completion.
    fn call(
        &mut self,
        cmd: impl FnOnce(OpId) -> ClientCommand,
    ) -> Result<OpOutput, HyperProvError> {
        self.next_op += 1;
        match self.net.run_op(0, cmd(OpId(self.next_op))) {
            Some(completion) => completion.outcome,
            None => Err(HyperProvError::Timeout),
        }
    }

    /// [`Self::call`] for a command whose answer is a graph slice.
    fn graph(
        &mut self,
        cmd: impl FnOnce(OpId) -> ClientCommand,
    ) -> Result<GraphSlice, HyperProvError> {
        match self.call(cmd)? {
            OpOutput::Graph(slice) => Ok(slice),
            other => Err(unexpected(other)),
        }
    }

    /// Stores `data` off-chain and posts its provenance record — the
    /// paper's `StoreData`.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if storage or the transaction fails.
    pub fn store_data(
        &mut self,
        key: &str,
        data: Vec<u8>,
        parents: Vec<String>,
        metadata: Vec<(String, String)>,
    ) -> Result<ProvenanceRecord, HyperProvError> {
        let key = key.to_owned();
        match self.call(|op| ClientCommand::StoreData {
            key,
            data,
            parents,
            metadata,
            op,
        })? {
            OpOutput::Committed {
                record: Some(record),
                ..
            } => Ok(record),
            other => Err(unexpected(other)),
        }
    }

    /// Posts a metadata-only provenance record — the paper's `Post`.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the transaction fails or is
    /// invalidated.
    pub fn post(
        &mut self,
        key: &str,
        input: RecordInput,
    ) -> Result<ProvenanceRecord, HyperProvError> {
        let key = key.to_owned();
        match self.call(|op| ClientCommand::Post { key, input, op })? {
            OpOutput::Committed {
                record: Some(record),
                ..
            } => Ok(record),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the current on-chain record of `key` — the paper's `Get`.
    ///
    /// # Errors
    ///
    /// Returns [`HyperProvError::Rejected`] if the key does not exist.
    pub fn get(&mut self, key: &str) -> Result<ProvenanceRecord, HyperProvError> {
        let key = key.to_owned();
        match self.call(|op| ClientCommand::Get { key, op })? {
            OpOutput::Record(record) => Ok(record),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the record and its off-chain payload, verifying the
    /// checksum — the paper's `GetData`.
    ///
    /// # Errors
    ///
    /// Returns [`HyperProvError::IntegrityViolation`] if the payload was
    /// tampered with.
    pub fn get_data(&mut self, key: &str) -> Result<(ProvenanceRecord, Vec<u8>), HyperProvError> {
        let key = key.to_owned();
        match self.call(|op| ClientCommand::GetData { key, op })? {
            OpOutput::Data { record, data } => Ok((record, data)),
            other => Err(unexpected(other)),
        }
    }

    /// Verifies the off-chain payload against the on-chain checksum,
    /// returning `true` when intact — the paper's `CheckData`.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the record itself cannot be read.
    pub fn check_data(&mut self, key: &str) -> Result<bool, HyperProvError> {
        let key = key.to_owned();
        match self.call(|op| ClientCommand::CheckData { key, op })? {
            OpOutput::Checked { ok } => Ok(ok),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the full version history of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`HyperProvError::Rejected`] if the key was never posted.
    pub fn get_history(&mut self, key: &str) -> Result<Vec<HistoryRecord>, HyperProvError> {
        let key = key.to_owned();
        match self.call(|op| ClientCommand::GetHistory { key, op })? {
            OpOutput::History(entries) => Ok(entries),
            other => Err(unexpected(other)),
        }
    }

    /// Reverse lookup from a checksum to item keys.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the query fails.
    pub fn get_keys_by_checksum(
        &mut self,
        checksum: Digest,
    ) -> Result<Vec<String>, HyperProvError> {
        match self.call(|op| ClientCommand::GetKeysByChecksum { checksum, op })? {
            OpOutput::Keys(keys) => Ok(keys),
            other => Err(unexpected(other)),
        }
    }

    /// Ancestor lineage of `key` to `depth`: the ancestry traversal of the
    /// DAG index, with full records. A traversal cut short by the depth
    /// clamp or the node cap is reported via [`Self::get_lineage_truncated`].
    ///
    /// # Errors
    ///
    /// Returns [`HyperProvError::Rejected`] if the key does not exist.
    pub fn get_lineage(
        &mut self,
        key: &str,
        depth: u32,
    ) -> Result<Vec<LineageEntry>, HyperProvError> {
        Ok(self.get_lineage_truncated(key, depth)?.0)
    }

    /// Like [`Self::get_lineage`] but also reports whether a budget cut
    /// the traversal short (ancestors beyond it exist but are not in the
    /// returned chain).
    ///
    /// # Errors
    ///
    /// Returns [`HyperProvError::Rejected`] if the key does not exist.
    pub fn get_lineage_truncated(
        &mut self,
        key: &str,
        depth: u32,
    ) -> Result<(Vec<LineageEntry>, bool), HyperProvError> {
        let key = key.to_owned();
        match self.call(|op| ClientCommand::GetLineage { key, depth, op })? {
            OpOutput::Lineage { entries, truncated } => Ok((entries, truncated)),
            other => Err(unexpected(other)),
        }
    }

    /// Ancestors of `key` to `depth` from the materialized DAG index:
    /// depth-tagged keys only, answered without re-reading records.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the query fails.
    pub fn get_ancestry(&mut self, key: &str, depth: u32) -> Result<GraphSlice, HyperProvError> {
        let key = key.to_owned();
        self.graph(|op| ClientCommand::GetAncestry { key, depth, op })
    }

    /// Descendants (impact set) of `key` to `depth` from the DAG index.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the query fails.
    pub fn get_descendants(&mut self, key: &str, depth: u32) -> Result<GraphSlice, HyperProvError> {
        let key = key.to_owned();
        self.graph(|op| ClientCommand::GetDescendants { key, depth, op })
    }

    /// Transitive closure (ancestors and descendants) of `key` to `depth`
    /// from the DAG index.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the query fails.
    pub fn get_closure(&mut self, key: &str, depth: u32) -> Result<GraphSlice, HyperProvError> {
        let key = key.to_owned();
        self.graph(|op| ClientCommand::GetClosure { key, depth, op })
    }

    /// The closure of `key` plus the edges between its nodes — enough to
    /// render the provenance neighbourhood as a graph.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the query fails.
    pub fn get_subgraph(&mut self, key: &str, depth: u32) -> Result<GraphSlice, HyperProvError> {
        let key = key.to_owned();
        self.graph(|op| ClientCommand::GetSubgraph { key, depth, op })
    }

    /// Exports peer 0's block chain in the persistent chain format (see
    /// [`hyperprov_ledger::BlockStore::write_to`]); a restarted peer can
    /// rebuild its full state from it via
    /// [`hyperprov_fabric::Committer::replay`].
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn export_chain<W: std::io::Write>(&self, writer: W) -> std::io::Result<()> {
        self.net.ledgers[0].borrow().store().write_to(writer)
    }

    /// Lists every live item key on the ledger, lexicographically.
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the query fails.
    pub fn list(&mut self) -> Result<Vec<String>, HyperProvError> {
        match self.call(|op| ClientCommand::List { op })? {
            OpOutput::Keys(keys) => Ok(keys),
            other => Err(unexpected(other)),
        }
    }

    /// Deletes the current record of `key` (history remains on-chain).
    ///
    /// # Errors
    ///
    /// Returns a [`HyperProvError`] if the transaction fails.
    pub fn delete(&mut self, key: &str) -> Result<(), HyperProvError> {
        let key = key.to_owned();
        match self.call(|op| ClientCommand::Delete { key, op })? {
            OpOutput::Committed { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(output: OpOutput) -> HyperProvError {
    HyperProvError::Malformed(format!("unexpected operation output: {output:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_operation_that_never_completes_times_out_typed() {
        let mut hp = HyperProv::desktop();
        hp.post("item", RecordInput::new(Digest::of(b"x")))
            .expect("healthy network");
        // Cut the client off from its peer: the query's proposal is lost
        // and no completion can ever arrive.
        let (client, peer) = (hp.network().clients[0], hp.network().peers[0]);
        hp.network_mut().sim.network_mut().partition(client, peer);
        let before = hp.now();
        assert_eq!(hp.get("item"), Err(HyperProvError::Timeout));
        assert_eq!(hp.now() - before, hyperprov_sim::SimDuration::from_secs(30));
    }

    /// The call returns at its completion's instant, not after a slice of
    /// events that follow it: when the next call starts is the model's
    /// business only.
    #[test]
    fn an_operation_returns_at_its_completion() {
        let mut net = HyperProvNetwork::build(&NetworkConfig::desktop(1));
        let cmd = ClientCommand::Post {
            key: "item".into(),
            input: RecordInput::new(Digest::of(b"x")),
            op: OpId(1),
        };
        let completion = net.run_op(0, cmd).expect("healthy network");
        assert!(completion.outcome.is_ok());
        assert_eq!(net.sim.now(), completion.finished);
    }
}

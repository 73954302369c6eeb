//! The simulated SSHFS storage node.
//!
//! The paper runs its off-chain store as an SSH filesystem on a separate
//! machine; every access therefore pays an SSH round trip plus a
//! bandwidth-limited transfer. In the simulation the transfer cost comes
//! from the network link to the [`StorageNode`]; this module adds the
//! per-operation SSH overhead and the server-side I/O cost. `actor.rs` is
//! its [`Machine`](hyperprov_fabric::Machine) impl.

mod actor;

use std::sync::Arc;

use hyperprov_sim::{ActorId, SimDuration};

use crate::store::{ObjectStore, StoreError};

/// Messages between clients and the storage node.
#[derive(Debug, Clone)]
pub enum StoreMsg {
    /// Store an object.
    Put {
        /// Object name.
        name: String,
        /// Payload.
        data: Vec<u8>,
        /// Correlation token echoed in the ack.
        token: u64,
    },
    /// Acknowledge a put.
    PutAck {
        /// Object name.
        name: String,
        /// Correlation token.
        token: u64,
        /// Result of the store operation.
        result: Result<(), StoreError>,
    },
    /// Fetch an object.
    Get {
        /// Object name.
        name: String,
        /// Correlation token echoed in the reply.
        token: u64,
    },
    /// Reply to a get.
    GetResult {
        /// Object name.
        name: String,
        /// Correlation token.
        token: u64,
        /// The object bytes or the failure.
        result: Result<Vec<u8>, StoreError>,
    },
}

impl StoreMsg {
    /// Approximate wire size for the network model (requests carry their
    /// payload; replies carry the fetched bytes).
    pub fn wire_size(&self) -> u64 {
        match self {
            StoreMsg::Put { name, data, .. } => name.len() as u64 + data.len() as u64 + 64,
            StoreMsg::GetResult { name, result, .. } => {
                name.len() as u64 + result.as_ref().map(|d| d.len() as u64).unwrap_or(16) + 64
            }
            StoreMsg::Get { name, .. } | StoreMsg::PutAck { name, .. } => name.len() as u64 + 64,
        }
    }
}

/// Fixed per-operation overhead of the SSHFS-like service (SSH channel +
/// FUSE round trip).
const OP_OVERHEAD: SimDuration = SimDuration::from_micros(800);
/// Server-side cost per payload byte (encryption + disk).
const PER_BYTE: SimDuration = SimDuration::from_nanos(8);

/// What a storage node answers an input with: nothing of its own, and
/// sends that are [`StoreMsg`]s.
pub type Action = hyperprov_fabric::Action<std::convert::Infallible, StoreMsg>;

/// The storage node as a sans-IO machine: it serves puts and gets over a
/// shared [`ObjectStore`] and answers each with one job of SSH-like
/// service time, which closes the request's span and sends the reply. It
/// arms no timer and admits everything; a restart keeps the objects, as a
/// rebooted SSHFS node does.
pub struct StorageNode {
    store: Arc<dyn ObjectStore>,
    /// Requests served, which numbers their `offchain.server` spans.
    jobs: u64,
}

impl StorageNode {
    /// Creates a storage node over `store`.
    pub fn new(store: Arc<dyn ObjectStore>) -> Self {
        StorageNode { store, jobs: 0 }
    }

    /// Serves a request from `src` at once: counts it, opens its
    /// server-side span (SSH overhead + per-byte I/O), and asks for the
    /// job that sends the reply.
    pub fn message(&mut self, src: ActorId, msg: StoreMsg) -> Vec<Action> {
        let (name, reply, moved, counts) = match msg {
            StoreMsg::Put { name, data, token } => {
                let bytes = data.len() as u64;
                let result = self.store.put(&name, &data);
                let reply = StoreMsg::PutAck {
                    name: name.clone(),
                    token,
                    result,
                };
                (name, reply, bytes, [("puts", 1), ("bytes_in", bytes)])
            }
            StoreMsg::Get { name, token } => {
                let result = self.store.get(&name);
                let bytes = result.as_ref().map_or(0, |d| d.len() as u64);
                let reply = StoreMsg::GetResult {
                    name: name.clone(),
                    token,
                    result,
                };
                (name, reply, bytes, [("gets", 1), ("bytes_out", bytes)])
            }
            // Replies are never addressed to the server.
            StoreMsg::PutAck { .. } | StoreMsg::GetResult { .. } => return Vec::new(),
        };
        // The job number tells concurrent operations on one object apart.
        self.jobs += 1;
        let (stage, job) = ("offchain.server", self.jobs.to_string());
        let mut out: Vec<_> = counts.map(|(n, by)| Action::Count(None, n, by)).into();
        out.push(Action::SpanStart(name.clone(), stage, job.clone()));
        let cost = OP_OVERHEAD + PER_BYTE * moved;
        let send = (src, reply.wire_size(), reply);
        out.push(Action::Job(cost, vec![send], vec![(name, stage, job)]));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use hyperprov_fabric::Node;
    use hyperprov_sim::{Actor, Context, CpuResource, Event, SimTime, Simulation};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Default)]
    struct Seen {
        acks: Vec<(String, u64, bool)>,
        gets: Vec<(u64, Result<Vec<u8>, StoreError>)>,
        done_at: Option<SimTime>,
    }

    struct TestClient {
        server: ActorId,
        script: Vec<StoreMsg>,
        seen: Rc<RefCell<Seen>>,
    }

    impl Actor<StoreMsg> for TestClient {
        fn on_event(&mut self, ctx: &mut Context<'_, StoreMsg>, event: Event<StoreMsg>) {
            match event {
                Event::Timer { .. } => {
                    for msg in self.script.drain(..) {
                        let bytes = msg.wire_size();
                        ctx.send(self.server, bytes, msg);
                    }
                }
                Event::Message { msg, .. } => {
                    let mut seen = self.seen.borrow_mut();
                    match msg {
                        StoreMsg::PutAck {
                            name,
                            token,
                            result,
                        } => {
                            seen.acks.push((name, token, result.is_ok()));
                        }
                        StoreMsg::GetResult { token, result, .. } => {
                            seen.gets.push((token, result));
                        }
                        _ => {}
                    }
                    seen.done_at = Some(ctx.now());
                }
            }
        }
    }

    fn run_script(script: Vec<StoreMsg>) -> (Seen, Simulation<StoreMsg>, Arc<MemoryStore>) {
        let store = Arc::new(MemoryStore::new());
        let mut sim = Simulation::new(1);
        let node = StorageNode::new(store.clone());
        let cpu = CpuResource::new(1.0);
        let server = Node::new(node, "storage").start(&mut sim, cpu, "storage");
        let seen = Rc::new(RefCell::new(Seen::default()));
        let client = sim.add_actor(Box::new(TestClient {
            server,
            script,
            seen: seen.clone(),
        }));
        sim.start_timer(client, SimDuration::ZERO, 0);
        sim.run();
        let out = std::mem::take(&mut *seen.borrow_mut());
        (out, sim, store)
    }

    #[test]
    fn put_then_get_round_trip() {
        let (seen, sim, store) = run_script(vec![
            StoreMsg::Put {
                name: "obj".into(),
                data: b"payload".to_vec(),
                token: 1,
            },
            StoreMsg::Get {
                name: "obj".into(),
                token: 2,
            },
        ]);
        assert_eq!(seen.acks, vec![("obj".to_owned(), 1, true)]);
        assert_eq!(seen.gets.len(), 1);
        assert_eq!(seen.gets[0].1.as_ref().unwrap(), b"payload");
        assert_eq!(sim.metrics().counter("storage.puts"), 1);
        assert_eq!(sim.metrics().counter("storage.gets"), 1);
        assert!(store.contains("obj"));
    }

    #[test]
    fn get_missing_reports_not_found() {
        let (seen, _, _) = run_script(vec![StoreMsg::Get {
            name: "ghost".into(),
            token: 9,
        }]);
        assert!(matches!(seen.gets[0].1, Err(StoreError::NotFound(_))));
    }

    #[test]
    fn large_payload_takes_longer() {
        let small = run_script(vec![StoreMsg::Put {
            name: "s".into(),
            data: vec![0u8; 1_000],
            token: 1,
        }])
        .0
        .done_at
        .unwrap();
        let large = run_script(vec![StoreMsg::Put {
            name: "l".into(),
            data: vec![0u8; 4_000_000],
            token: 1,
        }])
        .0
        .done_at
        .unwrap();
        assert!(large > small, "large={large} small={small}");
        // 4 MB over a 1 Gb/s LAN alone is 32 ms of transfer.
        assert!(large >= SimTime::from_nanos(32_000_000));
    }

    #[test]
    fn invalid_put_acked_with_error() {
        let (seen, _, _) = run_script(vec![StoreMsg::Put {
            name: "bad/name".into(),
            data: b"x".to_vec(),
            token: 5,
        }]);
        assert_eq!(seen.acks, vec![("bad/name".to_owned(), 5, false)]);
    }
}

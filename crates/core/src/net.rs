//! The combined message type for a HyperProv deployment: Fabric traffic,
//! off-chain storage traffic and client commands in one simulation.

use hyperprov_fabric::FabricMsg;
use hyperprov_offchain::StoreMsg;
use hyperprov_sim::Carries;

use crate::client::ClientCommand;

/// Every message that can travel through a HyperProv simulation.
#[derive(Debug, Clone)]
pub enum NodeMsg {
    /// Blockchain traffic (proposals, blocks, commit events, raft).
    Fabric(FabricMsg),
    /// Off-chain storage traffic.
    Store(StoreMsg),
    /// A command injected into a client actor (from the facade or a
    /// workload driver).
    Client(ClientCommand),
}

impl Carries<FabricMsg> for NodeMsg {
    fn wrap(inner: FabricMsg) -> Self {
        NodeMsg::Fabric(inner)
    }
    fn peel(self) -> Result<FabricMsg, Self> {
        match self {
            NodeMsg::Fabric(m) => Ok(m),
            other => Err(other),
        }
    }
}

impl Carries<StoreMsg> for NodeMsg {
    fn wrap(inner: StoreMsg) -> Self {
        NodeMsg::Store(inner)
    }
    fn peel(self) -> Result<StoreMsg, Self> {
        match self {
            NodeMsg::Store(m) => Ok(m),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peel_round_trips_each_variant() {
        let f = NodeMsg::wrap(FabricMsg::Commit(hyperprov_fabric::CommitEvent {
            channel: hyperprov_ledger::ChannelId::default(),
            tx_id: hyperprov_ledger::TxId::default(),
            block_number: 0,
            code: hyperprov_ledger::ValidationCode::Valid,
            chaincode_event: None,
            creator: None,
            endorser: None,
        }));
        assert!(matches!(f.clone().peel(), Ok(FabricMsg::Commit(_))));
        let as_store: Result<StoreMsg, NodeMsg> = f.peel();
        assert!(as_store.is_err());

        let s = NodeMsg::wrap(StoreMsg::Get {
            name: "x".into(),
            token: 1,
        });
        assert!(matches!(s.peel(), Ok(StoreMsg::Get { .. })));
    }
}

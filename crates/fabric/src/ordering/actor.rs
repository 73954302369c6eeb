//! The I/O half of the ordering node: the [`OrderingNode`] — solo or a
//! raft member — as a [`Machine`], which asks for nothing of its own.

use std::convert::Infallible;

use hyperprov_sim::{ActorId, Carries, Context};

use super::{Action, Consensus, OrderingNode, OrderingView, RAFT_TICK};
use crate::messages::FabricMsg;
use crate::perform::{Host, Io, Machine};

impl Machine for OrderingNode {
    type Msg = FabricMsg;
    type Own = Infallible;
    type View = OrderingView;

    fn message(&mut self, src: ActorId, msg: FabricMsg, _: Io<'_>) -> Vec<Action> {
        OrderingNode::message(self, src, msg)
    }

    fn timer(&mut self, token: u64, _: Io<'_>) -> Vec<Action> {
        OrderingNode::timer(self, token)
    }

    fn restarted(&mut self) -> Vec<Action> {
        OrderingNode::restarted(self)
    }

    fn view(&self) -> OrderingView {
        let retained = &self.chain.retained;
        let ends = retained.front().zip(retained.back());
        let member = match &self.consensus {
            Consensus::Solo => None,
            Consensus::Raft(member) => Some(&member.node),
        };
        OrderingView {
            leader: member.is_none_or(|node| node.is_leader()),
            tail: ends.map(|(first, last)| (first.header.number, last.header.number)),
            pending: self.cutter.pending(),
            raft_log: member.map(|node| (node.compacted(), node.last_index())),
        }
    }

    /// A raft member's first consensus tick; solo needs none.
    fn first_timer(&self) -> Option<u64> {
        matches!(self.consensus, Consensus::Raft(_)).then_some(RAFT_TICK)
    }

    fn perform_own<M: Carries<FabricMsg>>(
        &mut self,
        _: &mut Host<M>,
        _: &mut Context<'_, M>,
        own: Infallible,
    ) {
        match own {}
    }
}

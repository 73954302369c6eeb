//! The I/O half of the storage node: the [`StorageNode`] as a [`Machine`],
//! which asks for nothing of its own.

use std::convert::Infallible;

use hyperprov_fabric::{Carries, Host, Io, Machine};
use hyperprov_sim::{ActorId, Context};

use super::{Action, StorageNode, StoreMsg};

impl Machine for StorageNode {
    type Msg = StoreMsg;
    type Own = Infallible;
    /// The requests it served.
    type View = u64;

    fn message(&mut self, src: ActorId, msg: StoreMsg, _: Io<'_>) -> Vec<Action> {
        StorageNode::message(self, src, msg)
    }

    /// It arms none.
    fn timer(&mut self, _: u64, _: Io<'_>) -> Vec<Action> {
        Vec::new()
    }

    fn view(&self) -> u64 {
        self.jobs
    }

    fn perform_own<M: Carries<StoreMsg>>(
        &mut self,
        _: &mut Host<M>,
        _: &mut Context<'_, M>,
        own: Infallible,
    ) {
        match own {}
    }
}

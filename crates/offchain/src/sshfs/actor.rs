//! The I/O half of the storage node: the [`StorageNode`] as a [`Machine`],
//! and what performs its one own action, the job that sends a reply.

use hyperprov_fabric::{Action, Carries, FabricMsg, Host, Io, Machine};
use hyperprov_sim::{ActorId, Context};

use super::{Reply, StorageNode, StoreMsg};

impl Machine for StorageNode {
    type Msg = StoreMsg;
    type Own = Reply;

    fn message(&mut self, src: ActorId, msg: StoreMsg, _: Io<'_>) -> Vec<Action<Reply>> {
        StorageNode::message(self, src, msg)
    }

    /// It arms none.
    fn timer(&mut self, _: u64, _: Io<'_>) -> Vec<Action<Reply>> {
        Vec::new()
    }

    fn perform_own<M: Carries<StoreMsg> + Carries<FabricMsg>>(
        &mut self,
        host: &mut Host<M>,
        ctx: &mut Context<'_, M>,
        Reply(cost, to, reply, span): Reply,
    ) {
        let bytes = reply.wire_size();
        let send = (to, bytes, <M as Carries<StoreMsg>>::wrap(reply));
        host.job(ctx, cost, vec![send], vec![span]);
    }
}

//! The I/O half of the ordering node: the actor that feeds the sans-IO
//! [`OrderingNode`] and has its [`Host`] perform what it answers on the
//! discrete-event kernel.

use hyperprov_sim::{Actor, ActorId, Carries, Context, Event, SimDuration, Simulation};

use super::OrderingNode;
use crate::messages::FabricMsg;
use crate::perform::Host;

/// An ordering node on the simulation kernel: an [`OrderingNode`] — solo
/// or a raft member, one actor per member — and what performs its actions.
/// A multi-channel deployment runs one ordering pipeline per channel.
pub struct OrdererActor<M> {
    node: OrderingNode,
    host: Host<M>,
}

impl<M: Carries<FabricMsg> + 'static> OrdererActor<M> {
    /// The one way to start an orderer: puts `node` into `sim` on a CPU of
    /// relative speed `cpu_speed`, labelled `orderer`, and fires the timer
    /// that starts it, if it needs one (a raft member's first tick).
    pub fn start(node: OrderingNode, sim: &mut Simulation<M>, cpu_speed: f64) -> ActorId {
        let first_timer = node.first_timer();
        let host = Host::new("orderer");
        let id = sim.add_actor_with_speed(Box::new(OrdererActor { node, host }), cpu_speed);
        sim.set_actor_label(id, "orderer");
        if let Some(token) = first_timer {
            sim.start_timer(id, SimDuration::ZERO, token);
        }
        id
    }

    /// The machine, to read: whether it leads.
    pub fn node(&self) -> &OrderingNode {
        &self.node
    }
}

impl<M: Carries<FabricMsg> + 'static> Actor<M> for OrdererActor<M> {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        let actions = match event {
            Event::Message { src, msg } => match msg.peel() {
                Ok(msg) => self.node.message(src, msg),
                Err(_) => return,
            },
            Event::Timer { token } if self.host.timer(ctx, token) => self.node.timer(token),
            Event::Timer { .. } => return,
        };
        // An ordering node asks for nothing of its own.
        self.host.perform(ctx, actions, |_, _, own| match own {});
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.host.reset();
        let actions = self.node.restarted();
        self.host.perform(ctx, actions, |_, _, own| match own {});
    }
}

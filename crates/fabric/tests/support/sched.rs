//! The model host the machine tests share: machines under test at actor
//! ids of their own, what their hosts keep for them — the timers their
//! actions armed, whether they are down — the messages in flight among
//! them, and the model's seeded stream. It performs nothing a model
//! checks: each input's actions go back to the test, which keeps its own
//! model and invariants; the order of every input is the test's choice.
#![allow(dead_code)] // each test file uses its own part of this module

use std::collections::BTreeSet;

pub use hyperprov_fabric::Answer;
use hyperprov_fabric::{Action, Io, Machine};
use hyperprov_sim::{ActorId, DetRng, SimTime};
use rand::Rng as _;

/// The model's own stream, seeded by the case.
pub struct Rng(DetRng);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(DetRng::new(seed))
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(0..n)
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Machines and their model host.
pub struct Sched<Mc: Machine> {
    pub machines: Vec<Mc>,
    ids: Vec<ActorId>,
    /// Per machine, the tokens armed and neither disarmed nor fired.
    pub armed: Vec<BTreeSet<u64>>,
    /// Disarms of a token that was not armed, which a host ignores.
    pub stray_disarms: u64,
    /// Per machine, whether it is down.
    pub down: Vec<bool>,
    /// `(src, machine, message)` on its way to a machine, in no order.
    pub flying: Vec<(ActorId, usize, Mc::Msg)>,
    pub rng: Rng,
    /// The hosts' stream, which [`Io`] lends a machine.
    host_rng: DetRng,
    /// The instant every input arrives at.
    pub now: SimTime,
}

impl<Mc: Machine> Sched<Mc>
where
    Mc::Msg: Clone,
{
    /// Each machine at its actor id, its first timer armed, as its host
    /// starts it.
    pub fn new(machines: impl IntoIterator<Item = (ActorId, Mc)>, rng: Rng) -> Self {
        let (ids, machines): (Vec<ActorId>, Vec<Mc>) = machines.into_iter().unzip();
        let armed = machines
            .iter()
            .map(|m| m.first_timer().into_iter().collect());
        Sched {
            armed: armed.collect(),
            stray_disarms: 0,
            down: vec![false; machines.len()],
            machines,
            ids,
            flying: Vec::new(),
            host_rng: rng.0.fork_index(0),
            rng,
            now: SimTime::ZERO,
        }
    }

    /// Feeds machine `m` one input and books what its host keeps: the
    /// timers armed, and every send to a machine, which goes in flight.
    pub fn input(
        &mut self,
        m: usize,
        input: impl FnOnce(&mut Mc, Io<'_>) -> Answer<Mc>,
    ) -> Answer<Mc> {
        let (now, rng, admitted) = (self.now, &mut self.host_rng, true);
        let actions = input(&mut self.machines[m], Io { now, rng, admitted });
        let src = self.ids[m];
        for action in &actions {
            match action {
                Action::Arm(token, _) => {
                    assert!(self.armed[m].insert(*token), "#{token} armed twice")
                }
                Action::Disarm(token) => {
                    self.stray_disarms += u64::from(!self.armed[m].remove(token))
                }
                Action::Send(to, _, msg) => self.send(src, *to, msg),
                Action::Job(_, sends, _) => {
                    for (to, _, msg) in sends {
                        self.send(src, *to, msg);
                    }
                }
                _ => {}
            }
        }
        actions
    }

    fn send(&mut self, src: ActorId, to: ActorId, msg: &Mc::Msg) {
        if let Some(m) = self.ids.iter().position(|&id| id == to) {
            self.flying.push((src, m, msg.clone()));
        }
    }

    /// A message from `src` arrives at machine `m`, and is admitted; at a
    /// machine that is down it is lost.
    pub fn message(&mut self, m: usize, src: ActorId, msg: Mc::Msg) -> Answer<Mc> {
        if self.down[m] {
            return Vec::new();
        }
        self.input(m, |mc, io| mc.message(src, msg, io))
    }

    /// Timer `token` of machine `m` fires: its host forgets it, armed or not.
    pub fn fire(&mut self, m: usize, token: u64) -> Answer<Mc> {
        self.armed[m].remove(&token);
        self.input(m, |mc, io| mc.timer(token, io))
    }

    /// Machine `m` goes down: its timers die with it, and what reaches it
    /// is lost until it restarts.
    pub fn crash(&mut self, m: usize) {
        self.down[m] = true;
        self.armed[m].clear();
    }

    /// Machine `m` restarts, from a crash or from running.
    pub fn restart(&mut self, m: usize) -> Answer<Mc> {
        self.down[m] = false;
        self.armed[m].clear();
        self.input(m, |mc, _| mc.restarted())
    }

    /// A message in flight, picked at random, arrives: the wire reorders.
    pub fn deliver_any(&mut self) -> Answer<Mc> {
        let i = self.rng.below(self.flying.len() as u64) as usize;
        let (src, m, msg) = self.flying.swap_remove(i);
        self.message(m, src, msg)
    }

    /// What is in flight arrives, oldest first, and what that sends, until
    /// nothing is left; returns each input's machine and answer, in order.
    pub fn settle(&mut self) -> Vec<(usize, Answer<Mc>)> {
        let mut answered = Vec::new();
        while !self.flying.is_empty() {
            let (src, m, msg) = self.flying.remove(0);
            answered.push((m, self.message(m, src, msg)));
        }
        answered
    }

    /// A clean network's next input: a message in flight arrives, and only
    /// once none is left does the first armed timer fire. `None` once
    /// nothing is in flight or armed.
    pub fn heal(&mut self) -> Option<Answer<Mc>> {
        if !self.flying.is_empty() {
            return Some(self.deliver_any());
        }
        let m = self.armed.iter().position(|armed| !armed.is_empty())?;
        let token = *self.armed[m].first().expect("a machine with a timer armed");
        Some(self.fire(m, token))
    }

    /// Puts `msg` from `src` for machine `m` on the wire: lost, once or
    /// twice, each with `loss` percent.
    pub fn ship(&mut self, src: ActorId, m: usize, msg: Mc::Msg, loss: u64) {
        if self.rng.chance(loss) {
            return;
        }
        if self.rng.chance(loss) {
            self.flying.push((src, m, msg.clone()));
        }
        self.flying.push((src, m, msg));
    }
}

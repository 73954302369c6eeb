//! Network model: point-to-point links with latency, bandwidth, jitter and
//! fault injection (partitions, loss).
//!
//! Every actor may have one NIC, and all of them share one switch, as in
//! the paper's testbeds: the link between two actors is the slower of
//! their two NICs, field by field. Every ordered pair of actors
//! communicates over its own logical link. A link serialises transfers (a
//! second message queues behind the first), then adds propagation latency
//! plus optional uniform jitter. This reproduces the first-order behaviour
//! of the paper's switched LAN: small messages are latency-bound, large
//! off-chain transfers are bandwidth-bound.

use std::collections::{HashMap, HashSet};

use rand::Rng;

use crate::engine::ActorId;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Static parameters of a point-to-point link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second; `u64::MAX` disables the transfer cost.
    pub bandwidth_bps: u64,
    /// Uniform jitter as a fraction of latency (0.0 = none, 0.5 = up to
    /// +/-50 % of the latency, clamped at zero).
    pub jitter_frac: f64,
}

impl LinkSpec {
    /// A LAN-class link: 100 us latency, 1 Gbit/s, no jitter.
    pub fn lan() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 1_000_000_000,
            jitter_frac: 0.0,
        }
    }

    /// An instantaneous link used for co-located processes.
    pub fn local() -> Self {
        LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: u64::MAX,
            jitter_frac: 0.0,
        }
    }

    /// Serialisation (transfer) time of `bytes` over this link.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        if self.bandwidth_bps == u64::MAX {
            return SimDuration::ZERO;
        }
        let bits = bytes.saturating_mul(8);
        SimDuration::from_secs_f64(bits as f64 / self.bandwidth_bps as f64)
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::lan()
    }
}

/// The outcome of offering a message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Message arrives at the given instant.
    At(SimTime),
    /// Message is dropped (partition or random loss).
    Dropped,
}

/// Mutable network state shared by all links.
#[derive(Debug, Default)]
pub struct Network {
    default_link: LinkSpec,
    /// Each actor's NIC, by actor id; `None` for an actor without one.
    nics: Vec<Option<LinkSpec>>,
    busy_until: HashMap<(ActorId, ActorId), SimTime>,
    blocked: HashSet<(ActorId, ActorId)>,
    loss_prob: f64,
    delivered: u64,
    dropped: u64,
    bytes_sent: u64,
}

impl Network {
    /// Creates a network where every pair uses `default_link` until both
    /// of its actors have a NIC.
    pub fn new(default_link: LinkSpec) -> Self {
        Network {
            default_link,
            ..Network::default()
        }
    }

    /// Attaches `actor` to the switch through `nic`.
    pub fn set_nic(&mut self, actor: ActorId, nic: LinkSpec) {
        let slot = actor.0 as usize;
        if self.nics.len() <= slot {
            self.nics.resize(slot + 1, None);
        }
        self.nics[slot] = Some(nic);
    }

    /// Replaces the default link.
    pub fn set_default_link(&mut self, spec: LinkSpec) {
        self.default_link = spec;
    }

    /// The link spec in effect from `src` to `dst`: the slower of their
    /// NICs in each field, or the default link when either has none.
    pub fn link(&self, src: ActorId, dst: ActorId) -> LinkSpec {
        let nic = |actor: ActorId| self.nics.get(actor.0 as usize).copied().flatten();
        match (nic(src), nic(dst)) {
            (Some(a), Some(b)) => LinkSpec {
                latency: a.latency.max(b.latency),
                bandwidth_bps: a.bandwidth_bps.min(b.bandwidth_bps),
                jitter_frac: a.jitter_frac.max(b.jitter_frac),
            },
            _ => self.default_link,
        }
    }

    /// Sets the probability in `[0, 1]` that any message is silently lost.
    pub fn set_loss_probability(&mut self, p: f64) {
        self.loss_prob = p.clamp(0.0, 1.0);
    }

    /// Blocks traffic between `a` and `b` in both directions.
    pub fn partition(&mut self, a: ActorId, b: ActorId) {
        self.blocked.insert((a, b));
        self.blocked.insert((b, a));
    }

    /// Blocks all traffic between the two groups (both directions).
    pub fn partition_groups(&mut self, left: &[ActorId], right: &[ActorId]) {
        for &l in left {
            for &r in right {
                self.partition(l, r);
            }
        }
    }

    /// Restores traffic between `a` and `b`.
    pub fn heal(&mut self, a: ActorId, b: ActorId) {
        self.blocked.remove(&(a, b));
        self.blocked.remove(&(b, a));
    }

    /// Removes every partition.
    pub fn heal_all(&mut self) {
        self.blocked.clear();
    }

    /// True if traffic from `src` to `dst` is currently blocked.
    pub fn is_blocked(&self, src: ActorId, dst: ActorId) -> bool {
        self.blocked.contains(&(src, dst))
    }

    /// Offers a `bytes`-sized message to the link at time `now`, returning
    /// when (or whether) it is delivered. Advances the link's queue state.
    pub fn offer(
        &mut self,
        now: SimTime,
        src: ActorId,
        dst: ActorId,
        bytes: u64,
        rng: &mut DetRng,
    ) -> Delivery {
        if self.is_blocked(src, dst) {
            self.dropped += 1;
            return Delivery::Dropped;
        }
        if self.loss_prob > 0.0 && rng.gen::<f64>() < self.loss_prob {
            self.dropped += 1;
            return Delivery::Dropped;
        }
        let spec = self.link(src, dst);
        let busy = self
            .busy_until
            .get(&(src, dst))
            .copied()
            .unwrap_or(SimTime::ZERO);
        let start = if busy > now { busy } else { now };
        let done_sending = start + spec.transfer_time(bytes);
        self.busy_until.insert((src, dst), done_sending);
        let mut latency = spec.latency;
        if spec.jitter_frac > 0.0 {
            let u: f64 = rng.gen_range(-1.0..=1.0);
            let factor = (1.0 + spec.jitter_frac * u).max(0.0);
            latency = latency.mul_f64(factor);
        }
        self.delivered += 1;
        self.bytes_sent = self.bytes_sent.saturating_add(bytes);
        Delivery::At(done_sending + latency)
    }

    /// Number of messages delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of messages dropped so far (partitions + loss).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total payload bytes accepted by the network so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (ActorId, ActorId) {
        (ActorId(0), ActorId(1))
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let spec = LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: 8_000, // 1000 bytes/s
            jitter_frac: 0.0,
        };
        assert_eq!(spec.transfer_time(1000), SimDuration::from_secs(1));
        assert_eq!(spec.transfer_time(0), SimDuration::ZERO);
        assert_eq!(LinkSpec::local().transfer_time(1 << 30), SimDuration::ZERO);
    }

    #[test]
    fn latency_only_delivery() {
        let (a, b) = ids();
        let mut net = Network::new(LinkSpec {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: u64::MAX,
            jitter_frac: 0.0,
        });
        let mut rng = DetRng::new(1);
        match net.offer(SimTime::ZERO, a, b, 100, &mut rng) {
            Delivery::At(t) => assert_eq!(t, SimTime::from_nanos(1_000_000)),
            Delivery::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn back_to_back_messages_serialize() {
        let (a, b) = ids();
        let mut net = Network::new(LinkSpec {
            latency: SimDuration::ZERO,
            bandwidth_bps: 8_000, // 1000 bytes/s
            jitter_frac: 0.0,
        });
        let mut rng = DetRng::new(1);
        let d1 = net.offer(SimTime::ZERO, a, b, 1000, &mut rng);
        let d2 = net.offer(SimTime::ZERO, a, b, 1000, &mut rng);
        assert_eq!(d1, Delivery::At(SimTime::from_secs(1)));
        assert_eq!(d2, Delivery::At(SimTime::from_secs(2)));
        // Reverse direction has its own queue.
        let d3 = net.offer(SimTime::ZERO, b, a, 1000, &mut rng);
        assert_eq!(d3, Delivery::At(SimTime::from_secs(1)));
    }

    #[test]
    fn partition_drops_and_heals() {
        let (a, b) = ids();
        let mut net = Network::new(LinkSpec::local());
        let mut rng = DetRng::new(1);
        net.partition(a, b);
        assert!(net.is_blocked(a, b) && net.is_blocked(b, a));
        assert_eq!(
            net.offer(SimTime::ZERO, a, b, 1, &mut rng),
            Delivery::Dropped
        );
        net.heal(a, b);
        assert!(matches!(
            net.offer(SimTime::ZERO, a, b, 1, &mut rng),
            Delivery::At(_)
        ));
        assert_eq!(net.dropped(), 1);
        assert_eq!(net.delivered(), 1);
    }

    #[test]
    fn partition_groups_blocks_cross_traffic_only() {
        let ids: Vec<ActorId> = (0..4).map(ActorId).collect();
        let mut net = Network::new(LinkSpec::local());
        net.partition_groups(&ids[..2], &ids[2..]);
        assert!(net.is_blocked(ids[0], ids[2]));
        assert!(net.is_blocked(ids[3], ids[1]));
        assert!(!net.is_blocked(ids[0], ids[1]));
        assert!(!net.is_blocked(ids[2], ids[3]));
        net.heal_all();
        assert!(!net.is_blocked(ids[0], ids[2]));
    }

    #[test]
    fn loss_probability_one_drops_everything() {
        let (a, b) = ids();
        let mut net = Network::new(LinkSpec::local());
        net.set_loss_probability(1.0);
        let mut rng = DetRng::new(1);
        for _ in 0..10 {
            assert_eq!(
                net.offer(SimTime::ZERO, a, b, 1, &mut rng),
                Delivery::Dropped
            );
        }
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let (a, b) = ids();
        let mut net = Network::new(LinkSpec {
            latency: SimDuration::from_millis(10),
            bandwidth_bps: u64::MAX,
            jitter_frac: 0.5,
        });
        let mut rng = DetRng::new(42);
        for _ in 0..200 {
            match net.offer(SimTime::ZERO, a, b, 1, &mut rng) {
                Delivery::At(t) => {
                    let ns = t.as_nanos();
                    assert!((5_000_000..=15_000_000).contains(&ns), "{ns}");
                }
                Delivery::Dropped => panic!("no loss configured"),
            }
        }
    }

    /// A desktop NIC and a Raspberry Pi's: the Pi is slower in every field.
    fn nics() -> (LinkSpec, LinkSpec) {
        let desktop = LinkSpec {
            latency: SimDuration::from_micros(120),
            bandwidth_bps: 1_000_000_000,
            jitter_frac: 0.05,
        };
        let rpi = LinkSpec {
            latency: SimDuration::from_micros(350),
            bandwidth_bps: 230_000_000,
            jitter_frac: 0.35,
        };
        (desktop, rpi)
    }

    #[test]
    fn the_link_is_the_slower_nic_in_each_field_both_ways() {
        let (a, b) = ids();
        let (desktop, rpi) = nics();
        let mut net = Network::new(LinkSpec::local());
        net.set_nic(a, desktop);
        net.set_nic(b, rpi);
        assert_eq!(net.link(a, b), rpi);
        assert_eq!(net.link(b, a), rpi);
        // Slower in different fields: each field takes its own side.
        let mixed = LinkSpec {
            latency: SimDuration::from_millis(1),
            bandwidth_bps: u64::MAX,
            jitter_frac: 0.0,
        };
        net.set_nic(b, mixed);
        let want = LinkSpec {
            latency: mixed.latency,
            bandwidth_bps: desktop.bandwidth_bps,
            jitter_frac: desktop.jitter_frac,
        };
        assert_eq!(net.link(a, b), want);
        assert_eq!(net.link(b, a), want);
        assert_eq!(
            net.link(a, a),
            desktop,
            "an actor's link to itself is its NIC"
        );
    }

    #[test]
    fn an_actor_without_a_nic_gets_the_default_link_both_ways() {
        let (a, b) = ids();
        let c = ActorId(2);
        let mut net = Network::new(LinkSpec::local());
        net.set_nic(a, nics().1);
        net.set_nic(c, nics().1);
        for (src, dst) in [(a, b), (b, a), (b, c), (c, b), (b, b)] {
            assert_eq!(net.link(src, dst), LinkSpec::local());
        }
        let mut rng = DetRng::new(1);
        assert_eq!(
            net.offer(SimTime::ZERO, b, a, 1, &mut rng),
            Delivery::At(SimTime::ZERO)
        );
    }

    #[test]
    fn a_nic_can_be_set_past_the_current_table() {
        let (a, _) = ids();
        let far = ActorId(1_000);
        let (desktop, rpi) = nics();
        let mut net = Network::new(LinkSpec::local());
        net.set_nic(far, rpi);
        assert_eq!(net.link(a, far), LinkSpec::local(), "a has no NIC yet");
        net.set_nic(a, desktop);
        assert_eq!(net.link(a, far), rpi);
        assert_eq!(net.link(ActorId(999), far), LinkSpec::local());
    }
}

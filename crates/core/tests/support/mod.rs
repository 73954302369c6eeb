//! Helpers shared by the facade-level integration tests.

use hyperprov::HyperProv;
use hyperprov_sim::SimDuration;

/// Runs the network for `secs` of virtual time: a drain or catch-up
/// window, and the quiescence an audit after a facade call needs (the
/// call returns when its own peer has committed, not every peer).
pub fn settle(hp: &mut HyperProv, secs: u64) {
    let now = hp.network().sim.now();
    hp.network_mut()
        .sim
        .run_until(now + SimDuration::from_secs(secs));
}

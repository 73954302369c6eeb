//! The one place a hosted ledger is booted: from a snapshot plus the
//! blocks stored above it, or from genesis — after a fetch, and for every
//! channel after a crash.

use hyperprov_ledger::Snapshot;
use hyperprov_sim::SimDuration;

use super::{Action, Checkpoint, Peer};
use crate::costs;

impl Peer {
    /// Rebuilds channel `i`'s ledger and swaps it in: from `snapshot` plus
    /// the stored blocks at or above its height — work independent of
    /// total chain length — or, without one, by re-validating the whole
    /// durable block store from genesis. Answers the CPU cost and the
    /// number of blocks replayed; a failure is counted and leaves the
    /// ledger as it was.
    fn rebuild(
        &self,
        i: usize,
        snapshot: Option<&Snapshot>,
        out: &mut Vec<Action>,
    ) -> Option<(SimDuration, u64)> {
        let ch = &self.channels[i];
        // Each rebuild is bound before it is looked at: the ledger's shared
        // borrow must end before the rebuilt one is swapped in.
        let (rebuilt, outcome, mut cost) = match snapshot {
            Some(snapshot) => {
                let rebuilt = ch.committer.borrow().recover_from_snapshot(snapshot).ok();
                let outcome = match rebuilt {
                    Some(_) => "snapshot_boots",
                    None => "snapshot_boot_errors",
                };
                let entries = snapshot.entry_count() as u64;
                let cost = costs::snapshot_restore_cost(entries, snapshot.state_bytes());
                (rebuilt, Some(outcome), cost)
            }
            None => {
                let rebuilt = ch.committer.borrow().recover().ok();
                let outcome = rebuilt.is_none().then_some("recover_errors");
                (rebuilt, outcome, SimDuration::ZERO)
            }
        };
        if let Some(outcome) = outcome {
            out.push(Action::Count(Some(ch.id.clone()), outcome, 1));
        }
        let rebuilt = rebuilt?;
        let mut replayed = 0;
        for block in rebuilt.store().iter() {
            cost += costs::block_cost(block.wire_size());
            replayed += 1;
        }
        *ch.committer.borrow_mut() = rebuilt;
        Some((cost, replayed))
    }

    /// Boots channel `i` from a fetched snapshot, keeps it as the latest
    /// one, and commits the blocks that arrived live during the fetch and
    /// now sit directly above it. Answers whether the boot succeeded.
    pub(super) fn install(&mut self, i: usize, snapshot: Snapshot, out: &mut Vec<Action>) -> bool {
        // Blocks delivered during the fetch may have carried the ledger past
        // the snapshot: booting it would commit those heights a second time.
        if snapshot.height() < self.channels[i].committer.borrow().height() {
            return true;
        }
        let Some((cost, _)) = self.rebuild(i, Some(&snapshot), out) else {
            return false;
        };
        let (ch, height) = (&mut self.channels[i], snapshot.height());
        let id = Some(ch.id.clone());
        out.push(Action::Gauge(id, "snapshots.height", height as f64));
        // The boot jumped over what was buffered below the new height:
        // left there it would never drain and always read as "a later
        // block is waiting".
        ch.buffer = ch.buffer.split_off(&height);
        ch.checkpoint = Some(Checkpoint::Fetched(snapshot));
        out.push(Action::Charge(cost));
        self.drain(i, out);
        true
    }

    /// Crash restart. What is volatile is gone: buffered out-of-order
    /// blocks, the catch-up waits, a cut's materialized content. Every
    /// hosted ledger is rebuilt from what the peer models as durable — the
    /// latest checkpoint plus the block store, or the block store alone —
    /// and each channel's machine asks for whatever was cut meanwhile. A
    /// cut is materialized from the ledger it is about to replace, which
    /// holds all it covers, and dropped once the rebuild has read it.
    pub fn restarted(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        let (mut cost, mut replayed, mut boots) = (SimDuration::ZERO, 0u64, 0u64);
        let order: Vec<usize> = self.by_id.values().copied().collect();
        for &i in &order {
            self.channels[i].buffer.clear();
            let ch = &self.channels[i];
            let latest = ch.checkpoint.as_ref().map(|c| c.snapshot(&ch.committer));
            let from_snapshot = latest.and_then(|s| self.rebuild(i, Some(s), &mut out));
            if let Some(Checkpoint::Cut { read, .. }) = &mut self.channels[i].checkpoint {
                read.take();
            }
            boots += u64::from(from_snapshot.is_some());
            let booted = from_snapshot.or_else(|| self.rebuild(i, None, &mut out));
            if let Some((spent, blocks)) = booted {
                cost += spent;
                replayed += blocks;
            }
        }
        // The replay keeps the CPU busy, so requests arriving during
        // recovery queue behind it.
        if cost > SimDuration::ZERO {
            out.push(Action::Charge(cost));
        }
        out.push(Action::Count(None, "recoveries", 1));
        let cost_ms = cost.as_nanos() as f64 / 1e6;
        out.push(Action::Gauge(None, "recovery.cost_ms", cost_ms));
        out.push(Action::Gauge(
            None,
            "recovery.replayed_blocks",
            replayed as f64,
        ));
        out.push(Action::Gauge(None, "recovery.snapshot_boots", boots as f64));
        for i in order {
            self.step(i, &mut out, |machine, height, _| machine.restarted(height));
        }
        out
    }
}

//! Host-side profiling of the simulator itself.
//!
//! Everything else in this crate measures *virtual* time; this module
//! measures the *host* — how fast the event loop chews through events,
//! where wall-clock time goes by actor type, and how much memory the
//! process peaks at. The numbers feed `BENCH_sim.json` and the CI
//! regression gate, and they are inherently non-deterministic: never
//! mix them into the fixture-pinned exports.
//!
//! Two pieces:
//!
//! * [`HotCounters`] — plain `u64` fields bumped inside the kernel's
//!   hot paths (enqueue, send, timer, CPU submit). Incrementing them
//!   never allocates and costs one add, so they stay on even when the
//!   profiler is off.
//! * [`SimProfiler`] — opt-in wall-clock instrumentation around actor
//!   event handlers, aggregated per actor label. Off by default; when
//!   off, the event loop takes no `Instant` samples at all.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Obj;

/// Allocation-free counters bumped in the kernel's hot paths.
///
/// These run unconditionally (one integer add each), so they are
/// available even in runs that never enabled the [`SimProfiler`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HotCounters {
    /// Queue entries pushed (messages, timers, CPU completions).
    pub events_enqueued: u64,
    /// Messages offered to the network via `Context::send`.
    pub messages_sent: u64,
    /// Timers armed via `Context::set_timer`.
    pub timers_set: u64,
    /// CPU work items submitted (`execute` / `execute_parallel`).
    pub cpu_jobs: u64,
}

impl HotCounters {
    /// Compact JSON object with one field per counter.
    pub fn snapshot_json(&self) -> String {
        Obj::new()
            .u64("events_enqueued", self.events_enqueued)
            .u64("messages_sent", self.messages_sent)
            .u64("timers_set", self.timers_set)
            .u64("cpu_jobs", self.cpu_jobs)
            .build()
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct LabelStat {
    events: u64,
    wall: Duration,
}

/// Opt-in wall-clock profiler for the simulation event loop.
///
/// Enable with [`SimProfiler::enable`] (or
/// `Simulation::enable_profiler`) before running; afterwards
/// [`SimProfiler::snapshot_json`] reports run wall time, events/sec,
/// handler wall time broken down by actor label, and the process's peak
/// RSS.
#[derive(Debug, Default)]
pub struct SimProfiler {
    enabled: bool,
    started: Option<Instant>,
    handler_wall: Duration,
    handler_events: u64,
    by_label: BTreeMap<String, LabelStat>,
}

impl SimProfiler {
    /// A disabled profiler (the default): every hook is a no-op and the
    /// event loop takes no clock samples.
    pub fn new() -> Self {
        SimProfiler::default()
    }

    /// Starts profiling; the run clock starts now.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.started = Some(Instant::now());
    }

    /// Samples the clock before an event handler runs; `None` when
    /// disabled (and then [`SimProfiler::end_handler`] is free).
    pub fn start_handler(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Accounts one handler invocation against `label`.
    pub fn end_handler(&mut self, started: Option<Instant>, label: &str) {
        let Some(started) = started else { return };
        let wall = started.elapsed();
        self.handler_wall += wall;
        self.handler_events += 1;
        if let Some(stat) = self.by_label.get_mut(label) {
            stat.events += 1;
            stat.wall += wall;
        } else {
            self.by_label
                .insert(label.to_owned(), LabelStat { events: 1, wall });
        }
    }

    /// Wall time since [`SimProfiler::enable`], or zero if never enabled.
    pub fn wall_elapsed(&self) -> Duration {
        self.started.map(|t| t.elapsed()).unwrap_or(Duration::ZERO)
    }

    /// Total wall time spent inside event handlers.
    pub fn handler_wall(&self) -> Duration {
        self.handler_wall
    }

    /// Serializes the profile: run wall seconds, host events/sec (over
    /// `events_processed`, the engine's own event count), per-label
    /// handler breakdown, peak RSS, and the hot-path counters.
    ///
    /// Host-side numbers are wall-clock measurements — they differ run
    /// to run and machine to machine. Compare them with loose, ratio
    /// tolerances only.
    pub fn snapshot_json(&self, events_processed: u64, hot: HotCounters) -> String {
        let wall = self.wall_elapsed().as_secs_f64();
        let events_per_sec = if wall > 0.0 {
            events_processed as f64 / wall
        } else {
            0.0
        };
        let mut handlers = Obj::new();
        for (label, stat) in &self.by_label {
            let share = if self.handler_wall.as_secs_f64() > 0.0 {
                stat.wall.as_secs_f64() / self.handler_wall.as_secs_f64()
            } else {
                0.0
            };
            handlers = handlers.raw(
                label,
                &Obj::new()
                    .u64("events", stat.events)
                    .f64("wall_s", stat.wall.as_secs_f64())
                    .f64("share", share)
                    .build(),
            );
        }
        Obj::new()
            .f64("wall_s", wall)
            .u64("events", events_processed)
            .f64("events_per_sec", events_per_sec)
            .f64("handler_wall_s", self.handler_wall.as_secs_f64())
            .u64("handler_events", self.handler_events)
            .raw("handlers", &handlers.build())
            .u64("peak_rss_bytes", peak_rss_bytes().unwrap_or(0))
            .raw("hot", &hot.snapshot_json())
            .build()
    }
}

/// The process's peak resident set size in bytes, read from
/// `/proc/self/status` (`VmHWM`). `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = SimProfiler::new();
        let t = p.start_handler();
        assert!(t.is_none());
        p.end_handler(t, "peer");
        assert_eq!(p.handler_events, 0);
        assert_eq!(p.wall_elapsed(), Duration::ZERO);
    }

    #[test]
    fn enabled_profiler_accumulates_by_label() {
        let mut p = SimProfiler::new();
        p.enable();
        for label in ["peer", "client", "peer"] {
            let t = p.start_handler();
            assert!(t.is_some());
            p.end_handler(t, label);
        }
        assert_eq!(p.handler_events, 3);
        let json = p.snapshot_json(3, HotCounters::default());
        assert!(json.contains("\"peer\":{\"events\":2"));
        assert!(json.contains("\"client\":{\"events\":1"));
        assert!(json.contains("\"events_per_sec\""));
        assert!(json.contains("\"peak_rss_bytes\""));
    }

    #[test]
    fn hot_counters_serialize() {
        let hot = HotCounters {
            events_enqueued: 4,
            messages_sent: 3,
            timers_set: 2,
            cpu_jobs: 1,
        };
        assert_eq!(
            hot.snapshot_json(),
            "{\"events_enqueued\":4,\"messages_sent\":3,\"timers_set\":2,\"cpu_jobs\":1}"
        );
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        // The container runs Linux with procfs; a positive RSS is a
        // sanity check that the parse stays aligned with the format.
        if let Some(rss) = peak_rss_bytes() {
            assert!(rss > 0);
        }
    }
}

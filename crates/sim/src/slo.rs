//! Rolling-window SLO monitoring on virtual time.
//!
//! An [`SloMonitor`] evaluates named service-level objectives over the
//! course of a run. Three objective shapes cover the campaigns' needs:
//!
//! * **Latency quantile** — "the `q`-quantile of stage `S` must stay at
//!   or below `budget`". Evaluated error-budget style: each observation
//!   either fits the budget or burns it, and the window may spend at most
//!   a `1 - q` fraction of its observations over budget.
//! * **Goodput floor** — "events named `E` must arrive at ≥ `floor`
//!   per second of virtual time".
//! * **Error-rate ceiling** — "of the `ok` and `err` events observed,
//!   the error fraction must stay at or below `ceiling`".
//!
//! Observations land in a ring of four fixed-width virtual-time buckets
//! per window; every time the clock crosses a bucket boundary the window
//! (the most recent four buckets) is evaluated and one **burn-rate** point
//! is emitted: the fraction of the error budget the window consumed, where
//! `burn > 1.0` means the objective is out of budget. Contiguous
//! out-of-budget evaluations coalesce into **breach windows** with a
//! start and (once the burn drops back) an end instant. At export time a
//! per-objective **verdict** summarises attainment, breach count and
//! total breach time.
//!
//! Everything is driven by virtual time, so two same-seed runs produce
//! byte-identical SLO reports. A monitor with no objectives never
//! allocates and never appears in exports — default-config runs stay
//! byte-identical to pre-SLO releases.

use std::collections::VecDeque;

use crate::histogram::Histogram;
use crate::json::{array, fmt_f64, Obj};
use crate::time::{SimDuration, SimTime};

/// Burn rates are capped here so an empty goodput window (rate zero
/// against a positive floor) stays representable in JSON and plots.
pub const MAX_BURN: f64 = 1e3;

/// What a named objective constrains.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// The `q`-quantile of latency observations tagged `source` (a span
    /// stage name; see [`SloMonitor::observe_latency`]) must be ≤
    /// `budget`.
    LatencyQuantile {
        /// Latency source: the span stage whose closes feed this SLO.
        source: String,
        /// Target quantile in `(0, 1)`, e.g. `0.95`.
        q: f64,
        /// Latency budget at the quantile.
        budget: SimDuration,
    },
    /// Events tagged `source` must arrive at ≥ `floor_per_sec` events
    /// per second of virtual time, on average over the window.
    GoodputFloor {
        /// Event source fed via [`SloMonitor::observe_event_n`].
        source: String,
        /// Minimum acceptable event rate (events/second).
        floor_per_sec: f64,
    },
    /// Of the events tagged `ok_source` and `err_source`, the error
    /// fraction must stay ≤ `ceiling`.
    ErrorRateCeiling {
        /// Success-event source.
        ok_source: String,
        /// Failure-event source.
        err_source: String,
        /// Maximum acceptable error fraction in `(0, 1)`.
        ceiling: f64,
    },
}

impl SloObjective {
    /// A one-line human-readable description, used in verdict tables.
    pub fn describe(&self) -> String {
        match self {
            SloObjective::LatencyQuantile { source, q, budget } => {
                format!("{source} p{:.0} <= {budget}", q * 100.0)
            }
            SloObjective::GoodputFloor {
                source,
                floor_per_sec,
            } => format!("{source} >= {floor_per_sec:.1}/s"),
            SloObjective::ErrorRateCeiling {
                err_source,
                ceiling,
                ..
            } => format!("{err_source} rate <= {:.1}%", ceiling * 100.0),
        }
    }

    /// The machine-readable objective kind for JSON exports.
    fn kind(&self) -> &'static str {
        match self {
            SloObjective::LatencyQuantile { .. } => "latency_quantile",
            SloObjective::GoodputFloor { .. } => "goodput_floor",
            SloObjective::ErrorRateCeiling { .. } => "error_rate_ceiling",
        }
    }
}

/// A named objective plus its rolling-window shape.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objective name (unique within a monitor), e.g. `"op-p95"`.
    pub name: String,
    /// What the objective constrains.
    pub objective: SloObjective,
    /// Rolling window length (virtual time).
    pub window: SimDuration,
}

/// Sub-buckets per window; the window is evaluated once per bucket
/// rotation, so this is also the burn-series resolution.
const BUCKETS: u64 = 4;

impl SloSpec {
    /// A spec over a rolling `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(name: impl Into<String>, objective: SloObjective, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "SLO window must be positive");
        SloSpec {
            name: name.into(),
            objective,
            window,
        }
    }
}

/// One bucket of windowed observations.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    /// Latency observations within budget (latency objectives).
    within: u64,
    /// Latency observations over budget (latency objectives).
    over: u64,
    /// `ok`/goodput events.
    ok: u64,
    /// `err` events.
    err: u64,
}

impl Bucket {
    fn is_empty(&self) -> bool {
        self.within == 0 && self.over == 0 && self.ok == 0 && self.err == 0
    }
}

/// A contiguous out-of-budget interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloBreach {
    /// Evaluation instant at which the burn rate first exceeded 1.
    pub start: SimTime,
    /// Evaluation instant at which it dropped back to ≤ 1 (`None` while
    /// still breaching at export time).
    pub end: Option<SimTime>,
}

/// The per-run summary of one objective.
#[derive(Debug, Clone)]
pub struct SloVerdict {
    /// Objective name.
    pub name: String,
    /// Human-readable objective description.
    pub objective: String,
    /// Window evaluations performed.
    pub evaluations: u64,
    /// Number of distinct breach windows.
    pub breaches: u64,
    /// Total virtual time spent in breach.
    pub breach_time: SimDuration,
    /// Highest burn rate any evaluation reported.
    pub worst_burn: f64,
    /// Whole-run attainment: the measured quantile (latency, in
    /// nanoseconds), mean rate (goodput, events/s) or error fraction.
    pub attained: f64,
    /// True when no evaluation ever breached.
    pub pass: bool,
}

/// The rolling-window state of one objective.
#[derive(Debug, Clone)]
struct SloState {
    spec: SloSpec,
    width: SimDuration,
    /// Index (time / width) of the bucket currently being filled.
    cur_index: u64,
    cur: Bucket,
    /// The most recent completed buckets, oldest first (≤ `BUCKETS - 1`
    /// entries; the current bucket completes the window).
    ring: VecDeque<Bucket>,
    /// Burn-rate series: one `(evaluation instant, burn)` point per
    /// bucket rotation.
    burn: Vec<(SimTime, f64)>,
    breaches: Vec<SloBreach>,
    evaluations: u64,
    worst_burn: f64,
    /// Whole-run latency histogram (latency objectives only).
    run_hist: Histogram,
    /// Whole-run event totals.
    run_ok: u64,
    run_err: u64,
    first_obs: Option<SimTime>,
    last_obs: SimTime,
}

impl SloState {
    fn new(spec: SloSpec) -> Self {
        let width = (spec.window / BUCKETS).max(SimDuration::from_nanos(1));
        SloState {
            spec,
            width,
            cur_index: 0,
            cur: Bucket::default(),
            ring: VecDeque::new(),
            burn: Vec::new(),
            breaches: Vec::new(),
            evaluations: 0,
            worst_burn: 0.0,
            run_hist: Histogram::new(),
            run_ok: 0,
            run_err: 0,
            first_obs: None,
            last_obs: SimTime::ZERO,
        }
    }

    /// Rotates buckets up to the one containing `now`, evaluating the
    /// window at each boundary crossed. The SLO clock starts at the first
    /// observation — boundaries before it are skipped without evaluating,
    /// so a goodput floor cannot open a spurious breach during warm-up.
    /// Long idle gaps evaluate once per elapsed bucket but only while the
    /// window still holds data; once every bucket is empty the index
    /// jumps straight to `now`.
    fn advance(&mut self, now: SimTime) {
        let target = now.as_nanos() / self.width.as_nanos();
        if self.first_obs.is_none() {
            self.cur_index = target;
            return;
        }
        while self.cur_index < target {
            let boundary = SimTime::from_nanos((self.cur_index + 1) * self.width.as_nanos());
            let finished = std::mem::take(&mut self.cur);
            self.ring.push_back(finished);
            while self.ring.len() as u64 >= BUCKETS {
                self.ring.pop_front();
            }
            self.evaluate(boundary);
            self.cur_index += 1;
            if self.ring.iter().all(Bucket::is_empty) && self.cur.is_empty() {
                // Nothing left in the window: skip the idle stretch.
                self.ring.clear();
                self.cur_index = target;
                break;
            }
        }
        self.cur_index = target;
    }

    /// The window's burn rate: completed ring buckets plus the current
    /// partial bucket.
    fn window_burn(&self) -> f64 {
        let mut acc = Bucket::default();
        for b in self.ring.iter().chain(std::iter::once(&self.cur)) {
            acc.within += b.within;
            acc.over += b.over;
            acc.ok += b.ok;
            acc.err += b.err;
        }
        match &self.spec.objective {
            SloObjective::LatencyQuantile { q, .. } => {
                let total = acc.within + acc.over;
                if total == 0 {
                    return 0.0;
                }
                let allowed = (1.0 - q).max(1.0 / MAX_BURN);
                let over_frac = acc.over as f64 / total as f64;
                (over_frac / allowed).min(MAX_BURN)
            }
            SloObjective::GoodputFloor { floor_per_sec, .. } => {
                if *floor_per_sec <= 0.0 {
                    return 0.0;
                }
                // The window the accumulator actually covers: completed
                // ring buckets plus the in-progress one.
                let secs = (self.width * (self.ring.len() as u64 + 1)).as_secs_f64();
                if secs <= 0.0 {
                    return 0.0;
                }
                let rate = acc.ok as f64 / secs;
                if rate <= 0.0 {
                    MAX_BURN
                } else {
                    (floor_per_sec / rate).min(MAX_BURN)
                }
            }
            SloObjective::ErrorRateCeiling { ceiling, .. } => {
                let total = acc.ok + acc.err;
                if total == 0 || *ceiling <= 0.0 {
                    return 0.0;
                }
                let frac = acc.err as f64 / total as f64;
                (frac / ceiling).min(MAX_BURN)
            }
        }
    }

    fn evaluate(&mut self, at: SimTime) {
        let burn = self.window_burn();
        self.evaluations += 1;
        self.worst_burn = self.worst_burn.max(burn);
        self.burn.push((at, burn));
        let breaching = burn > 1.0;
        let open = self.breaches.last().is_some_and(|b| b.end.is_none());
        if breaching && !open {
            self.breaches.push(SloBreach {
                start: at,
                end: None,
            });
        } else if !breaching && open {
            if let Some(last) = self.breaches.last_mut() {
                last.end = Some(at);
            }
        }
    }

    fn note_observation(&mut self, now: SimTime) {
        if self.first_obs.is_none() {
            self.first_obs = Some(now);
        }
        self.last_obs = self.last_obs.max(now);
    }

    /// Total breach time, extending any still-open breach to `now`.
    fn breach_time(&self, now: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for b in &self.breaches {
            let end = b.end.unwrap_or_else(|| now.max(b.start));
            total += end.saturating_duration_since(b.start);
        }
        total
    }

    fn attained(&self, now: SimTime) -> f64 {
        match &self.spec.objective {
            SloObjective::LatencyQuantile { q, .. } => self.run_hist.quantile(*q) as f64,
            SloObjective::GoodputFloor { .. } => {
                let span = now
                    .saturating_duration_since(self.first_obs.unwrap_or(SimTime::ZERO))
                    .as_secs_f64();
                if span > 0.0 {
                    self.run_ok as f64 / span
                } else {
                    0.0
                }
            }
            SloObjective::ErrorRateCeiling { .. } => {
                let total = self.run_ok + self.run_err;
                if total == 0 {
                    0.0
                } else {
                    self.run_err as f64 / total as f64
                }
            }
        }
    }

    fn verdict(&self, now: SimTime) -> SloVerdict {
        // The current partial bucket may be breaching without a boundary
        // evaluation having seen it yet; fold it into the worst burn so
        // verdicts cannot miss a tail breach.
        let tail_burn = self.window_burn();
        let worst = self.worst_burn.max(tail_burn);
        let breached = self.breaches.len() as u64
            + u64::from(tail_burn > 1.0 && self.breaches.last().is_none_or(|b| b.end.is_some()));
        SloVerdict {
            name: self.spec.name.clone(),
            objective: self.spec.objective.describe(),
            evaluations: self.evaluations,
            breaches: breached,
            breach_time: self.breach_time(now),
            worst_burn: worst,
            attained: self.attained(now),
            pass: worst <= 1.0,
        }
    }

    fn snapshot_json(&self, now: SimTime) -> String {
        let v = self.verdict(now);
        let mut obj = Obj::new()
            .str("kind", self.spec.objective.kind())
            .str("objective", &v.objective)
            .u64("window_ns", self.spec.window.as_nanos())
            .u64("bucket_ns", self.width.as_nanos())
            .u64("evaluations", v.evaluations)
            .u64("breaches", v.breaches)
            .u64("breach_ns", v.breach_time.as_nanos())
            .f64("worst_burn", v.worst_burn)
            .f64("attained", v.attained)
            .u64("pass", u64::from(v.pass));
        let burn = self
            .burn
            .iter()
            .map(|(t, b)| format!("[{},{}]", t.as_nanos(), fmt_f64(*b)));
        obj = obj.raw("burn", &array(burn));
        let breaches = self.breaches.iter().map(|b| {
            let end = match b.end {
                Some(t) => t.as_nanos().to_string(),
                None => "null".to_owned(),
            };
            format!("[{},{end}]", b.start.as_nanos())
        });
        obj.raw("breach_windows", &array(breaches)).build()
    }
}

/// Evaluates a set of named SLOs over rolling virtual-time windows.
///
/// # Examples
///
/// ```
/// use hyperprov_sim::{SimDuration, SimTime, SloMonitor, SloObjective, SloSpec};
///
/// let mut slo = SloMonitor::new(vec![SloSpec::new(
///     "commit-p95",
///     SloObjective::LatencyQuantile {
///         source: "commit".into(),
///         q: 0.95,
///         budget: SimDuration::from_millis(10),
///     },
///     SimDuration::from_secs(1),
/// )]);
/// for i in 0..100u64 {
///     let now = SimTime::from_nanos(i * 10_000_000);
///     slo.observe_latency(now, "commit", SimDuration::from_millis(50));
/// }
/// let verdicts = slo.verdicts(SimTime::from_secs(1));
/// assert_eq!(verdicts.len(), 1);
/// assert!(!verdicts[0].pass);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SloMonitor {
    slos: Vec<SloState>,
}

impl SloMonitor {
    /// Creates a monitor over the given objectives.
    ///
    /// # Panics
    ///
    /// Panics if two specs share a name.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate SLO names");
        SloMonitor {
            slos: specs.into_iter().map(SloState::new).collect(),
        }
    }

    /// A monitor with no objectives; every observation is a no-op.
    pub fn disabled() -> Self {
        SloMonitor::default()
    }

    /// True when at least one objective is installed.
    pub fn is_active(&self) -> bool {
        !self.slos.is_empty()
    }

    /// Feeds one latency observation tagged `source` (stage-span closes
    /// are routed here by the engine).
    pub fn observe_latency(&mut self, now: SimTime, source: &str, latency: SimDuration) {
        for slo in &mut self.slos {
            let SloObjective::LatencyQuantile {
                source: want,
                budget,
                ..
            } = &slo.spec.objective
            else {
                continue;
            };
            if want != source {
                continue;
            }
            let budget = *budget;
            slo.advance(now);
            slo.note_observation(now);
            if latency <= budget {
                slo.cur.within += 1;
            } else {
                slo.cur.over += 1;
            }
            slo.run_hist.record(latency.as_nanos());
        }
    }

    /// Feeds `n` events tagged `source` (goodput and error-rate
    /// objectives).
    pub fn observe_event_n(&mut self, now: SimTime, source: &str, n: u64) {
        if n == 0 {
            return;
        }
        for slo in &mut self.slos {
            let (is_ok, is_err) = match &slo.spec.objective {
                SloObjective::GoodputFloor { source: want, .. } => (want == source, false),
                SloObjective::ErrorRateCeiling {
                    ok_source,
                    err_source,
                    ..
                } => (ok_source == source, err_source == source),
                SloObjective::LatencyQuantile { .. } => (false, false),
            };
            if !is_ok && !is_err {
                continue;
            }
            slo.advance(now);
            slo.note_observation(now);
            if is_ok {
                slo.cur.ok += n;
                slo.run_ok += n;
            } else {
                slo.cur.err += n;
                slo.run_err += n;
            }
        }
    }

    /// Advances every objective's window to `now` without recording an
    /// observation (e.g. before reading verdicts mid-run).
    pub fn advance_to(&mut self, now: SimTime) {
        for slo in &mut self.slos {
            slo.advance(now);
        }
    }

    /// The burn-rate series of the named objective, oldest first.
    pub fn burn_series(&self, name: &str) -> Option<&[(SimTime, f64)]> {
        self.slos
            .iter()
            .find(|s| s.spec.name == name)
            .map(|s| s.burn.as_slice())
    }

    /// The breach windows of the named objective, oldest first.
    pub fn breach_windows(&self, name: &str) -> Option<&[SloBreach]> {
        self.slos
            .iter()
            .find(|s| s.spec.name == name)
            .map(|s| s.breaches.as_slice())
    }

    /// Per-objective verdicts as of `now`, in installation order.
    pub fn verdicts(&self, now: SimTime) -> Vec<SloVerdict> {
        self.slos.iter().map(|s| s.verdict(now)).collect()
    }

    /// Serializes every objective's verdict, burn series and breach
    /// windows to a compact JSON object keyed by objective name, in
    /// installation order. Deterministic for same-seed runs.
    pub fn snapshot_json(&self, now: SimTime) -> String {
        let mut obj = Obj::new();
        for slo in &self.slos {
            obj = obj.raw(&slo.spec.name, &slo.snapshot_json(now));
        }
        obj.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn latency_spec(q: f64, budget_ms: u64) -> SloSpec {
        SloSpec::new(
            "lat",
            SloObjective::LatencyQuantile {
                source: "op".into(),
                q,
                budget: SimDuration::from_millis(budget_ms),
            },
            SimDuration::from_secs(1),
        )
    }

    #[test]
    fn latency_within_budget_passes() {
        let mut m = SloMonitor::new(vec![latency_spec(0.95, 100)]);
        for i in 0..200u64 {
            m.observe_latency(t(i * 20), "op", SimDuration::from_millis(10));
        }
        let v = &m.verdicts(t(4_000))[0];
        assert!(v.pass, "worst burn {}", v.worst_burn);
        assert_eq!(v.breaches, 0);
        assert!(v.evaluations > 0);
        assert_eq!(v.attained, 10_000_000.0);
    }

    #[test]
    fn latency_over_budget_breaches_and_recovers() {
        let mut m = SloMonitor::new(vec![latency_spec(0.5, 100)]);
        // 1s good, 2s bad, 2s good again (window 1s, 4 buckets).
        for i in 0..200u64 {
            let lat = if (50..120).contains(&i) { 500 } else { 10 };
            m.observe_latency(t(i * 25), "op", SimDuration::from_millis(lat));
        }
        let v = &m.verdicts(t(5_000))[0];
        assert!(!v.pass);
        assert!(v.breaches >= 1);
        assert!(v.breach_time > SimDuration::ZERO);
        let breaches = m.breach_windows("lat").unwrap();
        assert!(breaches[0].end.is_some(), "burn must recover");
        // The burn series bounds the breach window.
        let burn = m.burn_series("lat").unwrap();
        assert!(burn.iter().any(|&(_, b)| b > 1.0));
        assert!(burn.last().unwrap().1 <= 1.0);
    }

    #[test]
    fn goodput_floor_breaches_when_rate_drops() {
        let spec = SloSpec::new(
            "tput",
            SloObjective::GoodputFloor {
                source: "ok".into(),
                floor_per_sec: 50.0,
            },
            SimDuration::from_secs(1),
        );
        let mut m = SloMonitor::new(vec![spec]);
        // 100/s for 2s, silence for 2s, 100/s for 2s.
        for i in 0..200u64 {
            m.observe_event_n(t(i * 10), "ok", 1);
        }
        for i in 400..600u64 {
            m.observe_event_n(t(i * 10), "ok", 1);
        }
        m.advance_to(t(6_000));
        let v = &m.verdicts(t(6_000))[0];
        assert!(!v.pass);
        assert!(v.breaches >= 1);
        let burn = m.burn_series("tput").unwrap();
        assert!(burn.iter().any(|&(_, b)| b >= MAX_BURN), "empty window");
        assert!(burn.last().unwrap().1 <= 1.0, "recovered by the end");
    }

    #[test]
    fn error_ceiling_tracks_fraction() {
        let spec = SloSpec::new(
            "err",
            SloObjective::ErrorRateCeiling {
                ok_source: "ok".into(),
                err_source: "bad".into(),
                ceiling: 0.1,
            },
            SimDuration::from_secs(1),
        );
        let mut m = SloMonitor::new(vec![spec]);
        for i in 0..100u64 {
            m.observe_event_n(t(i * 10), "ok", 1);
            if i % 2 == 0 {
                m.observe_event_n(t(i * 10), "bad", 1);
            }
        }
        let v = &m.verdicts(t(1_000))[0];
        assert!(!v.pass);
        assert!((v.attained - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_monitor_is_inert_and_empty() {
        let mut m = SloMonitor::disabled();
        assert!(!m.is_active());
        m.observe_latency(t(1), "op", SimDuration::from_millis(1));
        m.observe_event_n(t(1), "ok", 1);
        assert_eq!(m.snapshot_json(t(10)), "{}");
        assert!(m.verdicts(t(10)).is_empty());
    }

    #[test]
    fn snapshot_json_is_deterministic_and_complete() {
        let build = || {
            let mut m = SloMonitor::new(vec![latency_spec(0.95, 100)]);
            for i in 0..100u64 {
                m.observe_latency(t(i * 30), "op", SimDuration::from_millis(200));
            }
            m.snapshot_json(t(3_000))
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"lat\""));
        assert!(a.contains("\"kind\":\"latency_quantile\""));
        assert!(a.contains("\"burn\":[["));
        assert!(a.contains("\"pass\":0"));
        assert!(a.contains("\"breach_windows\""));
    }

    #[test]
    fn unrelated_sources_are_ignored() {
        let mut m = SloMonitor::new(vec![latency_spec(0.95, 100)]);
        m.observe_latency(t(1), "other", SimDuration::from_secs(10));
        m.observe_event_n(t(1), "op", 1);
        let v = &m.verdicts(t(100))[0];
        assert_eq!(v.attained, 0.0);
        assert!(v.pass);
    }

    #[test]
    fn long_idle_gap_does_not_emit_unbounded_evaluations() {
        let mut m = SloMonitor::new(vec![latency_spec(0.95, 100)]);
        m.observe_latency(t(0), "op", SimDuration::from_millis(1));
        // Hours of idle virtual time later, another observation.
        m.observe_latency(
            SimTime::from_secs(10_000),
            "op",
            SimDuration::from_millis(1),
        );
        let burn = m.burn_series("lat").unwrap();
        assert!(
            burn.len() < 16,
            "idle gap produced {} evaluations",
            burn.len()
        );
    }

    #[test]
    fn no_evaluations_before_the_first_observation() {
        let spec = SloSpec::new(
            "tput",
            SloObjective::GoodputFloor {
                source: "ok".into(),
                floor_per_sec: 50.0,
            },
            SimDuration::from_secs(1),
        );
        let mut m = SloMonitor::new(vec![spec]);
        // A long warm-up before the first event must not open a breach:
        // the SLO clock starts at the first observation.
        m.advance_to(t(10_000));
        for i in 40_000..41_000u64 {
            m.observe_event_n(t(i), "ok", 1);
        }
        let burn = m.burn_series("tput").unwrap();
        assert!(!burn.is_empty());
        assert!(burn.iter().all(|&(at, _)| at >= t(40_000)));
        let v = &m.verdicts(t(41_000))[0];
        assert_eq!(v.breaches, 0, "warm-up must not count as a breach");
    }

    #[test]
    #[should_panic(expected = "duplicate SLO names")]
    fn duplicate_names_panic() {
        let _ = SloMonitor::new(vec![latency_spec(0.9, 1), latency_spec(0.9, 2)]);
    }
}

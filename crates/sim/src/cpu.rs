//! Per-node CPU model: a multi-lane execution resource with a relative
//! speed factor and busy-interval logs for utilisation and energy queries.
//!
//! Each actor owns one [`CpuResource`]. Work is expressed as a *reference
//! cost* (the virtual time the work would take on a 1.0-speed reference
//! core); a node's actual service time is `cost / speed`, computed in
//! exact integer arithmetic so determinism never depends on float
//! rounding. A CPU has one or more *lanes* (cores). [`CpuResource::execute`]
//! keeps the classic serial semantics — work queues FIFO behind everything
//! previously scheduled — modelling the single-threaded chaincode/commit
//! path that dominates the paper's measurements.
//! [`CpuResource::execute_parallel`] schedules a batch of independent work
//! items across the lanes (earliest-free-lane assignment, deterministic
//! tie-break by lane index) and returns the batch makespan, modelling
//! FastFabric-style parallel validation.
//!
//! Beside its lanes every CPU has one or more *read lanes*
//! ([`CpuResource::with_read_lanes`]): [`CpuResource::execute_read`]
//! runs on the earliest-free one, modelling a Fabric peer answering
//! queries on the cores its committer leaves free — the commit lock
//! blocks a query only while state is written. Serial and parallel work
//! never see the read lanes, nor read work theirs. Their busy time counts
//! in [`busy_between`](CpuResource::busy_between), so the power meter
//! charges it; a CPU that never ran read work logs and meters exactly as
//! one without them.

use crate::time::{SimDuration, SimTime};

/// One execution lane (core): when it frees up and its busy-interval log.
#[derive(Debug, Clone, Default)]
struct Lane {
    free_at: SimTime,
    /// Non-overlapping busy intervals in increasing order.
    segments: Vec<(SimTime, SimTime)>,
}

impl Lane {
    /// Runs work of `service` time from `start`; returns its end.
    fn run(&mut self, start: SimTime, service: SimDuration) -> SimTime {
        let end = start + service;
        self.free_at = end;
        if !service.is_zero() {
            self.push_segment(start, end);
        }
        end
    }

    fn push_segment(&mut self, start: SimTime, end: SimTime) {
        // Coalesce with the previous segment when contiguous.
        if let Some(last) = self.segments.last_mut() {
            if last.1 == start {
                last.1 = end;
                return;
            }
        }
        self.segments.push((start, end));
    }

    fn busy_between(&self, from: SimTime, to: SimTime) -> SimDuration {
        // First segment that may overlap: last with start < to, walking from
        // a binary-search lower bound on segments ending after `from`.
        let idx = self.segments.partition_point(|&(_, end)| end <= from);
        let mut acc = SimDuration::ZERO;
        for &(s, e) in &self.segments[idx..] {
            if s >= to {
                break;
            }
            acc += e.min(to).saturating_duration_since(s.max(from));
        }
        acc
    }
}

/// A multi-lane CPU with a relative speed factor.
#[derive(Debug, Clone)]
pub struct CpuResource {
    speed: f64,
    lanes: Vec<Lane>,
    /// The read lanes, beside `lanes`.
    reads: Vec<Lane>,
    total_busy: SimDuration,
}

impl CpuResource {
    /// Creates a single-lane CPU with the given relative speed
    /// (1.0 = reference core).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive.
    pub fn new(speed: f64) -> Self {
        CpuResource::with_lanes(speed, 1)
    }

    /// Creates a CPU with `lanes` parallel execution lanes (cores).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive, or if `lanes` is zero.
    pub fn with_lanes(speed: f64, lanes: usize) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "CPU speed must be positive, got {speed}"
        );
        assert!(lanes > 0, "CPU must have at least one lane");
        CpuResource {
            speed,
            lanes: vec![Lane::default(); lanes],
            reads: vec![Lane::default()],
            total_busy: SimDuration::ZERO,
        }
    }

    /// This CPU with `reads` read lanes (one by default).
    ///
    /// # Panics
    ///
    /// Panics if `reads` is zero.
    pub fn with_read_lanes(mut self, reads: usize) -> Self {
        assert!(reads > 0, "CPU must have at least one read lane");
        self.reads = vec![Lane::default(); reads];
        self
    }

    /// Service time for `reference_cost` on this CPU: `cost / speed`,
    /// rounded half-up, computed in integer arithmetic (the f64 speed is
    /// decomposed exactly as `m * 2^e`, so no precision is lost even for
    /// very large costs).
    fn service_time(&self, reference_cost: SimDuration) -> SimDuration {
        if self.speed == 1.0 {
            return reference_cost;
        }
        let cost = u128::from(reference_cost.as_nanos());
        let nanos = divide_by_speed(cost, self.speed).unwrap_or_else(|| {
            // Degenerate speeds (subnormals, astronomically large values)
            // that the exact path cannot represent fall back to floats.
            (reference_cost.as_nanos() as f64 / self.speed).round() as u128
        });
        SimDuration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    /// Schedules `reference_cost` worth of work submitted at `now`,
    /// serialising behind *all* previously scheduled work (every lane).
    ///
    /// Returns `(start, completion)`: the work starts when the whole CPU
    /// frees up and runs for `reference_cost / speed` on one lane. With a
    /// single lane this is exactly the classic FIFO queue.
    pub fn execute(&mut self, now: SimTime, reference_cost: SimDuration) -> (SimTime, SimTime) {
        let service = self.service_time(reference_cost);
        self.total_busy += service;
        // All lanes are free when the busiest is; occupy that one (the
        // lowest on a tie) so the others keep their head start for
        // parallel work.
        let lane = self.lanes.iter_mut().rev().max_by_key(|l| l.free_at);
        let lane = lane.expect("a CPU has a lane");
        let start = now.max(lane.free_at);
        (start, lane.run(start, service))
    }

    /// Schedules a batch of independent work items submitted at `now`
    /// across the lanes: each item (in slice order) is assigned to the
    /// earliest-free lane, ties broken by the lowest lane index, and runs
    /// for `cost / speed`. Returns the batch makespan — the instant the
    /// last item completes (`now` for an empty batch).
    ///
    /// Unlike [`execute`](Self::execute), items only wait for their own
    /// lane, so a batch overlaps serial work still running on other lanes.
    pub fn execute_parallel(&mut self, now: SimTime, costs: &[SimDuration]) -> SimTime {
        let mut makespan = now;
        for &cost in costs {
            let service = self.service_time(cost);
            self.total_busy += service;
            makespan = makespan.max(run_earliest(&mut self.lanes, now, service).1);
        }
        makespan
    }

    /// Schedules `reference_cost` worth of read work submitted at `now`
    /// on the earliest-free read lane (ties broken by the lowest index),
    /// behind earlier read work only. Returns `(start, completion)`.
    pub fn execute_read(
        &mut self,
        now: SimTime,
        reference_cost: SimDuration,
    ) -> (SimTime, SimTime) {
        let service = self.service_time(reference_cost);
        self.total_busy += service;
        run_earliest(&mut self.reads, now, service)
    }

    /// The instant the earliest-free read lane frees: read work
    /// submitted now starts then, or now if that is later.
    pub fn read_busy_until(&self) -> SimTime {
        self.reads
            .iter()
            .map(|l| l.free_at)
            .min()
            .unwrap_or_default()
    }

    /// The instant after which every lane but the read lanes is idle.
    pub fn busy_until(&self) -> SimTime {
        self.lanes
            .iter()
            .map(|l| l.free_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Number of lanes but the read lanes still busy at `at` (free
    /// strictly after it).
    pub fn lanes_busy_at(&self, at: SimTime) -> usize {
        self.lanes.iter().filter(|l| l.free_at > at).count()
    }

    /// Total busy time accumulated so far, summed over lanes and read
    /// lanes.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Busy time that falls within the window `[from, to)`, summed over
    /// lanes and read lanes (a window where two lanes run the whole time
    /// counts double).
    pub fn busy_between(&self, from: SimTime, to: SimTime) -> SimDuration {
        if to <= from {
            return SimDuration::ZERO;
        }
        let mut acc = SimDuration::ZERO;
        for lane in self.lanes.iter().chain(&self.reads) {
            acc += lane.busy_between(from, to);
        }
        acc
    }

    /// Busy time in the window `[from, to)` over the window times the
    /// lanes, read lanes not counted: all lanes saturated = 1.0. Read
    /// work counts against the same capacity, so beside busy lanes the
    /// value can exceed 1 (the power model clamps it).
    pub fn utilization(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let window = to - from;
        self.busy_between(from, to).as_secs_f64() / (window.as_secs_f64() * self.lanes.len() as f64)
    }
}

/// Runs `service` from `now` on the lane that frees first (the lowest on
/// a tie); returns `(start, completion)`.
fn run_earliest(lanes: &mut [Lane], now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
    let lane = lanes.iter_mut().min_by_key(|l| l.free_at);
    let lane = lane.expect("a CPU has a lane");
    let start = now.max(lane.free_at);
    (start, lane.run(start, service))
}

impl Default for CpuResource {
    fn default() -> Self {
        CpuResource::new(1.0)
    }
}

/// `round(cost / speed)` (half-up) in exact integer arithmetic, or `None`
/// when the decomposition would overflow `u128` (degenerate speeds).
///
/// The finite positive `speed` is decomposed exactly as `m * 2^e` with an
/// integer mantissa `m`, so the quotient is the integer division
/// `cost * 2^-e / m` — no float rounding anywhere.
fn divide_by_speed(cost: u128, speed: f64) -> Option<u128> {
    if cost == 0 {
        return Some(0);
    }
    let bits = speed.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let frac = u128::from(bits & ((1u64 << 52) - 1));
    let (m, e) = if exp == 0 {
        (frac, -1074i64) // subnormal
    } else {
        (frac + (1u128 << 52), exp - 1075)
    };
    if m == 0 {
        return None;
    }
    // round(n / d) half-up = (2n + d) / (2d); shift whichever side 2^|e|
    // scales, keeping two headroom bits for the doubling and the addition.
    if e <= 0 {
        let shift = u32::try_from(-e).ok()?;
        if shift + 2 > cost.leading_zeros() {
            return None;
        }
        let n = cost << shift;
        Some((2 * n + m) / (2 * m))
    } else {
        let shift = u32::try_from(e).ok()?;
        if shift + 2 > m.leading_zeros() {
            return None;
        }
        let d = m << shift;
        Some((2 * cost + d) / (2 * d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn d(secs: u64) -> SimDuration {
        SimDuration::from_secs(secs)
    }

    #[test]
    fn idle_cpu_starts_immediately() {
        let mut cpu = CpuResource::new(1.0);
        let (start, end) = cpu.execute(t(5), d(2));
        assert_eq!(start, t(5));
        assert_eq!(end, t(7));
    }

    #[test]
    fn tasks_queue_fifo() {
        let mut cpu = CpuResource::new(1.0);
        cpu.execute(t(0), d(3));
        let (start, end) = cpu.execute(t(1), d(1));
        assert_eq!(start, t(3));
        assert_eq!(end, t(4));
    }

    #[test]
    fn speed_scales_service_time() {
        let mut fast = CpuResource::new(2.0);
        let (_, end) = fast.execute(t(0), d(4));
        assert_eq!(end, t(2));
        let mut slow = CpuResource::new(0.5);
        let (_, end) = slow.execute(t(0), d(4));
        assert_eq!(end, t(8));
    }

    #[test]
    fn integer_division_is_exact_for_large_costs() {
        // 0.13 is not a dyadic rational; a float division of a large cost
        // would drift. The exact path must agree with u128 arithmetic on
        // round(cost / speed) computed from the speed's own decomposition.
        let mut cpu = CpuResource::new(0.13);
        let cost = SimDuration::from_nanos(3_600_000_000_007);
        let (_, end) = cpu.execute(SimTime::ZERO, cost);
        let float = (cost.as_nanos() as f64 / 0.13).round() as u64;
        let exact = end.as_nanos();
        // The two agree to within one nanosecond even at hour scale; the
        // exact path is authoritative.
        assert!(exact.abs_diff(float) <= 1, "exact={exact} float={float}");
        // Determinism: same inputs, same result, bit-for-bit.
        let mut cpu2 = CpuResource::new(0.13);
        let (_, end2) = cpu2.execute(SimTime::ZERO, cost);
        assert_eq!(end, end2);
    }

    #[test]
    fn integer_division_rounds_half_up() {
        // speed 2.0 is exact: 3 ns / 2.0 = 1.5 → rounds up to 2.
        let mut cpu = CpuResource::new(2.0);
        let (_, end) = cpu.execute(SimTime::ZERO, SimDuration::from_nanos(3));
        assert_eq!(end.as_nanos(), 2);
    }

    #[test]
    fn busy_between_partial_overlaps() {
        let mut cpu = CpuResource::new(1.0);
        cpu.execute(t(1), d(2)); // busy [1, 3)
        cpu.execute(t(5), d(2)); // busy [5, 7)
        assert_eq!(cpu.busy_between(t(0), t(10)), d(4));
        assert_eq!(cpu.busy_between(t(2), t(6)), d(2)); // [2,3) + [5,6)
        assert_eq!(cpu.busy_between(t(3), t(5)), SimDuration::ZERO);
        assert_eq!(cpu.busy_between(t(6), t(6)), SimDuration::ZERO);
        assert_eq!(cpu.busy_between(t(9), t(2)), SimDuration::ZERO);
    }

    #[test]
    fn contiguous_segments_coalesce() {
        let mut cpu = CpuResource::new(1.0);
        cpu.execute(t(0), d(1));
        cpu.execute(t(0), d(1)); // queues, contiguous
        assert_eq!(cpu.lanes[0].segments.len(), 1);
        assert_eq!(cpu.lanes[0].segments[0], (t(0), t(2)));
        assert_eq!(cpu.total_busy(), d(2));
    }

    #[test]
    fn utilization_fraction() {
        let mut cpu = CpuResource::new(1.0);
        cpu.execute(t(0), d(5));
        assert!((cpu.utilization(t(0), t(10)) - 0.5).abs() < 1e-9);
        assert!((cpu.utilization(t(0), t(5)) - 1.0).abs() < 1e-9);
        assert_eq!(cpu.utilization(t(5), t(5)), 0.0);
    }

    #[test]
    fn zero_cost_work_is_free() {
        let mut cpu = CpuResource::new(1.0);
        let (s, e) = cpu.execute(t(3), SimDuration::ZERO);
        assert_eq!(s, e);
        assert_eq!(cpu.total_busy(), SimDuration::ZERO);
        assert!(cpu.lanes[0].segments.is_empty());
    }

    #[test]
    #[should_panic(expected = "CPU speed")]
    fn invalid_speed_panics() {
        let _ = CpuResource::new(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = CpuResource::with_lanes(1.0, 0);
    }

    #[test]
    fn parallel_batch_spreads_across_lanes() {
        let mut cpu = CpuResource::with_lanes(1.0, 2);
        // Three 2s items on 2 lanes: lanes finish at 2 and 2, third item
        // queues on lane 0 → makespan 4.
        let makespan = cpu.execute_parallel(t(0), &[d(2), d(2), d(2)]);
        assert_eq!(makespan, t(4));
        assert_eq!(cpu.total_busy(), d(6));
        // Lane 0 ran items 1 and 3 back-to-back; lane 1 ran item 2.
        assert_eq!(cpu.lanes[0].segments, vec![(t(0), t(4))]);
        assert_eq!(cpu.lanes[1].segments, vec![(t(0), t(2))]);
    }

    #[test]
    fn parallel_lane_assignment_is_deterministic() {
        // Equal free times tie-break to the lowest lane index, so unequal
        // costs land on predictable lanes.
        let mut cpu = CpuResource::with_lanes(1.0, 3);
        cpu.execute_parallel(t(0), &[d(3), d(1), d(2)]);
        assert_eq!(cpu.lanes[0].free_at, t(3));
        assert_eq!(cpu.lanes[1].free_at, t(1));
        assert_eq!(cpu.lanes[2].free_at, t(2));
        // Next batch: earliest-free is lane 1 (free at 1); after the first
        // item it ties with lane 2 at t=2 and the tie-break picks the
        // lower index — lane 1 again.
        let makespan = cpu.execute_parallel(t(0), &[d(1), d(1)]);
        assert_eq!(cpu.lanes[1].free_at, t(3));
        assert_eq!(cpu.lanes[2].free_at, t(2));
        assert_eq!(makespan, t(3));
    }

    #[test]
    fn parallel_with_one_lane_matches_serial() {
        let costs = [d(2), d(1), d(3)];
        let mut serial = CpuResource::new(1.0);
        let mut last = SimTime::ZERO;
        for &c in &costs {
            let (_, end) = serial.execute(t(1), c);
            last = end;
        }
        let mut par = CpuResource::with_lanes(1.0, 1);
        let makespan = par.execute_parallel(t(1), &costs);
        assert_eq!(makespan, last);
        assert_eq!(par.total_busy(), serial.total_busy());
        assert_eq!(
            par.busy_between(t(0), t(10)),
            serial.busy_between(t(0), t(10))
        );
    }

    #[test]
    fn empty_parallel_batch_is_free() {
        let mut cpu = CpuResource::with_lanes(1.0, 2);
        assert_eq!(cpu.execute_parallel(t(7), &[]), t(7));
        assert_eq!(cpu.total_busy(), SimDuration::ZERO);
    }

    #[test]
    fn busy_between_sums_across_lanes() {
        let mut cpu = CpuResource::with_lanes(1.0, 2);
        cpu.execute_parallel(t(0), &[d(4), d(2)]);
        // Lane 0 busy [0,4), lane 1 busy [0,2): window [0,4) holds 6s.
        assert_eq!(cpu.busy_between(t(0), t(4)), d(6));
        assert_eq!(cpu.busy_between(t(2), t(4)), d(2));
        // Utilisation averages over lanes: 6s of 8 lane-seconds.
        assert!((cpu.utilization(t(0), t(4)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn serial_execute_waits_for_all_lanes() {
        let mut cpu = CpuResource::with_lanes(1.0, 2);
        cpu.execute_parallel(t(0), &[d(1), d(5)]);
        // Serial work queues behind the busiest lane (5s), not the idle one.
        let (start, end) = cpu.execute(t(0), d(1));
        assert_eq!(start, t(5));
        assert_eq!(end, t(6));
        // But a later parallel batch may still use the idle lane early.
        let mut cpu2 = CpuResource::with_lanes(1.0, 2);
        cpu2.execute_parallel(t(0), &[d(1), d(5)]);
        cpu2.execute(t(0), d(1)); // occupies lane 1 [5,6)
        let makespan = cpu2.execute_parallel(t(2), &[d(1)]);
        assert_eq!(makespan, t(3)); // lane 0 was free at 1
    }

    #[test]
    fn a_read_job_behind_a_long_serial_job_takes_its_own_service_time() {
        let mut cpu = CpuResource::new(0.5);
        cpu.execute(t(0), d(10)); // the serial lane is busy until 20
        assert_eq!(cpu.execute_read(t(1), d(2)), (t(1), t(5)));
        // FIFO behind earlier read work only.
        assert_eq!(cpu.execute_read(t(2), d(1)), (t(5), t(7)));
        assert_eq!(cpu.read_busy_until(), t(7));
        assert_eq!(cpu.busy_until(), t(20));
    }

    #[test]
    fn read_jobs_delay_no_serial_or_parallel_work() {
        let schedule = |cpu: &mut CpuResource| {
            let serial = cpu.execute(t(1), d(3));
            let batch = cpu.execute_parallel(t(2), &[d(2), d(5)]);
            (serial, batch, cpu.execute(t(2), d(1)))
        };
        let mut plain = CpuResource::with_lanes(1.0, 2);
        let expected = schedule(&mut plain);
        let mut reading = CpuResource::with_lanes(1.0, 2);
        reading.execute_read(t(0), d(4));
        reading.execute_read(t(1), d(4));
        assert_eq!(schedule(&mut reading), expected);
        assert_eq!(reading.lanes_busy_at(t(8)), plain.lanes_busy_at(t(8)));
        for (a, b) in reading.lanes.iter().zip(&plain.lanes) {
            assert_eq!(a.segments, b.segments);
        }
    }

    #[test]
    fn busy_between_counts_the_read_lane() {
        let mut cpu = CpuResource::new(1.0);
        cpu.execute(t(0), d(4)); // [0, 4)
        cpu.execute_read(t(1), d(2)); // [1, 3) beside it
        assert_eq!(cpu.busy_between(t(0), t(4)), d(6));
        assert_eq!(cpu.busy_between(t(2), t(3)), d(2));
        assert_eq!(cpu.total_busy(), d(6));
        // Read work counts against the serial lane's capacity.
        assert!((cpu.utilization(t(0), t(4)) - 1.5).abs() < 1e-9);
        assert!((cpu.utilization(t(0), t(10)) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn a_cpu_without_read_jobs_logs_and_meters_as_its_lanes_alone() {
        for reads in [1, 3] {
            let mut cpu = CpuResource::with_lanes(0.13, 3).with_read_lanes(reads);
            cpu.execute(t(0), d(3));
            cpu.execute_parallel(t(1), &[d(2), d(7), d(1)]);
            cpu.execute(t(9), d(2));
            assert!(cpu.reads.iter().all(|r| r.segments.is_empty()));
            let lanes: Vec<_> = cpu.lanes.iter().map(|l| l.segments.clone()).collect();
            let mut read_elsewhere = cpu.clone();
            read_elsewhere.execute_read(t(200), d(1));
            read_elsewhere.execute_read(t(200), d(1));
            for (lane, segments) in read_elsewhere.lanes.iter().zip(&lanes) {
                assert_eq!(&lane.segments, segments);
            }
            for (from, to) in [(t(0), t(5)), (t(3), t(40)), (t(0), t(200))] {
                let busy = lanes.iter().fold(SimDuration::ZERO, |acc, segments| {
                    let lane = Lane {
                        free_at: to,
                        segments: segments.clone(),
                    };
                    acc + lane.busy_between(from, to)
                });
                assert_eq!(cpu.busy_between(from, to), busy);
                let window = (to - from).as_secs_f64() * 3.0;
                let util = busy.as_secs_f64() / window;
                assert_eq!(cpu.utilization(from, to).to_bits(), util.to_bits());
                assert_eq!(read_elsewhere.busy_between(from, to), busy);
            }
        }
    }

    #[test]
    fn reads_that_arrive_together_start_at_once_on_two_read_lanes() {
        let mut cpu = CpuResource::new(1.0).with_read_lanes(2);
        cpu.execute(t(0), d(10)); // the serial lane is busy until 10
        assert_eq!(cpu.execute_read(t(1), d(3)), (t(1), t(4)));
        assert_eq!(cpu.execute_read(t(1), d(2)), (t(1), t(3)));
        // A third waits for the earliest-free read lane: the second's.
        assert_eq!(cpu.read_busy_until(), t(3));
        assert_eq!(cpu.execute_read(t(1), d(2)), (t(3), t(5)));
        assert_eq!(cpu.reads[0].segments, vec![(t(1), t(4))]);
        assert_eq!(cpu.reads[1].segments, vec![(t(1), t(5))]);
        assert_eq!(cpu.busy_until(), t(10));
    }

    #[test]
    fn read_busy_until_and_busy_between_span_every_read_lane() {
        let mut cpu = CpuResource::new(1.0).with_read_lanes(3);
        assert_eq!(cpu.read_busy_until(), t(0));
        cpu.execute_read(t(0), d(4)); // read lane 0: [0, 4)
        cpu.execute_read(t(0), d(2)); // read lane 1: [0, 2)
        assert_eq!(cpu.read_busy_until(), t(0)); // read lane 2 is idle
        cpu.execute_read(t(1), d(5)); // read lane 2: [1, 6)
        assert_eq!(cpu.read_busy_until(), t(2));
        cpu.execute(t(0), d(1)); // the serial lane: [0, 1)
        assert_eq!(cpu.busy_between(t(0), t(6)), d(12));
        assert_eq!(cpu.busy_between(t(3), t(5)), d(3));
        assert_eq!(cpu.total_busy(), d(12));
        // Utilisation divides by the serial lane alone.
        assert!((cpu.utilization(t(0), t(6)) - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one read lane")]
    fn zero_read_lanes_panics() {
        let _ = CpuResource::new(1.0).with_read_lanes(0);
    }

    #[test]
    fn lanes_busy_at_counts_running_lanes() {
        let mut cpu = CpuResource::with_lanes(1.0, 3);
        cpu.execute_parallel(t(0), &[d(4), d(2)]);
        assert_eq!(cpu.lanes_busy_at(t(0)), 2);
        assert_eq!(cpu.lanes_busy_at(t(3)), 1);
        assert_eq!(cpu.lanes_busy_at(t(4)), 0);
    }
}

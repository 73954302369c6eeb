//! Property-based tests of the simulation kernel: histogram accuracy,
//! CPU busy accounting and network serialisation invariants.

use hyperprov_sim::{
    CpuResource, Delivery, DetRng, Histogram, LinkSpec, Network, SimDuration, SimTime,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn histogram_quantiles_bounded_by_extremes(
        samples in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let est = h.quantile(q);
        prop_assert!(est >= min && est <= max, "q={q} est={est} range=[{min},{max}]");
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
    }

    #[test]
    fn histogram_median_close_to_exact(
        samples in proptest::collection::vec(1u64..1_000_000, 10..300),
    ) {
        let mut h = Histogram::new();
        let mut sorted = samples.clone();
        for &s in &samples {
            h.record(s);
        }
        sorted.sort_unstable();
        let exact = sorted[(sorted.len() - 1) / 2] as f64;
        let est = h.quantile(0.5) as f64;
        // Log-linear buckets guarantee < 1/32 relative error per sample;
        // allow a generous 10% band on the median estimate.
        prop_assert!((est - exact).abs() <= exact * 0.1 + 1.0, "est={est} exact={exact}");
    }

    #[test]
    fn histogram_merge_equals_union(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &x in &a { ha.record(x); hu.record(x); }
        for &x in &b { hb.record(x); hu.record(x); }
        ha.merge(&hb);
        prop_assert_eq!(ha, hu);
    }

    #[test]
    fn cpu_busy_partitions_sum_to_total(
        jobs in proptest::collection::vec((0u64..1000, 1u64..500, any::<bool>()), 1..40),
    ) {
        let mut cpu = CpuResource::new(1.0);
        let mut submissions: Vec<(u64, u64, bool)> = jobs;
        submissions.sort_unstable();
        // Serial and read work each complete in FIFO order on their lane.
        let mut last_end = [SimTime::ZERO; 2];
        for &(at, cost, read) in &submissions {
            let (at, cost) = (SimTime::from_nanos(at), SimDuration::from_nanos(cost));
            let (_, end) = match read {
                true => cpu.execute_read(at, cost),
                false => cpu.execute(at, cost),
            };
            prop_assert!(end >= last_end[usize::from(read)], "FIFO completion order");
            last_end[usize::from(read)] = end;
        }
        let total: u64 = submissions.iter().map(|&(_, c, _)| c).sum();
        prop_assert_eq!(cpu.total_busy(), SimDuration::from_nanos(total));
        // Partition [0, horizon) into chunks; busy time is additive.
        let horizon = last_end[0].max(last_end[1]) + SimDuration::from_nanos(100);
        let mid = SimTime::from_nanos(horizon.as_nanos() / 2);
        let part = cpu.busy_between(SimTime::ZERO, mid) + cpu.busy_between(mid, horizon);
        prop_assert_eq!(part, cpu.busy_between(SimTime::ZERO, horizon));
        prop_assert_eq!(cpu.busy_between(SimTime::ZERO, horizon), SimDuration::from_nanos(total));
    }

    #[test]
    fn network_deliveries_fifo_per_link(
        sizes in proptest::collection::vec(1u64..100_000, 1..30),
    ) {
        let mut net = Network::new(LinkSpec {
            latency: SimDuration::from_micros(100),
            bandwidth_bps: 10_000_000,
            jitter_frac: 0.0,
        });
        let mut rng = DetRng::new(1);
        let a = hyperprov_sim::ActorId(0);
        let b = hyperprov_sim::ActorId(1);
        let mut last = SimTime::ZERO;
        for &size in &sizes {
            match net.offer(SimTime::ZERO, a, b, size, &mut rng) {
                Delivery::At(t) => {
                    prop_assert!(t >= last, "per-link FIFO violated");
                    last = t;
                }
                Delivery::Dropped => prop_assert!(false, "no loss configured"),
            }
        }
        prop_assert_eq!(net.delivered(), sizes.len() as u64);
        prop_assert_eq!(net.bytes_sent(), sizes.iter().sum::<u64>());
    }

    #[test]
    fn rng_forks_are_stable(seed in any::<u64>(), label in "[a-z]{1,12}") {
        use rand::RngCore;
        let root = DetRng::new(seed);
        let mut f1 = root.fork(&label);
        let mut f2 = root.fork(&label);
        for _ in 0..16 {
            prop_assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn duration_arithmetic_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let da = SimDuration::from_nanos(a);
        let db = SimDuration::from_nanos(b);
        prop_assert_eq!((da + db).as_nanos(), a + b);
        let t = SimTime::ZERO + da;
        prop_assert_eq!((t + db) - t, db);
        prop_assert_eq!(da.saturating_add(db), da + db);
    }
}

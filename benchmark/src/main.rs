//! The repo's benchmark: five workloads on two clocks, with per-layer
//! attribution from outside the product. See README.md.
//!
//! ```text
//! hyperprov-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                     [--out DIR] [--report FILE]
//! ```
//!
//! Untraced (`--trace 0`): rounds of the workload, each a fresh deployment
//! running the same fixed operations, until the measured phases add up to
//! `S` host seconds; prints the end-to-end metrics (host time per operation
//! is the fastest round's, set-up time the median round's). Traced (`--trace 1`):
//! two untraced rounds, then one with the kernel profiler and the counting
//! allocator on, then the layer replay; prints the per-layer metrics and
//! writes `DIR/<workload>.trace.json`.
//!
//! The last line of standard output is the result as one JSON object.

mod alloc;
mod driver;
mod replay;
mod round;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use hyperprov_sim::chrome_trace_json;
use hyperprov_sim::json::{array, Obj};

use replay::Sink;
use round::Round;
use spans::Spans;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    report: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        report: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value}: not a whole number"))?;
            }
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0.0,
            "--out" => args.out = PathBuf::from(value),
            "--report" => args.report = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// What must be equal in every round of one seed: the model is
/// bit-deterministic, so any difference is a defect.
fn model_of(round: &Round) -> (String, [u64; 4]) {
    let t = &round.timeline;
    (t.digest.clone(), [t.ok, t.errors, t.wrong, t.hung])
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Untraced run: the end-to-end metrics.
fn end_to_end(args: &Args, spans: &mut Spans) -> Result<(Sink, Round), String> {
    let mut first: Option<Round> = None;
    let mut host_us_per_op = Vec::new();
    let mut setup_s = Vec::new();
    let mut measured_s = 0.0;
    // At least two rounds, so that the model's determinism is checked on
    // every run.
    while measured_s < args.seconds || setup_s.len() < 2 {
        // The network goes before the next round builds its own, so one
        // deployment's memory is the process's peak.
        let (round, _) = round::run(&args.workload, args.seed, false, spans)?;
        measured_s += round.timeline.wall_s;
        host_us_per_op.push(round.timeline.wall_s * 1e6 / round.timeline.ok.max(1) as f64);
        setup_s.push(round.setup_s());
        match &first {
            Some(first) if model_of(first) != model_of(&round) => {
                return Err(format!(
                    "round {} differs from round 1: model_digest {} vs {}",
                    setup_s.len(),
                    round.timeline.digest,
                    first.timeline.digest
                ));
            }
            Some(_) => {}
            None => first = Some(round),
        }
    }
    let first = first.expect("at least two rounds ran");
    let t = &first.timeline;
    let mut out = Sink::default();
    out.put("op_p50_ms", "ms", t.latency_ms(0.50));
    out.put("op_p99_ms", "ms", t.latency_ms(0.99));
    out.put("goodput_ops_s", "ops/s", t.goodput_ops_s());
    // Every round does the same work, and what disturbs a shared machine
    // only ever slows a round down: the fastest round is the least
    // disturbed one.
    host_us_per_op.sort_by(f64::total_cmp);
    out.put("host_us_per_op", "us", host_us_per_op[0]);
    out.put("peak_rss_mib", "MiB", first.peak_rss_mib);
    out.put("setup_s", "s", median(&mut setup_s));
    println!("rounds count {}", host_us_per_op.len());
    println!("host_us_per_op.rounds us {host_us_per_op:?}");
    Ok((out, first))
}

/// Traced run: the per-layer metrics and the trace file.
fn per_layer(args: &Args, spans: &mut Spans) -> Result<(Sink, Round), String> {
    // Two untraced rounds first. The faster one is the base of the tracing
    // overhead; the first one is the only round of the process whose
    // resident set grows from nothing, so memory per key is read there.
    let mut untraced = || {
        let (round, _) = spans.time("round.untraced", |spans| {
            round::run(&args.workload, args.seed, false, spans)
        });
        round.map(|(round, _)| round)
    };
    let cold = untraced()?;
    let warm = untraced()?;
    let untraced = replay::Untraced {
        wall_s: cold.timeline.wall_s.min(warm.timeline.wall_s),
        cold_rss_growth_kib: cold.probes.1.rss_kib - cold.probes.0.rss_kib,
    };
    alloc::enable();
    let (traced, _) = spans.time("round.traced", |spans| {
        round::run(&args.workload, args.seed, true, spans)
    });
    let (traced, net) = traced?;
    if model_of(&cold) != model_of(&traced) {
        return Err(format!(
            "the traced round differs from the untraced one: model_digest {} vs {}",
            traced.timeline.digest, cold.timeline.digest
        ));
    }
    let (out, _) = spans.time("replay", |spans| {
        replay::per_layer(&traced, &net, args.seed, untraced, spans)
    });
    let out = out?;

    let run_id = format!("{}-seed{}", args.workload, args.seed);
    let doc = spans.trace_json(&run_id, &chrome_trace_json(net.sim.tracer()));
    let path = args.out.join(format!("{}.trace.json", args.workload));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, doc))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok((out, traced))
}

fn metrics_json(sink: &Sink) -> String {
    let mut obj = Obj::new();
    for (name, unit, value) in &sink.0 {
        // `{}` prints an f64 with every digit it has and no exponent.
        let body = format!("{{\"value\":{value},\"unit\":\"{unit}\"}}");
        obj = obj.raw(name, &body);
    }
    obj.build()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("hyperprov-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new();
    let run = if args.trace {
        per_layer(&args, &mut spans)
    } else {
        end_to_end(&args, &mut spans)
    };
    let (sink, round) = match run {
        Ok(done) => done,
        Err(why) => {
            eprintln!("hyperprov-benchmark: {}: {why}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let t = &round.timeline;
    for (name, unit, value) in &sink.0 {
        println!("{name} {unit} {value}");
    }
    println!("model_digest sha256 {}", t.digest);
    println!(
        "ops count issued={} ok={} errors={} wrong={} hung={} latency_samples={}",
        t.issued,
        t.ok,
        t.errors,
        t.wrong,
        t.hung,
        t.latencies_ns.len()
    );
    let result = Obj::new()
        .raw("correct", "true")
        .u64("attempted", t.ok + t.failed())
        .u64("failed", t.failed())
        .raw("metrics", &metrics_json(&sink))
        .build();
    if let Some(path) = &args.report {
        let report = Obj::new()
            .str("workload", &args.workload)
            .u64("seed", args.seed)
            .u64("trace", u64::from(args.trace))
            .str("model_digest", &t.digest)
            .raw(
                "ops",
                &array([t.issued, t.ok, t.errors, t.wrong, t.hung].map(|n| n.to_string())),
            )
            .raw("metrics", &metrics_json(&sink))
            .build();
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("hyperprov-benchmark: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    ExitCode::SUCCESS
}

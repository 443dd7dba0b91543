//! The repository benchmark: SwitchV2P on the single-threaded engine, on
//! three named workloads, measured end to end (`--trace 0`) or layer by
//! layer (`--trace 1`).
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload ft8-hadoop --seed 1 --seconds 35 --trace 0
//! ```
//!
//! A run simulates a fixed number of workload instances, each with its own
//! seed derived from `--seed`, and repeats them while `--seconds` lasts.
//! Every repeat must reproduce its instance's digest of simulated results.
//! The last line of standard output is one JSON object with the metrics;
//! `benchmark/NOTES.md` defines them.

mod host;
mod instance;
mod replay;
mod workload;

use std::time::{Duration, Instant};

use instance::{Layers, Outcome};
use workload::{Spec, Workload};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sv2p-benchmark --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        usage();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let v = pair[1].as_str();
        match pair[0].as_str() {
            "--workload" => workload = Workload::parse(v),
            "--seed" => seed = v.parse().ok(),
            "--seconds" => seconds = v.parse().ok().filter(|&s| s > 0),
            "--trace" => {
                trace = match v {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// Median of `xs` (mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Renders a finite number as JSON (Rust's shortest round-trip form).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {:>20} {}", m.name, json_num(m.value), m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Runs `f` on the run's instances in turn, `min_runs` times at least, then
/// again while the next call is expected to end before `deadline`. Returns
/// the results in run order, so result `i` is of instance `i % k`.
fn cycle<T>(args: &Args, deadline: Instant, min_runs: usize, f: fn(&Spec) -> T) -> Vec<T> {
    let k = args.workload.instances();
    let mut out = Vec::new();
    let mut last = Duration::ZERO;
    while out.len() < min_runs || Instant::now() + last <= deadline {
        let t0 = Instant::now();
        out.push(f(&args
            .workload
            .spec(instance::seed(args.seed, out.len() % k))));
        last = t0.elapsed();
    }
    out
}

/// Nearest-rank `q`-quantile of sorted `xs` (as `Percentiles::quantile`).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The samples of every distinct instance, pooled and sorted.
fn pooled(distinct: &[Outcome], f: fn(&Outcome) -> &Vec<f64>) -> Vec<f64> {
    let mut v: Vec<f64> = distinct.iter().flat_map(|o| f(o).iter().copied()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// End-to-end metrics over a run's outcomes. Host timings are medians over
/// every run; simulated metrics pool the distinct instances.
fn end_to_end(k: usize, outcomes: &[Outcome]) -> Vec<Metric> {
    let distinct = &outcomes[..k];
    let all = |f: fn(&Outcome) -> f64| median(&outcomes.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&Outcome) -> u64| distinct.iter().map(f).sum::<u64>() as f64;
    let setups: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.setup_s.iter().copied())
        .collect();
    let fct = pooled(distinct, |o| &o.sim.fct_us);
    let first_pkt = pooled(distinct, |o| &o.sim.first_pkt_us);
    let gateway = sum(|o| o.sim.summary.gateway_packets);
    let sent = sum(|o| o.sim.summary.data_packets_sent);
    vec![
        metric("setup_s", "s", median(&setups)),
        metric("run_s", "s", all(|o| o.run_s)),
        metric("peak_rss_mb", "MB", all(|o| o.peak_rss_mb)),
        metric("hit_rate", "frac", 1.0 - gateway / sent.max(1.0)),
        metric("fct_p50_us", "us", quantile(&fct, 0.5)),
        metric("fct_p99_us", "us", quantile(&fct, 0.99)),
        metric("first_pkt_p99_us", "us", quantile(&first_pkt, 0.99)),
        metric(
            "flows_done_frac",
            "frac",
            sum(|o| o.sim.summary.flows_completed) / sum(|o| o.sim.summary.flows).max(1.0),
        ),
    ]
}

/// Per-layer metrics: every value of one traced instance, the one whose
/// traced set-up plus run is the median, so the accounting identity holds
/// exactly in what is reported.
fn per_layer(layers: &[Layers]) -> Vec<Metric> {
    let mut order: Vec<usize> = (0..layers.len()).collect();
    order.sort_by(|&a, &b| layers[a].traced_s().total_cmp(&layers[b].traced_s()));
    let mid = &layers[order[(order.len() - 1) / 2]];
    mid.metrics()
        .iter()
        .map(|&(name, unit, value)| metric(name, unit, value))
        .collect()
}

fn main() {
    let args = parse_args();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let k = args.workload.instances();
    println!(
        "{} seed {} ({} instances, {} s, trace {})",
        args.workload.name(),
        args.seed,
        k,
        args.seconds,
        args.trace as u8
    );

    if args.trace {
        let layers = cycle(&args, deadline, 1, instance::traced);
        let correct = layers.iter().all(|l| l.correct);
        let failed = layers.iter().filter(|l| !l.correct).count();
        print_result(correct, layers.len(), failed, &per_layer(&layers));
        return;
    }

    // Every distinct instance once, then the first again: every repeat must
    // reproduce its instance's simulated results exactly.
    let outcomes = cycle(&args, deadline, k + 1, instance::untraced);
    let mut failed = 0usize;
    for (i, o) in outcomes.iter().enumerate() {
        let first = &outcomes[i % k];
        let same = o.sim.digest == first.sim.digest;
        if !o.sim.checks_ok || !same {
            failed += 1;
        }
        println!(
            "  instance {:>2} seed {:>6}: digest {:016x} events {} run {:.4} s (clock {:.4} s, chase {:.1} ns) rss {:.1} MB flows {}/{}{}",
            i % k,
            o.seed,
            o.sim.digest,
            o.sim.events,
            o.run_s,
            o.run_raw_s,
            o.chase_ns,
            o.peak_rss_mb,
            o.sim.summary.flows_completed,
            o.sim.summary.flows,
            if same { "" } else { "  DIGEST MISMATCH" },
        );
    }
    let run_digest = outcomes[..k].iter().fold(instance::FNV_OFFSET, |h, o| {
        instance::fnv1a(h, &o.sim.digest.to_le_bytes())
    });
    println!("  digest of all simulated results: {run_digest:016x}");
    print_result(
        failed == 0,
        outcomes.len(),
        failed,
        &end_to_end(k, &outcomes),
    );
}

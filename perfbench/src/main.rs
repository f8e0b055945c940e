//! `ftm-perfbench`: the repository's submit→commit benchmark.
//!
//! ```text
//! ftm-perfbench --workload <hr-b1-paced|ct-b16-burst|sim-byz-sweep>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run boots its own clusters or simulations, drives them for
//! `--seconds`, checks their outputs, prints a human summary and, as the
//! last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run also repeats
//! the workload with forwarding wrappers and replays installed and
//! reports the per-layer ledger plus the tracing overhead. A safety
//! violation prints the reason on standard error and exits with code 1
//! without a result; bad arguments exit with code 2.

mod gen;
mod procfs;
mod record;
mod replay;
mod sim;
mod stats;
mod tcp;

use std::process::ExitCode;

use ftm_net::WallClock;

use crate::stats::{Dist, Fixed, Tail};

/// Where traced runs write their spans, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench-out";

/// A safety violation or harness failure: the run ends without a result.
#[derive(Debug)]
pub struct Abort(pub String);

/// What one workload run measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted (commands, or replica-slots in the sweep).
    pub attempted: u64,
    /// Operations that failed (not accepted, not committed, undecided).
    pub failed: u64,
    /// Commit latency distribution, µs.
    pub commit: Dist,
    /// Commit tail, µs: per fresh cluster (TCP) or per cell run (sweep).
    pub tail: Tail,
    /// Committed commands per second, × 1000.
    pub throughput_milli: u64,
    /// Process CPU over the measured window, ms.
    pub cpu_ms: u64,
    /// Commands committed in that window (base of `cpu_ms_per_kcmd`).
    pub kcmd_base: u64,
    /// Decided slots per second, × 1000.
    pub slots_milli: u64,
    /// Median set-up time, µs.
    pub e2e_setup_us: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<(String, Fixed)>,
    /// Whether replayed verdicts equalled the live stacks.
    pub replay_ok: bool,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end_metrics(o: &Outcome, rss_kb: u64) -> Vec<(&'static str, Fixed, &'static str)> {
    vec![
        (
            "setup_s",
            Fixed::ratio(u128::from(o.e2e_setup_us), 1_000_000, 6),
            "s",
        ),
        ("commit_p50_ms", Fixed::us_as_ms(o.commit.p50), "ms"),
        ("commit_p99_ms", Fixed::us_as_ms(o.tail.p99), "ms"),
        (
            "throughput_cmd_s",
            Fixed::ratio(u128::from(o.throughput_milli), 1000, 3),
            "cmd/s",
        ),
        (
            "cpu_ms_per_kcmd",
            Fixed::ratio(u128::from(o.cpu_ms) * 1000, u128::from(o.kcmd_base), 3),
            "ms",
        ),
        (
            "peak_rss_mb",
            Fixed::ratio(u128::from(rss_kb), 1024, 3),
            "MB",
        ),
        (
            "sweep_slots_per_s",
            Fixed::ratio(u128::from(o.slots_milli), 1000, 3),
            "slot/s",
        ),
    ]
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 47] = [
    ("net.client_rtt_p50_us", "us"),
    ("net.node_cpu_us_per_slot", "us"),
    ("net.node_idle_pct", "%"),
    ("net.msgs_per_slot", "count"),
    ("net.bytes_per_slot", "B"),
    ("net.reconnects", "count"),
    ("net.evictions", "count"),
    ("codec.decode_ns_per_msg", "ns"),
    ("codec.encode_ns_per_msg", "ns"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.cmds_per_slot", "count"),
    ("serve.requeue_pct", "%"),
    ("serve.status_us_p50", "us"),
    ("log.slot_ms_p50", "ms"),
    ("log.slot_ms_p99", "ms"),
    ("log.filler_pct", "%"),
    ("log.rounds_per_slot", "count"),
    ("actor.busy_us_per_slot", "us"),
    ("actor.msgs_in_per_slot", "count"),
    ("actor.timers_per_slot", "count"),
    ("stack.admit_us_per_msg", "us"),
    ("stack.rejects_sig_per_kmsg", "count"),
    ("stack.rejects_cert_per_kmsg", "count"),
    ("stack.rejects_auto_per_kmsg", "count"),
    ("stack.rejects_syntax_per_kmsg", "count"),
    ("stack.quarantined_per_kmsg", "count"),
    ("crypto.rsa_verifies_per_slot", "count"),
    ("crypto.memo_hit_pct", "%"),
    ("crypto.verify_cold_us", "us"),
    ("certify.check_us_per_msg", "us"),
    ("certify.cert_entries_per_msg", "count"),
    ("certify.checkpoints_per_kslot", "count"),
    ("detect.automaton_us_per_msg", "us"),
    ("fd.honest_mistakes_per_kslot", "count"),
    ("sim.events_per_slot", "count"),
    ("sim.self_us_per_slot", "us"),
    ("sim.retained_bytes_max", "B"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.replayed_msgs", "count"),
    ("trace.replayed_slots", "count"),
    ("trace.serve_self_ms", "ms"),
    ("trace.log_self_ms", "ms"),
    ("trace.net_self_ms", "ms"),
    ("trace.loadgen_self_ms", "ms"),
    ("trace.verdict_mismatches", "count"),
];

/// The three workloads.
const WORKLOADS: [&str; 3] = ["hr-b1-paced", "ct-b16-burst", "sim-byz-sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {WORKLOADS:?})"
        ));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace,
    })
}

fn run(args: &Args, clock: WallClock) -> Result<Outcome, Abort> {
    let paced = tcp::Spec {
        name: "hr-b1-paced",
        protocol: tcp::Protocol::Hr,
        batch: 1,
        load: tcp::Load::Paced { rate: 100 },
    };
    let burst = tcp::Spec {
        name: "ct-b16-burst",
        protocol: tcp::Protocol::Ct,
        batch: 16,
        load: tcp::Load::Burst { backlog: 4096 },
    };
    let w = args.workload.as_str();
    match (w, args.trace) {
        ("hr-b1-paced", false) => tcp::run(&paced, args.seed, args.seconds, clock),
        ("hr-b1-paced", true) => tcp::run_traced(&paced, args.seed, args.seconds, clock),
        ("ct-b16-burst", false) => tcp::run(&burst, args.seed, args.seconds, clock),
        ("ct-b16-burst", true) => tcp::run_traced(&burst, args.seed, args.seconds, clock),
        (_, false) => sim::run(args.seed, args.seconds, clock),
        (_, true) => sim::run_traced(args.seed, args.seconds, clock),
    }
}

fn main() -> ExitCode {
    let clock = WallClock::start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args, clock) {
        Ok(o) => o,
        Err(Abort(why)) => {
            eprintln!("ftm-perfbench: {} seed {}: {why}", args.workload, args.seed);
            return ExitCode::from(1);
        }
    };
    let rss_kb = procfs::vm_hwm_kb();
    for line in &outcome.notes {
        println!("# {line}");
    }
    let mut correct = outcome.failed == 0;
    let mut metrics: Vec<(String, Fixed, &str)> = Vec::new();
    if args.trace {
        correct &= outcome.replay_ok;
        for (name, unit) in LAYER_METRICS {
            let value = if outcome.replay_ok {
                outcome
                    .layers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(Fixed::int(0), |(_, v)| *v)
            } else {
                Fixed::int(0)
            };
            metrics.push((name.to_string(), value, unit));
        }
    } else {
        // A p99 needs ten samples above it to mean anything.
        if outcome.tail.above < 10 {
            println!(
                "# commit_p99_ms has only {} samples above it",
                outcome.tail.above
            );
            correct = false;
        }
        for (name, value, unit) in end_to_end_metrics(&outcome, rss_kb) {
            if value.is_zero() {
                println!("# {name} measured zero");
                correct = false;
            }
            metrics.push((name.to_string(), value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        println!("# {name} = {value} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

//! The Byzantine simulator sweep: replicated logs under the checkpoint
//! retention policy, honest and attacked, on the deterministic simulator.
//!
//! The matrix is {Hurfin–Raynal, Chandra–Toueg} × {(4,1), (7,2)} ×
//! {honest, wrong-key, strip-certificates, round-jump, mute}, each cell a
//! log of [`SLOTS`] slots with the attacker (if any) at the
//! highest-numbered process. There is no transport and no sleeping, so
//! signatures, certificates, the observer automata and ◇M do the work,
//! reject paths included. The sweep repeats on the same seeds until the
//! measured time is spent; counts repeat exactly, times do not.

use std::sync::{Arc, Mutex};

use ftm_certify::{ProtocolId, Value, ValueVector};
use ftm_core::byzantine::log::{ReplicatedLog, Retention};
use ftm_core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ftm_core::config::{ProtocolConfig, ProtocolSetup};
use ftm_core::validator::detections;
use ftm_crypto::prng::derive_seed;
use ftm_faults::{ByzantineLogWrapper, FaultBehavior};
use ftm_net::WallClock;
use ftm_sim::harness::parallel_map;
use ftm_sim::runner::BoxedActor;
use ftm_sim::trace::TraceEvent;
use ftm_sim::{Duration, NetworkProfile, SimConfig, Simulation};

use crate::procfs;
use crate::record::{self, ActorCounters, Recorded, Sink, SlotRecord, Spans, Timed};
use crate::replay::{last_stack_stat, Ledger, LiveCounts};
use crate::stats::{median, Dist, Fixed, Tail};
use crate::{Abort, Outcome};

/// Slots per cell: long enough that per-slot costs growing with a log's
/// history show in the rate and in peak memory.
const SLOTS: u64 = 200;
/// Set-up-only sweeps timed after the measured ones.
const SETUP_TRIALS: u64 = 6;
/// Sweep worker threads.
const THREADS: usize = 1;
/// Attack injection pacing, as the scenario harness uses it.
const INJECTION_DELAY: u64 = 3;

const SYSTEMS: [(usize, usize); 2] = [(4, 1), (7, 2)];
const BEHAVIORS: [FaultBehavior; 5] = [
    FaultBehavior::Honest,
    FaultBehavior::WrongKey,
    FaultBehavior::StripCertificates,
    FaultBehavior::RoundJump,
    FaultBehavior::Mute,
];

/// One cell of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    protocol: ProtocolId,
    n: usize,
    f: usize,
    behavior: FaultBehavior,
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for protocol in [ProtocolId::HurfinRaynal, ProtocolId::ChandraToueg] {
        for (n, f) in SYSTEMS {
            for behavior in BEHAVIORS {
                out.push(Cell {
                    protocol,
                    n,
                    f,
                    behavior,
                });
            }
        }
    }
    out
}

impl Cell {
    fn label(&self) -> String {
        format!(
            "{}/n{}f{}/{}",
            self.protocol,
            self.n,
            self.f,
            self.behavior.label()
        )
    }

    fn attacker(&self) -> Option<u32> {
        (self.behavior != FaultBehavior::Honest).then_some((self.n - 1) as u32)
    }

    /// The one conviction class the attack must draw, from the module
    /// that owns it (`None`: no conviction may happen). A mute attacker is
    /// left to ◇M, which convicts nobody; a jumped round number only
    /// shows once rounds advance, which Hurfin–Raynal slots on a calm
    /// network never need, while Chandra–Toueg's automaton sees it in the
    /// first round's estimate.
    fn expected_class(&self) -> Option<&'static str> {
        match (self.behavior, self.protocol) {
            (FaultBehavior::WrongKey, _) => Some("bad-signature"),
            (FaultBehavior::StripCertificates, _) => Some("bad-certificate"),
            (FaultBehavior::RoundJump, ProtocolId::ChandraToueg) => Some("out-of-order"),
            _ => None,
        }
    }
}

/// The command replica `p` proposes for `slot` in a cell seeded `seed`.
fn command(seed: u64, slot: u64, p: u32) -> Value {
    derive_seed(seed, slot * 64 + u64::from(p))
}

/// Per-replica timestamps of one cell (µs on the run clock).
#[derive(Debug, Default)]
struct Stamps {
    open_us: Vec<u64>,
    seal_us: Vec<u64>,
    sealed: Vec<ValueVector>,
}

/// What one cell run produced.
#[derive(Debug, Default)]
struct CellRun {
    start_us: u64,
    setup_us: u64,
    wall_us: u64,
    decided_slots: u64,
    committed_cmds: u64,
    replica_slots: u64,
    undecided: u64,
    latencies: Vec<u64>,
    gaps: Vec<u64>,
    events: u64,
    busy_us: u64,
    msgs_in: u64,
    timers: u64,
    rounds: u64,
    retained_max: u64,
    checkpoints: u64,
    honest_mistakes: u64,
    memo_hits: u64,
    memo_misses: u64,
    records: Vec<SlotRecord>,
    setup: Option<ProtocolSetup>,
    violation: Option<String>,
}

/// How far a cell goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Key generation and simulation build only (set-up timing).
    Setup,
    /// The measured run.
    Run,
    /// The run with recording wrappers installed.
    Trace,
}

fn run_cell(cell: &Cell, seed: u64, mode: Mode, clock: WallClock) -> CellRun {
    match (cell.protocol, mode) {
        (ProtocolId::HurfinRaynal, Mode::Trace) => {
            run_cell_as::<Recorded<ByzantineConsensus>>(cell, seed, mode, clock)
        }
        (ProtocolId::HurfinRaynal, _) => run_cell_as::<ByzantineConsensus>(cell, seed, mode, clock),
        (ProtocolId::ChandraToueg, Mode::Trace) => {
            run_cell_as::<Recorded<ByzantineChandraToueg>>(cell, seed, mode, clock)
        }
        (ProtocolId::ChandraToueg, _) => {
            run_cell_as::<ByzantineChandraToueg>(cell, seed, mode, clock)
        }
    }
}

fn run_cell_as<Q: TransformedProtocol + 'static>(
    cell: &Cell,
    seed: u64,
    mode: Mode,
    clock: WallClock,
) -> CellRun {
    let traced = mode == Mode::Trace;
    let start = clock.micros();
    let setup = ProtocolConfig::new(cell.n, cell.f).seed(seed).setup();
    let cfg = NetworkProfile::calm().apply(SimConfig::new(cell.n).seed(seed));
    let attacker = cell.attacker();
    let mut tamper = attacker.and_then(|a| {
        cell.behavior
            .make_tamper_for(cell.protocol, cell.n, a, seed)
    });
    let stamps: Vec<Arc<Mutex<Stamps>>> = (0..cell.n).map(|_| Arc::default()).collect();
    let counters = Arc::new(ActorCounters::default());
    let sink: Sink = Arc::default();
    let (hits0, misses0) = (setup.dir.cache_hits(), setup.dir.cache_misses());
    let sim = Simulation::build_boxed(cfg, |id| {
        let (open, seal) = (
            Arc::clone(&stamps[id.index()]),
            Arc::clone(&stamps[id.index()]),
        );
        let record_sink = (traced && id.0 == 0).then(|| Arc::clone(&sink));
        let log = ReplicatedLog::<Q>::new(&setup, id, SLOTS, move |slot, p| {
            // The traced sweep records every slot of replica 0 for replay.
            if let Some(s) = &record_sink {
                record::arm(slot, s);
            }
            if let Ok(mut st) = open.lock() {
                st.open_us.push(clock.micros());
            }
            command(seed, slot, p)
        })
        .with_retention(Retention::Checkpoint)
        .with_slot_hook(move |_, vector| {
            if let Ok(mut st) = seal.lock() {
                st.seal_us.push(clock.micros());
                st.sealed.push(vector.clone());
            }
        });
        let tamper = if Some(id.0) == attacker {
            tamper.take()
        } else {
            None
        };
        let actor: BoxedActor<_, _> = match tamper {
            Some(t) => Box::new(ByzantineLogWrapper::new(
                log,
                t,
                setup.keys[id.index()].clone(),
                Duration::of(INJECTION_DELAY),
            )),
            None => Box::new(log),
        };
        if traced {
            Box::new(Timed::new(actor, clock, Arc::clone(&counters)))
        } else {
            actor
        }
    });
    let built = clock.micros();
    if mode == Mode::Setup {
        return CellRun {
            start_us: start,
            setup_us: built - start,
            ..CellRun::default()
        };
    }
    let report = sim.run();
    let wall_us = clock.micros() - built;
    let mut run = CellRun {
        start_us: start,
        setup_us: built - start,
        wall_us,
        events: report.metrics.events_processed,
        ..CellRun::default()
    };
    // Honest replicas' sealed logs: agreement on common prefixes,
    // vector validity against the commands they proposed.
    let honest: Vec<usize> = (0..cell.n)
        .filter(|&i| Some(i as u32) != attacker)
        .collect();
    let logs: Vec<(usize, Stamps)> = honest
        .iter()
        .map(|&i| {
            (
                i,
                std::mem::take(&mut *stamps[i].lock().expect("stamps lock")),
            )
        })
        .collect();
    let longest = logs.iter().map(|(_, s)| s.sealed.len()).max().unwrap_or(0);
    run.decided_slots = logs
        .iter()
        .map(|(_, s)| s.sealed.len() as u64)
        .min()
        .unwrap_or(0);
    for (i, st) in &logs {
        run.replica_slots += SLOTS;
        run.undecided += SLOTS - st.sealed.len() as u64;
        let reference = &logs[0].1.sealed;
        let common = st.sealed.len().min(reference.len());
        if st.sealed[..common] != reference[..common] {
            run.violation = Some(format!(
                "{}: replica {i} diverges from replica {}",
                cell.label(),
                logs[0].0
            ));
        }
        // Slot 0 opens while the simulation is still being built.
        for (open, seal) in st.open_us.iter().zip(&st.seal_us).skip(1) {
            run.latencies.push(seal.saturating_sub(*open));
        }
        run.gaps.extend(st.seal_us.windows(2).map(|w| w[1] - w[0]));
    }
    if let Some((_, st)) = logs.iter().find(|(_, s)| s.sealed.len() == longest) {
        for (slot, vector) in st.sealed.iter().enumerate() {
            run.committed_cmds += vector.non_null_count() as u64;
            let truth: Vec<Option<u64>> = (0..cell.n)
                .map(|i| (Some(i as u32) != attacker).then(|| command(seed, slot as u64, i as u32)))
                .collect();
            if let Err(e) = ftm_certify::vector::check_vector_validity(vector, &truth, cell.f) {
                run.violation = Some(format!(
                    "{}: vector validity at slot {slot}: {e}",
                    cell.label()
                ));
            }
        }
    }
    if !report.contradictions.is_empty() {
        run.violation = Some(format!(
            "{}: contradicted replicas {:?}",
            cell.label(),
            report.contradictions
        ));
    }
    let found = detections(&report.trace);
    let culprit = attacker.map(|a| format!("p{a}"));
    if let Some(d) = found.iter().find(|d| Some(&d.culprit) != culprit.as_ref()) {
        run.violation = Some(format!(
            "{}: honest {} convicted by {}",
            cell.label(),
            d.culprit,
            d.observer
        ));
    }
    let expected = cell.expected_class();
    if let Some(d) = found.iter().find(|d| Some(d.class.as_str()) != expected) {
        run.violation = Some(format!(
            "{}: unexpected {} conviction of {}",
            cell.label(),
            d.class,
            d.culprit
        ));
    }
    if expected.is_some() && found.is_empty() {
        run.violation = Some(format!(
            "{}: the attacker was never convicted",
            cell.label()
        ));
    }
    if traced {
        let (busy, msgs_in, timers) = counters.read();
        run.busy_us = busy;
        run.msgs_in = msgs_in;
        run.timers = timers;
        run.memo_hits = setup.dir.cache_hits() - hits0;
        run.memo_misses = setup.dir.cache_misses() - misses0;
        let mut per_process: Vec<Vec<&str>> = vec![Vec::new(); cell.n];
        for entry in report.trace.entries() {
            if let TraceEvent::Note { process, text } = &entry.event {
                per_process[process.index()].push(text);
                if text.contains(":round=") {
                    run.rounds += 1;
                }
                if let Some(rest) = text.strip_prefix("checkpoint slot=") {
                    run.checkpoints += 1;
                    let bytes = rest
                        .split_whitespace()
                        .find_map(|t| t.strip_prefix("bytes="))
                        .and_then(|b| b.parse().ok())
                        .unwrap_or(0);
                    run.retained_max = run.retained_max.max(bytes);
                }
            }
        }
        run.honest_mistakes = per_process
            .into_iter()
            .map(|notes| last_stack_stat(notes, "fd-honest-mistakes="))
            .sum();
        drop(report);
        let mut records = sink
            .lock()
            .map(|mut r| std::mem::take(&mut *r))
            .unwrap_or_default();
        records.sort_by_key(|r| r.slot);
        run.records = records;
        run.setup = Some(setup);
    }
    run
}

/// One whole sweep over the matrix.
struct Sweep {
    wall_us: u64,
    setup_us: u64,
    cells: Vec<CellRun>,
}

fn sweep(seed: u64, mode: Mode, clock: WallClock) -> Result<Sweep, Abort> {
    let matrix = cells();
    let start = clock.micros();
    let cells = parallel_map(&matrix, THREADS, |i, cell| {
        run_cell(cell, derive_seed(seed, i as u64), mode, clock)
    });
    let wall_us = clock.micros() - start;
    if let Some(v) = cells.iter().find_map(|c| c.violation.clone()) {
        return Err(Abort(v));
    }
    Ok(Sweep {
        wall_us,
        setup_us: cells.iter().map(|c| c.setup_us).sum(),
        cells,
    })
}

/// Repeats the sweep until `seconds` are spent (at least once).
fn repeat(seed: u64, seconds: u64, clock: WallClock) -> Result<Outcome, Abort> {
    let start = clock.micros();
    let cpu0 = procfs::process_cpu_ms();
    let mut sweeps = Vec::new();
    while sweeps.is_empty() || clock.micros() - start < seconds * 1_000_000 {
        sweeps.push(sweep(seed, Mode::Run, clock)?);
    }
    let cpu_ms = procfs::process_cpu_ms() - cpu0;
    let mut setups: Vec<u64> = sweeps.iter().map(|s| s.setup_us).collect();
    // Key generation cost depends on the seed, so set-up trials draw
    // fresh seeds to average over it.
    for t in 0..SETUP_TRIALS {
        setups.push(sweep(derive_seed(seed, 0x7365_7475 + t), Mode::Setup, clock)?.setup_us);
    }
    let mut latencies = Vec::new();
    let (mut attempted, mut failed, mut cmds) = (0, 0, 0);
    let (mut slot_rates, mut cmd_rates) = (Vec::new(), Vec::new());
    for s in &sweeps {
        let slots: u64 = s.cells.iter().map(|c| c.decided_slots).sum();
        let committed: u64 = s.cells.iter().map(|c| c.committed_cmds).sum();
        slot_rates.push(slots * 1_000_000_000 / s.wall_us.max(1));
        cmd_rates.push(committed * 1_000_000_000 / s.wall_us.max(1));
        cmds += committed;
        for c in &s.cells {
            attempted += c.replica_slots;
            failed += c.undecided;
            latencies.push(c.latencies.clone());
        }
    }
    let commit = Dist::of(latencies.concat());
    let mut out = Outcome {
        attempted,
        failed,
        commit,
        tail: Tail::mean_of(&latencies),
        throughput_milli: median(&cmd_rates),
        cpu_ms,
        kcmd_base: cmds,
        slots_milli: median(&slot_rates),
        e2e_setup_us: median(&setups),
        ..Outcome::default()
    };
    out.notes.push(format!(
        "{} sweeps of {} cells x {SLOTS} slots; slot commit latency: {} samples, p50 {} us, pooled p99 {} us ({} above), p90/p95/p99.9 {:?} us; mean per-cell p99 {} us ({} above)",
        sweeps.len(),
        cells().len(),
        commit.samples,
        commit.p50,
        commit.p99,
        commit.above_p99,
        commit.tail,
        out.tail.p99,
        out.tail.above
    ));
    out.notes.push(format!(
        "setup samples (us): {setups:?}; slots/s x1000 per sweep: {slot_rates:?}"
    ));
    Ok(out)
}

/// Runs the untraced sweep: the end-to-end metrics.
pub fn run(seed: u64, seconds: u64, clock: WallClock) -> Result<Outcome, Abort> {
    repeat(seed, seconds, clock)
}

/// Runs the untraced sweep for the overhead baseline, then one traced
/// sweep whose per-layer numbers are reported.
pub fn run_traced(seed: u64, seconds: u64, clock: WallClock) -> Result<Outcome, Abort> {
    let plain = repeat(seed, seconds, clock)?;
    let traced = sweep(seed, Mode::Trace, clock)?;
    let mut out = plain.clone();
    let slots: u64 = traced.cells.iter().map(|c| c.decided_slots).sum();
    let traced_rate = slots * 1_000_000_000 / traced.wall_us.max(1);
    let mut ledger = Ledger::default();
    let mut live = LiveCounts::default();
    let (mut events, mut busy, mut wall, mut msgs_in, mut timers, mut rounds, mut retained) =
        (0, 0, 0, 0, 0, 0, 0);
    let mut gaps = Vec::new();
    let mut spans = Spans::default();
    for (i, (cell, c)) in cells().iter().zip(&traced.cells).enumerate() {
        let built = c.start_us + c.setup_us;
        let root = spans.push(i as u64, "cell", c.start_us, built + c.wall_us, None);
        spans.push(i as u64, "setup", c.start_us, built, Some(root));
        spans.push(i as u64, "run", built, built + c.wall_us, Some(root));
        if let Some(setup) = &c.setup {
            ledger.replay(cell.protocol, setup, &c.records, &clock);
        }
        live.slots += c.decided_slots * (cell.n as u64);
        live.memo_hits += c.memo_hits;
        live.memo_misses += c.memo_misses;
        live.checkpoints += c.checkpoints;
        live.honest_mistakes += c.honest_mistakes;
        events += c.events;
        busy += c.busy_us;
        wall += c.wall_us;
        msgs_in += c.msgs_in;
        timers += c.timers;
        rounds += c.rounds;
        retained = retained.max(c.retained_max);
        gaps.extend_from_slice(&c.gaps);
    }
    let replica_slots = u128::from(live.slots);
    let mut layers = ledger.layer_metrics(live);
    let gaps = Dist::of(gaps);
    let extra = [
        ("log.slot_ms_p50", Fixed::us_as_ms(gaps.p50)),
        ("log.slot_ms_p99", Fixed::us_as_ms(gaps.p99)),
        (
            "log.rounds_per_slot",
            Fixed::ratio(u128::from(rounds), replica_slots, 3),
        ),
        (
            "actor.busy_us_per_slot",
            Fixed::ratio(u128::from(busy), replica_slots, 1),
        ),
        (
            "actor.msgs_in_per_slot",
            Fixed::ratio(u128::from(msgs_in), replica_slots, 2),
        ),
        (
            "actor.timers_per_slot",
            Fixed::ratio(u128::from(timers), replica_slots, 2),
        ),
        (
            "sim.events_per_slot",
            Fixed::ratio(u128::from(events), u128::from(slots), 2),
        ),
        (
            "sim.self_us_per_slot",
            Fixed::ratio(u128::from(wall.saturating_sub(busy)), u128::from(slots), 1),
        ),
        ("sim.retained_bytes_max", Fixed::int(retained)),
        (
            "trace.overhead_pct",
            Fixed::change_pct(plain.slots_milli, traced_rate),
        ),
        ("trace.spans", Fixed::int(spans.len() as u64)),
    ];
    layers.extend(extra.into_iter().map(|(n, v)| (n.to_string(), v)));
    let path = std::path::Path::new(crate::OUT_DIR).join("spans-sim-byz-sweep.tsv");
    spans
        .write(&path)
        .map_err(|e| Abort(format!("writing {}: {e}", path.display())))?;
    out.replay_ok = ledger.mismatched == 0;
    out.layers = layers;
    out.notes.push(format!(
        "traced sweep: {} slots in {} us ({} slots/s x1000 vs {} untraced); replayed {} instances, {} envelopes, {} verdict mismatches",
        slots, traced.wall_us, traced_rate, plain.slots_milli, ledger.slots, ledger.msgs, ledger.mismatched
    ));
    Ok(out)
}

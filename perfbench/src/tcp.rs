//! Loopback TCP workloads: four in-process replicas running the program
//! `ftm-serve` runs, driven by the open-loop generator over two client
//! connections.
//!
//! Each replica gets its own [`ProtocolSetup`] (same key seed, so the same
//! keys, but its own signature-verdict memo), catch-up enabled, the
//! batching ledger wired to the command source and slot hook, and a
//! client service answering `Submit`/`Status`/`Shutdown` as `ftm-serve`
//! does. The benchmark adds a probe beside the ledger that timestamps
//! each command's acceptance, first proposal and commit.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};

use ftm_certify::ValueVector;
use ftm_core::byzantine::log::ReplicatedLog;
use ftm_core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ftm_core::config::{ProtocolConfig, ProtocolSetup};
use ftm_crypto::prng::{derive_seed, Rng64, Xoshiro256PlusPlus};
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::{
    bind_cluster, parse_convictions, spawn_node, NetReport, NodeConfig, NodeHandle, ServiceReply,
    WallClock,
};
use ftm_runtime::{ProcessId, SendBoxedActor};
use ftm_serve::api::{Reply, Request, Status};
use ftm_serve::batch::BatchState;
use ftm_serve::log_digest;

use crate::gen::Generator;
use crate::procfs;
use crate::record::{self, ActorCounters, Recorded, Sink, Spans, Timed};
use crate::replay::{last_stack_stat, Ledger, LiveCounts};
use crate::stats::{median, Dist, Fixed, Tail};
use crate::{Abort, Outcome};

/// Replicas per cluster.
pub const N: usize = 4;
/// Tolerated Byzantine replicas.
pub const F: usize = 1;
/// Replicas the generator connects to.
const TARGETS: usize = 2;
/// Checkpoints per catch-up reply, as `ftm-serve` configures it.
const CATCHUP_WINDOW: u64 = 16;
/// Log length: effectively unbounded, the log runs until stopped.
const SLOTS: u64 = 1 << 40;
/// Seconds each fresh cluster is measured for; a run splits its time over
/// as many clusters and pools them. A cluster settles into a faster or
/// slower slot cadence depending on how its four readiness loops happen
/// to interleave, so one cluster per run would report that draw rather
/// than the program.
const CLUSTER_SECONDS: u64 = 5;
/// Bursts each burst-load cluster drains: a fixed amount of work, about
/// [`CLUSTER_SECONDS`] long on the host of the first baseline, so that a
/// cluster's history, and with it the run's peak memory, does not grow
/// with how fast the host happens to be.
const BURSTS_PER_CLUSTER: u64 = 4;
/// `Status` read period per connection.
const STATUS_EVERY_US: u64 = 100_000;
/// How long commands may take to commit after the last send.
const DRAIN_US: u64 = 20_000_000;
/// Extra cluster boots timed for `setup_s` after the measured clusters,
/// each with its own keys (key generation time depends on the seed).
const SETUP_TRIALS: u64 = 30;
/// Thread-CPU sampling period in the traced run.
const CPU_SAMPLE_US: u64 = 100_000;
/// In the traced run, every `RECORD_EVERY`-th slot instance is recorded
/// for replay, up to `RECORD_CAP` instances per replica.
const RECORD_EVERY: u64 = 4;
const RECORD_CAP: u64 = 600;

/// Which transformed protocol a cluster runs.
#[derive(Debug, Clone, Copy)]
pub enum Protocol {
    /// Hurfin–Raynal.
    Hr,
    /// Chandra–Toueg.
    Ct,
}

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Open loop at a fixed rate, with `Status` reads beside it.
    Paced {
        /// Commands per second over both connections.
        rate: u64,
    },
    /// Back-to-back bursts of a fixed backlog, each due all at once.
    Burst {
        /// Commands per burst over both connections.
        backlog: u64,
    },
}

/// A TCP workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name (file names of traced output).
    pub name: &'static str,
    /// Protocol per slot.
    pub protocol: Protocol,
    /// `--batch`: commands per proposal at most.
    pub batch: u64,
    /// Load shape.
    pub load: Load,
}

/// The filler `ftm-serve` proposes when its queue is empty.
fn filler(slot: u64, p: u32) -> u64 {
    1_000_000 * (slot + 1) + u64::from(p)
}

/// Thread CPU sampled on a node thread.
#[derive(Debug, Clone, Copy)]
struct CpuSample {
    at_us: u64,
    cpu_ms: u64,
    slots: u64,
}

/// Benchmark bookkeeping beside one replica's ledger. It mirrors the
/// ledger's FIFO (commands drain from the front, a failed batch returns
/// to the front) so each command's proposal and commit can be timed.
#[derive(Debug, Default)]
struct Probe {
    values: Vec<u64>,
    accepted_us: Vec<u64>,
    drained_us: Vec<u64>,
    commit_us: Vec<u64>,
    queue: VecDeque<usize>,
    inflight: Vec<usize>,
    batches: u64,
    batched_cmds: u64,
    requeued: u64,
    seal_us: Vec<u64>,
    filler_entries: u64,
    entries: u64,
    status_us: Vec<u64>,
    cpu: Vec<CpuSample>,
    broken: Option<String>,
}

impl Probe {
    fn on_submit(&mut self, value: u64, now: u64) {
        self.queue.push_back(self.values.len());
        self.values.push(value);
        self.accepted_us.push(now);
        self.drained_us.push(0);
        self.commit_us.push(0);
    }

    fn on_propose(&mut self, taken: u64, now: u64) {
        if taken == 0 {
            return;
        }
        self.batches += 1;
        self.batched_cmds += taken;
        for _ in 0..taken {
            let Some(k) = self.queue.pop_front() else {
                self.broken = Some("ledger drained more than was queued".into());
                return;
            };
            if self.drained_us[k] == 0 {
                self.drained_us[k] = now;
            }
            self.inflight.push(k);
        }
    }

    fn on_sealed(&mut self, slot: u64, vector: &ValueVector, committed: u64, now: u64) {
        self.seal_us.push(now);
        for (p, v) in vector.iter_set() {
            self.entries += 1;
            if v == filler(slot, p as u32) {
                self.filler_entries += 1;
            }
        }
        let batch = std::mem::take(&mut self.inflight);
        if committed == batch.len() as u64 {
            for k in batch {
                self.commit_us[k] = now;
            }
        } else if committed == 0 {
            self.requeued += batch.len() as u64;
            for k in batch.into_iter().rev() {
                self.queue.push_front(k);
            }
        } else {
            self.broken = Some(format!(
                "slot {slot} committed {committed} of a {}-command batch",
                batch.len()
            ));
        }
    }
}

/// One replica's shared state, as the benchmark holds it.
struct Replica {
    ledger: Arc<Mutex<BatchState>>,
    sealed: Arc<Mutex<Vec<ValueVector>>>,
    probe: Arc<Mutex<Probe>>,
    setup: ProtocolSetup,
    counters: Arc<ActorCounters>,
    sink: Sink,
}

/// A booted cluster.
struct Cluster {
    replicas: Vec<Replica>,
    handles: Vec<NodeHandle<Vec<ValueVector>>>,
    addrs: Vec<String>,
    cluster: u64,
}

/// Boots `N` replicas on loopback; with `traced`, each actor runs inside
/// the forwarding wrappers of [`record`].
fn boot<P>(
    spec: &Spec,
    key_seed: u64,
    cluster: u64,
    traced: bool,
    clock: WallClock,
) -> io::Result<Cluster>
where
    P: TransformedProtocol + Send + 'static,
{
    let (listeners, addrs) = bind_cluster(N)?;
    let mut replicas = Vec::with_capacity(N);
    let mut handles = Vec::with_capacity(N);
    for (i, listener) in listeners.into_iter().enumerate() {
        let me = ProcessId(i as u32);
        // Each replica derives its own setup from the shared seed, as
        // separate ftm-serve processes do: equal keys, separate memos.
        let setup = ProtocolConfig::new(N, F).seed(key_seed).setup();
        let batch = spec.batch;
        let replica = Replica {
            ledger: Arc::new(Mutex::new(BatchState::new(batch))),
            sealed: Arc::new(Mutex::new(Vec::new())),
            probe: Arc::new(Mutex::new(Probe::default())),
            setup: setup.clone(),
            counters: Arc::new(ActorCounters::default()),
            sink: Arc::new(Mutex::new(Vec::new())),
        };
        let (source, source_probe, source_sink) = (
            Arc::clone(&replica.ledger),
            Arc::clone(&replica.probe),
            Arc::clone(&replica.sink),
        );
        let (settle, settle_probe, settle_sealed) = (
            Arc::clone(&replica.ledger),
            Arc::clone(&replica.probe),
            Arc::clone(&replica.sealed),
        );
        let (ledger, probe, sealed) = (
            Arc::clone(&replica.ledger),
            Arc::clone(&replica.probe),
            Arc::clone(&replica.sealed),
        );
        let log = ReplicatedLog::<P>::new(&setup, me, SLOTS, move |slot, p| {
            if traced && slot % RECORD_EVERY == 0 && slot / RECORD_EVERY < RECORD_CAP {
                record::arm(slot, &source_sink);
            }
            let now = clock.micros();
            source
                .lock()
                .ok()
                .and_then(|mut q| {
                    let before = q.queued();
                    let value = q.propose(slot);
                    if let Ok(mut probe) = source_probe.lock() {
                        probe.on_propose(before - q.queued(), now);
                    }
                    value
                })
                .unwrap_or(filler(slot, p))
        })
        .with_slot_hook(move |slot, vector| {
            let now = clock.micros();
            if let Ok(mut q) = settle.lock() {
                let before = q.committed();
                q.on_sealed(slot, vector.get(me.index()));
                if let Ok(mut probe) = settle_probe.lock() {
                    probe.on_sealed(slot, vector, q.committed() - before, now);
                    let last = probe.cpu.last().map_or(0, |s| s.at_us);
                    if traced && now >= last + CPU_SAMPLE_US {
                        let slots = probe.seal_us.len() as u64;
                        probe.cpu.push(CpuSample {
                            at_us: now,
                            cpu_ms: procfs::thread_cpu_ms(),
                            slots,
                        });
                    }
                }
            }
            if let Ok(mut s) = settle_sealed.lock() {
                s.push(vector.clone());
            }
        })
        .with_catchup(CATCHUP_WINDOW);
        let actor: SendBoxedActor<_, _> = if traced {
            Box::new(Timed::new(log, clock, Arc::clone(&replica.counters)))
        } else {
            Box::new(log)
        };
        let cfg = NodeConfig::new(me, addrs.clone(), cluster, key_seed);
        handles.push(spawn_node(cfg, listener, actor, move |_, view, frame| {
            match Request::from_canonical_bytes(frame) {
                Ok(Request::Submit { value }) => {
                    let now = clock.micros();
                    let queued = ledger.lock().map_or(0, |mut q| {
                        let depth = q.submit(value);
                        if let Ok(mut probe) = probe.lock() {
                            probe.on_submit(value, now);
                        }
                        depth
                    });
                    ServiceReply::reply(Reply::Submitted { queued }.canonical_bytes())
                }
                Ok(Request::Status) => {
                    let start = clock.micros();
                    let (decided_slots, digest) = sealed
                        .lock()
                        .map_or((0, Vec::new()), |s| (s.len() as u64, log_digest(&s)));
                    let status = Status {
                        me: me.0,
                        now_ms: view.now.ticks(),
                        decided_slots,
                        halted: view.halted,
                        contradicted: view.contradicted,
                        log_digest: digest,
                        convicted: parse_convictions(view.notes)
                            .into_iter()
                            .map(|(who, class)| format!("{who} {class}"))
                            .collect(),
                        queued: ledger.lock().map_or(0, |q| q.queued()),
                        msgs_sent: view.msgs_sent,
                        msgs_received: view.msgs_received,
                        bytes_sent: view.bytes_sent,
                        bytes_received: view.bytes_received,
                        batch,
                        submitted: ledger.lock().map_or(0, |q| q.submitted()),
                        committed: ledger.lock().map_or(0, |q| q.committed()),
                        inflight: ledger.lock().map_or(0, |q| q.inflight()),
                        committed_digest: ledger
                            .lock()
                            .map_or_else(|_| Vec::new(), |q| q.committed_digest()),
                    };
                    let frame = Reply::Status(status).canonical_bytes();
                    if traced {
                        let spent = clock.micros() - start;
                        if let Ok(mut probe) = probe.lock() {
                            probe.status_us.push(spent);
                        }
                    }
                    ServiceReply::reply(frame)
                }
                Ok(Request::Shutdown) => {
                    ServiceReply::shutdown(Reply::ShuttingDown.canonical_bytes())
                }
                Err(e) => ServiceReply::reply(Reply::BadRequest(format!("{e}")).canonical_bytes()),
            }
        }));
        replicas.push(replica);
    }
    Ok(Cluster {
        replicas,
        handles,
        addrs,
        cluster,
    })
}

fn boot_for(
    spec: &Spec,
    key_seed: u64,
    cluster: u64,
    traced: bool,
    clock: WallClock,
) -> io::Result<Cluster> {
    match (spec.protocol, traced) {
        (Protocol::Hr, false) => boot::<ByzantineConsensus>(spec, key_seed, cluster, false, clock),
        (Protocol::Hr, true) => {
            boot::<Recorded<ByzantineConsensus>>(spec, key_seed, cluster, true, clock)
        }
        (Protocol::Ct, false) => {
            boot::<ByzantineChandraToueg>(spec, key_seed, cluster, false, clock)
        }
        (Protocol::Ct, true) => {
            boot::<Recorded<ByzantineChandraToueg>>(spec, key_seed, cluster, true, clock)
        }
    }
}

fn protocol_id(p: Protocol) -> ftm_certify::ProtocolId {
    match p {
        Protocol::Hr => ftm_certify::ProtocolId::HurfinRaynal,
        Protocol::Ct => ftm_certify::ProtocolId::ChandraToueg,
    }
}

/// Seeded, distinct command values.
struct Values {
    rng: Xoshiro256PlusPlus,
    seen: std::collections::BTreeSet<u64>,
}

impl Values {
    fn new(seed: u64) -> Self {
        Values {
            rng: Xoshiro256PlusPlus::from_seed(seed),
            seen: std::collections::BTreeSet::new(),
        }
    }

    fn next(&mut self) -> u64 {
        loop {
            let v = self.rng.next_u64();
            if self.seen.insert(v) {
                return v;
            }
        }
    }
}

/// Boots a cluster, connects the generator, and times until the first
/// command is accepted. Returns the cluster, the generator and the
/// accept time.
fn boot_and_first_accept(
    spec: &Spec,
    seed: u64,
    boot_index: u64,
    traced: bool,
    clock: WallClock,
    values: &mut Values,
) -> Result<(Cluster, Generator, u64), Abort> {
    let key_seed = derive_seed(seed, 0x6b65_7973 + boot_index);
    let cluster_id = derive_seed(seed, 0x636c_7573 + boot_index);
    let cluster = boot_for(spec, key_seed, cluster_id, traced, clock)
        .map_err(|e| Abort(format!("cluster boot: {e}")))?;
    let mut gen = Generator::connect(&cluster.addrs[..TARGETS], cluster.cluster, clock)
        .map_err(|e| Abort(format!("client connect: {e}")))?;
    // The first command of the run is the setup probe: it is due now and
    // setup ends when its `Submitted` reply is read.
    gen.schedule([(values.next(), 0, clock.micros())]);
    gen.run_until_replied(clock.micros() + 30_000_000);
    let first = gen.cmds[0];
    if first.ack_us == 0 || first.rejected {
        return Err(Abort("first command was never accepted".into()));
    }
    Ok((cluster, gen, first.ack_us))
}

/// A stopped cluster: its replicas' shared state and the node reports.
type Stopped = (Vec<Replica>, Vec<NetReport<Vec<ValueVector>>>);

/// Stops every node and returns the replicas with their reports.
fn stop(cluster: Cluster, gen: &mut Generator) -> Result<Stopped, Abort> {
    gen.shutdown();
    // Raise every stop flag before joining any node, so the nodes' bounded
    // exit flushes overlap instead of adding up.
    for h in &cluster.handles {
        h.stop();
    }
    let mut reports = Vec::with_capacity(N);
    for h in cluster.handles {
        reports.push(h.join().map_err(|e| Abort(format!("node thread: {e}")))?);
    }
    Ok((cluster.replicas, reports))
}

fn lock<T>(m: &Mutex<T>) -> Result<std::sync::MutexGuard<'_, T>, Abort> {
    m.lock()
        .map_err(|_| Abort("a replica thread panicked holding shared state".into()))
}

/// Safety checks over a finished pass; any failure aborts the run.
fn check_safety(
    replicas: &[Replica],
    reports: &[NetReport<Vec<ValueVector>>],
    gen: &Generator,
) -> Result<(), Abort> {
    for (i, r) in reports.iter().enumerate() {
        if r.contradicted {
            return Err(Abort(format!("replica {i} contradicted its decision")));
        }
        let convictions = parse_convictions(&r.notes);
        if !convictions.is_empty() {
            return Err(Abort(format!(
                "replica {i} convicted honest peers: {convictions:?}"
            )));
        }
    }
    let logs: Vec<Vec<ValueVector>> = replicas
        .iter()
        .map(|r| lock(&r.sealed).map(|s| s.clone()))
        .collect::<Result<_, _>>()?;
    for (i, log) in logs.iter().enumerate().skip(1) {
        let common = log.len().min(logs[0].len());
        if log[..common] != logs[0][..common] {
            return Err(Abort(format!(
                "replica {i} and replica 0 diverge within their common prefix"
            )));
        }
    }
    for (i, r) in replicas.iter().enumerate() {
        let q = lock(&r.ledger)?;
        if q.submitted() != q.queued() + q.inflight() + q.committed() {
            return Err(Abort(format!(
                "replica {i} broke submitted == queued + inflight + committed"
            )));
        }
        if let Some(why) = &lock(&r.probe)?.broken {
            return Err(Abort(format!("replica {i}: {why}")));
        }
    }
    let mut witnessed = 0;
    for (conn, s) in &gen.statuses {
        if s.contradicted || !s.convicted.is_empty() {
            return Err(Abort(format!(
                "Status on connection {conn} reports a contradiction or convictions"
            )));
        }
        if s.submitted != s.queued + s.inflight + s.committed {
            return Err(Abort(format!(
                "Status on connection {conn} breaks ledger conservation"
            )));
        }
        // The service hashes its own replica's sealed log, so the digest
        // is checked against every other replica that sealed as far.
        let upto = usize::try_from(s.decided_slots).unwrap_or(usize::MAX);
        for (i, log) in logs.iter().enumerate() {
            if i == s.me as usize || log.len() < upto {
                continue;
            }
            if log_digest(&log[..upto]) != s.log_digest {
                return Err(Abort(format!(
                    "Status of replica {} disagrees with replica {i}'s first {upto} sealed slots",
                    s.me
                )));
            }
            witnessed += 1;
        }
    }
    if !gen.statuses.is_empty() && witnessed == 0 {
        return Err(Abort(
            "no Status digest could be checked against another replica".into(),
        ));
    }
    Ok(())
}

/// One command's timeline, µs on the run clock (0 = never reached).
#[derive(Debug, Clone, Copy)]
struct Life {
    value: u64,
    due: u64,
    sent: u64,
    ack: u64,
    accepted: u64,
    drained: u64,
    committed: u64,
}

/// What one measured pass produced.
struct Pass {
    setup_samples: Vec<u64>,
    /// Every accepted command's timeline (traced passes only).
    lives: Vec<Life>,
    /// How late each accepted command was sent, µs.
    late: Vec<u64>,
    attempted: u64,
    failed: u64,
    window_us: u64,
    cpu_ms: u64,
    slots_sealed: u64,
    burst_throughputs: Vec<u64>,
    /// Commit latencies per cluster, µs.
    cluster_latencies: Vec<Vec<u64>>,
    reconnects: u64,
    replicas: Vec<Replica>,
    reports: Vec<NetReport<Vec<ValueVector>>>,
}

impl Pass {
    fn committed(&self) -> u64 {
        self.cluster_latencies.iter().map(|c| c.len() as u64).sum()
    }

    /// Pools another cluster's pass into this one.
    fn absorb(&mut self, other: Pass) {
        self.setup_samples.extend(other.setup_samples);
        self.lives.extend(other.lives);
        self.late.extend(other.late);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.window_us += other.window_us;
        self.cpu_ms += other.cpu_ms;
        self.slots_sealed += other.slots_sealed;
        self.burst_throughputs.extend(other.burst_throughputs);
        self.cluster_latencies.extend(other.cluster_latencies);
        self.reconnects += other.reconnects;
        self.replicas.extend(other.replicas);
        self.reports.extend(other.reports);
    }
}

/// The latest commit among commands accepted at or after `from_us` on
/// the target replicas, or `None` while some of them is still pending.
fn commits_since(replicas: &[Replica], from_us: u64) -> Result<Option<u64>, Abort> {
    let mut latest = 0;
    for r in replicas.iter().take(TARGETS) {
        let p = lock(&r.probe)?;
        for (accepted, commit) in p.accepted_us.iter().zip(&p.commit_us) {
            if *accepted >= from_us {
                if *commit == 0 {
                    return Ok(None);
                }
                latest = latest.max(*commit);
            }
        }
    }
    Ok(Some(latest))
}

/// Waits (bounded by `deadline_us`) until every command accepted since
/// `from_us` committed; returns the latest commit time seen.
fn wait_commits(
    replicas: &[Replica],
    from_us: u64,
    clock: WallClock,
    deadline_us: u64,
) -> Result<u64, Abort> {
    loop {
        if let Some(latest) = commits_since(replicas, from_us)? {
            return Ok(latest);
        }
        if clock.micros() >= deadline_us {
            return Ok(clock.micros());
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// Runs the workload on `seconds / CLUSTER_SECONDS` fresh clusters (a
/// paced cluster runs for [`CLUSTER_SECONDS`], a burst cluster drains
/// [`BURSTS_PER_CLUSTER`] bursts) and pools them; the first boot is timed
/// from process start when `from_process_start`.
fn run_clusters(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    clock: WallClock,
    from_process_start: bool,
) -> Result<Pass, Abort> {
    let clusters = (seconds / CLUSTER_SECONDS).max(1);
    let share = seconds / clusters;
    let start = if from_process_start {
        0
    } else {
        clock.micros()
    };
    let mut pass = run_pass(spec, seed, share, traced, clock, start, 0)?;
    for i in 1..clusters {
        pass.absorb(run_pass(
            spec,
            seed,
            share,
            traced,
            clock,
            clock.micros(),
            i,
        )?);
    }
    Ok(pass)
}

/// Runs one measured pass of `spec` on a fresh cluster for `seconds`;
/// set-up is timed from `boot_start_us`.
fn run_pass(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    traced: bool,
    clock: WallClock,
    boot_start_us: u64,
    boot_index: u64,
) -> Result<Pass, Abort> {
    let mut values = Values::new(derive_seed(seed, 0x7661_6c73 + boot_index));
    let (cluster, mut gen, first_ack) =
        boot_and_first_accept(spec, seed, boot_index, traced, clock, &mut values)?;
    let setup_samples = vec![first_ack - boot_start_us];
    let t0 = clock.micros();
    let cpu0 = procfs::process_cpu_ms();
    let mut burst_throughputs = Vec::new();
    let last_commit = match spec.load {
        Load::Paced { rate } => {
            let period = 1_000_000 / rate;
            let schedule: Vec<_> = (0..rate * seconds)
                .map(|k| {
                    (
                        values.next(),
                        (k % TARGETS as u64) as usize,
                        t0 + k * period,
                    )
                })
                .collect();
            gen.schedule(schedule);
            gen.status_reads(STATUS_EVERY_US, t0);
            gen.run_until_replied(t0 + seconds * 1_000_000 + DRAIN_US);
            wait_commits(&cluster.replicas, t0, clock, clock.micros() + DRAIN_US)?
        }
        Load::Burst { backlog } => {
            let mut last = t0;
            for _ in 0..BURSTS_PER_CLUSTER {
                let start = clock.micros();
                let schedule: Vec<_> = (0..backlog)
                    .map(|k| (values.next(), (k % TARGETS as u64) as usize, start))
                    .collect();
                gen.schedule(schedule);
                gen.run_until_replied(start + DRAIN_US);
                last = wait_commits(&cluster.replicas, start, clock, start + DRAIN_US)?;
                burst_throughputs.push(backlog * 1_000_000_000 / last.saturating_sub(start).max(1));
            }
            last
        }
    };
    let cpu_ms = procfs::process_cpu_ms() - cpu0;
    let window_us = last_commit.saturating_sub(t0).max(1);
    let slots_sealed = lock(&cluster.replicas[0].probe)?
        .seal_us
        .iter()
        .filter(|&&t| t >= t0 && t <= last_commit)
        .count() as u64;
    let reconnects = gen.reconnects;
    let (replicas, reports) = stop(cluster, &mut gen)?;
    check_safety(&replicas, &reports, &gen)?;
    // Join the generator's view of each command with its replica's: a
    // replica accepts one connection's commands in send order.
    let mut cursor = [0usize; TARGETS];
    let mut lives = Vec::with_capacity(gen.cmds.len());
    let mut failed = 0;
    let probes: Vec<_> = replicas
        .iter()
        .take(TARGETS)
        .map(|r| lock(&r.probe))
        .collect::<Result<_, _>>()?;
    for (i, c) in gen.cmds.iter().enumerate() {
        let p = &probes[c.conn];
        let k = cursor[c.conn];
        let accepted = c.ack_us != 0 && !c.rejected && p.values.get(k) == Some(&c.value);
        if accepted {
            cursor[c.conn] += 1;
        }
        // The first command is the set-up probe, not part of the load.
        if i == 0 {
            continue;
        }
        if !accepted || p.commit_us[k] == 0 {
            failed += 1;
        }
        if accepted {
            lives.push(Life {
                value: c.value,
                due: c.due_us,
                sent: c.sent_us,
                ack: c.ack_us,
                accepted: p.accepted_us[k],
                drained: p.drained_us[k],
                committed: p.commit_us[k],
            });
        }
    }
    drop(probes);
    let cluster_latencies = vec![lives
        .iter()
        .filter(|l| l.committed != 0)
        .map(|l| l.committed.saturating_sub(l.due))
        .collect()];
    let late = lives.iter().map(|l| l.sent.saturating_sub(l.due)).collect();
    // Only a traced pass needs the replicas and timelines afterwards;
    // dropping them keeps an untraced run's peak memory to one cluster,
    // so it does not step with how many commands the host let it pool.
    let (lives, replicas, reports) = if traced {
        (lives, replicas, reports)
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    Ok(Pass {
        setup_samples,
        lives,
        late,
        attempted: (gen.cmds.len() - 1) as u64,
        failed,
        window_us,
        cpu_ms,
        slots_sealed,
        burst_throughputs,
        cluster_latencies,
        reconnects,
        replicas,
        reports,
    })
}

/// Runs the untraced workload: the end-to-end metrics.
pub fn run(spec: &Spec, seed: u64, seconds: u64, clock: WallClock) -> Result<Outcome, Abort> {
    let pass = run_clusters(spec, seed, seconds, false, clock, true)?;
    let mut setup_samples = pass.setup_samples.clone();
    let mut values = Values::new(derive_seed(seed, 0x7472_6961));
    for trial in 0..SETUP_TRIALS {
        let start = clock.micros();
        let (cluster, mut gen, ack) =
            boot_and_first_accept(spec, seed, 100 + trial, false, clock, &mut values)?;
        setup_samples.push(ack - start);
        stop(cluster, &mut gen)?;
    }
    let mut out = end_to_end(&pass);
    out.e2e_setup_us = median(&setup_samples);
    out.notes
        .push(format!("setup samples (us): {setup_samples:?}"));
    Ok(out)
}

fn end_to_end(pass: &Pass) -> Outcome {
    let commit = Dist::of(pass.cluster_latencies.concat());
    let late = Dist::of(pass.late.clone());
    let committed = pass.committed();
    // From the first submit to the last commit, over every burst.
    let throughput_milli = committed * 1_000_000_000 / pass.window_us;
    let mut out = Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        commit,
        tail: Tail::median_of(&pass.cluster_latencies),
        throughput_milli,
        cpu_ms: pass.cpu_ms,
        kcmd_base: committed,
        slots_milli: pass.slots_sealed * 1_000_000_000 / pass.window_us,
        ..Outcome::default()
    };
    out.notes.push(format!(
        "commit latency: {} samples, p50 {} us, pooled p99 {} us ({} above), p90/p95/p99.9 {:?} us; median per-cluster p99 {} us ({} above); loadgen.late_p99_ms {}",
        commit.samples,
        commit.p50,
        commit.p99,
        commit.above_p99,
        commit.tail,
        out.tail.p99,
        out.tail.above,
        Fixed::us_as_ms(late.p99)
    ));
    out.notes.push(format!(
        "{} attempted, {committed} committed in {} us, {} slots sealed at replica 0, {} reconnects; per-burst rates (cmd/s x1000): {:?}",
        pass.attempted, pass.window_us, pass.slots_sealed, pass.reconnects, pass.burst_throughputs
    ));
    out
}

/// Runs the traced workload: an untraced pass as the overhead baseline,
/// then a traced pass whose per-layer numbers are reported.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    clock: WallClock,
) -> Result<Outcome, Abort> {
    let plain = end_to_end(&run_clusters(spec, seed, seconds, false, clock, false)?);
    let pass = run_clusters(spec, seed, seconds, true, clock, false)?;
    let mut out = end_to_end(&pass);
    // The headline metric of each shape: latency when paced, rate in bursts.
    let overhead = match spec.load {
        Load::Paced { .. } => Fixed::change_pct(out.commit.p50, plain.commit.p50),
        Load::Burst { .. } => Fixed::change_pct(plain.throughput_milli, out.throughput_milli),
    };
    let (layers, replay_ok) = layers(spec, &pass, clock)?;
    out.layers = layers;
    out.layers.push(("trace.overhead_pct".into(), overhead));
    out.replay_ok = replay_ok;
    out.notes
        .extend(plain.notes.iter().map(|n| format!("untraced: {n}")));
    Ok(out)
}

/// Per-layer metrics of a traced pass, and whether the replayed
/// verdicts equalled the live ones.
fn layers(
    spec: &Spec,
    pass: &Pass,
    clock: WallClock,
) -> Result<(Vec<(String, Fixed)>, bool), Abort> {
    let mut m: Vec<(&str, Fixed)> = Vec::new();
    let mut slots = 0u64;
    let (mut batches, mut batched, mut requeued) = (0, 0, 0);
    let (mut status, mut gaps, mut filler, mut entries) = (Vec::new(), Vec::new(), 0, 0);
    let (mut cpu_us, mut wall_us, mut cpu_slots) = (0u64, 0u64, 0u64);
    for r in &pass.replicas {
        slots += lock(&r.sealed)?.len() as u64;
        let p = lock(&r.probe)?;
        batches += p.batches;
        batched += p.batched_cmds;
        requeued += p.requeued;
        status.extend_from_slice(&p.status_us);
        gaps.extend(p.seal_us.windows(2).map(|w| w[1] - w[0]));
        filler += p.filler_entries;
        entries += p.entries;
        if let (Some(a), Some(b)) = (p.cpu.first(), p.cpu.last()) {
            cpu_us += (b.cpu_ms - a.cpu_ms) * 1000;
            wall_us += b.at_us - a.at_us;
            cpu_slots += b.slots - a.slots;
        }
    }
    let replica_slots = u128::from(slots.max(1));
    let cluster_slots = u128::from((slots / N as u64).max(1));
    // net
    let rtt = Dist::of(
        pass.lives
            .iter()
            .map(|l| l.ack.saturating_sub(l.sent))
            .collect(),
    );
    m.push(("net.client_rtt_p50_us", Fixed::int(rtt.p50)));
    // Whole node-thread CPU: `actor.busy` is wall time inside callbacks,
    // which counts preemption on an oversubscribed box, so subtracting it
    // from CPU time would not isolate the transport.
    m.push((
        "net.node_cpu_us_per_slot",
        Fixed::ratio(u128::from(cpu_us), u128::from(cpu_slots), 1),
    ));
    m.push((
        "net.node_idle_pct",
        Fixed::ratio(
            u128::from(wall_us.saturating_sub(cpu_us)) * 100,
            u128::from(wall_us),
            2,
        ),
    ));
    let msgs: u64 = pass.reports.iter().map(|r| r.msgs_sent).sum();
    let bytes: u64 = pass.reports.iter().map(|r| r.bytes_sent).sum();
    m.push((
        "net.msgs_per_slot",
        Fixed::ratio(u128::from(msgs), cluster_slots, 2),
    ));
    m.push((
        "net.bytes_per_slot",
        Fixed::ratio(u128::from(bytes), cluster_slots, 1),
    ));
    m.push(("net.reconnects", Fixed::int(pass.reconnects)));
    let notes: Vec<&str> = pass
        .reports
        .iter()
        .flat_map(|r| r.notes.iter().map(String::as_str))
        .collect();
    let evictions = notes
        .iter()
        .filter(|n| n.starts_with("backpressure-disconnect"))
        .count();
    m.push(("net.evictions", Fixed::int(evictions as u64)));
    // serve and log
    let queue = Dist::of(
        pass.lives
            .iter()
            .filter(|l| l.drained != 0)
            .map(|l| l.drained.saturating_sub(l.accepted))
            .collect(),
    );
    m.push(("serve.queue_wait_p50_ms", Fixed::us_as_ms(queue.p50)));
    m.push((
        "serve.cmds_per_slot",
        Fixed::ratio(u128::from(batched), u128::from(batches), 2),
    ));
    m.push((
        "serve.requeue_pct",
        Fixed::ratio(u128::from(requeued) * 100, u128::from(batched), 2),
    ));
    m.push(("serve.status_us_p50", Fixed::int(Dist::of(status).p50)));
    let gaps = Dist::of(gaps);
    m.push(("log.slot_ms_p50", Fixed::us_as_ms(gaps.p50)));
    m.push(("log.slot_ms_p99", Fixed::us_as_ms(gaps.p99)));
    m.push((
        "log.filler_pct",
        Fixed::ratio(u128::from(filler) * 100, u128::from(entries), 2),
    ));
    let rounds = notes.iter().filter(|n| n.contains(":round=")).count() as u64;
    m.push((
        "log.rounds_per_slot",
        Fixed::ratio(u128::from(rounds), replica_slots, 3),
    ));
    // actor
    let (mut busy, mut msgs_in, mut timers) = (0, 0, 0);
    for r in &pass.replicas {
        let (b, mi, t) = r.counters.read();
        busy += b;
        msgs_in += mi;
        timers += t;
    }
    m.push((
        "actor.busy_us_per_slot",
        Fixed::ratio(u128::from(busy), replica_slots, 1),
    ));
    m.push((
        "actor.msgs_in_per_slot",
        Fixed::ratio(u128::from(msgs_in), replica_slots, 2),
    ));
    m.push((
        "actor.timers_per_slot",
        Fixed::ratio(u128::from(timers), replica_slots, 2),
    ));
    let late = Dist::of(pass.late.clone());
    m.push(("loadgen.late_p99_ms", Fixed::us_as_ms(late.p99)));
    // spans: one tree per command, the value as its id
    let mut spans = Spans::default();
    for l in pass.lives.iter().filter(|l| l.committed != 0) {
        let root = spans.push(l.value, "command", l.due, l.committed, None);
        spans.push(l.value, "loadgen", l.due, l.sent, Some(root));
        spans.push(l.value, "net", l.sent, l.accepted, Some(root));
        spans.push(l.value, "serve", l.accepted, l.drained, Some(root));
        spans.push(l.value, "log", l.drained, l.committed, Some(root));
    }
    let per_cmd = u128::from(pass.committed().max(1));
    for (name, total) in spans.self_time_by_name() {
        let metric = match name {
            "loadgen" => "trace.loadgen_self_ms",
            "net" => "trace.net_self_ms",
            "serve" => "trace.serve_self_ms",
            "log" => "trace.log_self_ms",
            _ => continue,
        };
        m.push((metric, Fixed::ratio(u128::from(total), per_cmd * 1000, 3)));
    }
    m.push(("trace.spans", Fixed::int(spans.len() as u64)));
    let path = std::path::Path::new(crate::OUT_DIR).join(format!("spans-{}.tsv", spec.name));
    spans
        .write(&path)
        .map_err(|e| Abort(format!("writing {}: {e}", path.display())))?;
    // modules, by replay
    let mut ledger = Ledger::default();
    let mut live = LiveCounts {
        slots,
        ..LiveCounts::default()
    };
    for (r, report) in pass.replicas.iter().zip(&pass.reports) {
        let mut records = lock(&r.sink)?.clone();
        records.sort_by_key(|rec| rec.slot);
        ledger.replay(protocol_id(spec.protocol), &r.setup, &records, &clock);
        live.memo_hits += r.setup.dir.cache_hits();
        live.memo_misses += r.setup.dir.cache_misses();
        live.honest_mistakes += last_stack_stat(
            report.notes.iter().map(String::as_str),
            "fd-honest-mistakes=",
        );
    }
    live.checkpoints = notes
        .iter()
        .filter(|n| n.contains("checkpoint slot=") || n.contains("catchup-applied"))
        .count() as u64;
    let mut out: Vec<(String, Fixed)> = m.into_iter().map(|(n, v)| (n.to_string(), v)).collect();
    out.extend(ledger.layer_metrics(live));
    Ok((out, ledger.mismatched == 0))
}

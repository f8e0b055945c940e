//! Long-log soaks over 10⁴ decided slots: checkpointed certificate
//! memory stays bounded, and full retention's evidence accounting stays
//! exact (and affordable) as history grows.
//!
//! The unit tests prove the flat-versus-linear shape and the accounting at
//! toy scale; these soaks run the replicated log long enough that
//! unbounded retention, or a per-slot cost that grows with history, would
//! be visible. They are `#[ignore]`d — the weekly deep-verify CI job runs
//! them in release mode.

use std::sync::{Arc, Mutex};

use ft_modular::certify::ValueVector;
use ft_modular::core::byzantine::log::{ReplicatedLog, Retention, SlotMsg};
use ft_modular::core::byzantine::ByzantineConsensus;
use ft_modular::core::config::ProtocolConfig;
use ft_modular::faults::AttackRun;
use ft_modular::sim::trace::TraceEvent;
use ft_modular::sim::{Actor, Context, ProcessId, SimConfig, Simulation, TimerTag};

const SLOTS: u64 = 10_000;

#[test]
#[ignore = "10^4-slot soak; run in release via the deep-verify cron"]
fn checkpointed_log_memory_is_bounded_over_ten_thousand_slots() {
    let report = AttackRun::new(4, 1, 9, 0)
        .retention(Retention::Checkpoint)
        .run_log(SLOTS, |_| None);

    // Every replica decided every slot and the logs agree.
    for (p, log) in report.decisions.iter().enumerate() {
        let log = log
            .as_ref()
            .unwrap_or_else(|| panic!("p{p} never finished"));
        assert_eq!(log.len() as u64, SLOTS, "p{p} lost slots");
        assert_eq!(
            Some(log),
            report.decisions[0].as_ref(),
            "p{p} diverged from p0"
        );
    }

    // Replica 0's retained evidence: one sound checkpoint per slot, and
    // the per-slot retained bytes never trend upward — the whole point of
    // compaction. (Full retention reaches ~SLOTS × quorum-cert bytes.)
    let mut series: Vec<u64> = Vec::new();
    for entry in report.trace.entries() {
        if let TraceEvent::Note { process, text } = &entry.event {
            if process.0 == 0 {
                assert!(
                    !text.starts_with("checkpoint-unsound"),
                    "replica 0 built an unsound checkpoint: {text}"
                );
                if text.starts_with("checkpoint slot=") {
                    if let Some(bytes) =
                        text.rsplit_once("bytes=").and_then(|(_, b)| b.parse().ok())
                    {
                        series.push(bytes);
                    }
                }
            }
        }
    }
    assert_eq!(series.len() as u64, SLOTS, "a slot was never compacted");
    let (min, max) = (*series.iter().min().unwrap(), *series.iter().max().unwrap());
    assert!(
        max < 2 * min,
        "checkpoint bytes drifted: min={min} max={max} (first={} last={})",
        series[0],
        series[SLOTS as usize - 1]
    );
}

/// A replica that records, as each slot seals, the size of the decide
/// certificate it retained for that slot.
struct CertSizes {
    log: ReplicatedLog<ByzantineConsensus>,
    sizes: Arc<Mutex<Vec<usize>>>,
}

impl CertSizes {
    fn record(&mut self) {
        let mut sizes = self.sizes.lock().unwrap();
        while sizes.len() < self.log.decided_slots() {
            let slot = sizes.len() as u64;
            let cert = self
                .log
                .retained_certificate(slot)
                .unwrap_or_else(|| panic!("slot {slot} sealed without retained evidence"));
            sizes.push(cert.size_bytes());
        }
    }
}

impl Actor for CertSizes {
    type Msg = SlotMsg;
    type Decision = Vec<ValueVector>;

    fn on_start(&mut self, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
        self.log.on_start(ctx);
        self.record();
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &SlotMsg,
        ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>,
    ) {
        self.log.on_message(from, msg, ctx);
        self.record();
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, SlotMsg, Vec<ValueVector>>) {
        self.log.on_timer(tag, ctx);
        self.record();
    }
}

#[test]
#[ignore = "10^4-slot soak; run in release via the deep-verify cron"]
fn full_retention_accounts_every_slot_exactly_over_ten_thousand_slots() {
    let setup = ProtocolConfig::new(4, 1).seed(9).setup();
    let sizes: Arc<Mutex<Vec<usize>>> = Arc::default();
    let report = Simulation::build_boxed(SimConfig::new(4).seed(9), |id| {
        let log = ReplicatedLog::<ByzantineConsensus>::new(&setup, id, SLOTS, |slot, p| {
            1000 * slot + u64::from(p)
        })
        .with_retention(Retention::Full)
        .with_catchup(8);
        let sizes = if id.0 == 0 {
            Arc::clone(&sizes)
        } else {
            Arc::default()
        };
        Box::new(CertSizes { log, sizes })
    })
    .run();
    let log0 = report.decisions[0].as_ref().expect("p0 never finished");
    assert_eq!(log0.len() as u64, SLOTS);
    for (p, log) in report.decisions.iter().enumerate() {
        assert_eq!(log.as_ref(), Some(log0), "p{p} diverged from p0");
    }

    // Replica 0's `evidence slot=` series: one note per slot, each
    // exceeding the last by exactly the certificate retained for it.
    let mut series: Vec<usize> = Vec::new();
    let mut catchups = 0usize;
    for entry in report.trace.entries() {
        if let TraceEvent::Note { process, text } = &entry.event {
            if process.0 != 0 {
                continue;
            }
            if text.starts_with("catchup-sent") {
                catchups += 1;
            }
            if text.starts_with("evidence slot=") {
                if let Some(bytes) = text.rsplit_once("bytes=").and_then(|(_, b)| b.parse().ok()) {
                    series.push(bytes);
                }
            }
        }
    }
    let sizes = sizes.lock().unwrap();
    assert_eq!(series.len() as u64, SLOTS, "a slot's evidence went unnoted");
    assert_eq!(
        sizes.len() as u64,
        SLOTS,
        "a slot's certificate went unrecorded"
    );
    let mut total = 0;
    for (slot, (bytes, size)) in series.iter().zip(sizes.iter()).enumerate() {
        total += size;
        assert_eq!(
            *bytes, total,
            "slot {slot}: evidence note off the certificate sum"
        );
    }
    assert!(
        catchups > 0,
        "no catch-up reply was built from retained evidence"
    );
}

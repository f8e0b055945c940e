//! Traced-run instrumentation that sits outside the program: forwarding
//! wrappers around the actor and around each slot's protocol instance,
//! and an in-memory span store.
//!
//! Nothing here changes what the wrapped code does; the wrappers only
//! observe the calls they forward.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ftm_certify::{Certificate, Envelope, ProtocolId, Value, ValueVector};
use ftm_core::byzantine::TransformedProtocol;
use ftm_core::config::ProtocolSetup;
use ftm_core::transform::{ModuleStack, StackStats};
use ftm_net::WallClock;
use ftm_runtime::{Actor, Context, ProcessId, TimerTag, VirtualTime};

/// One envelope as the slot instance received it.
#[derive(Debug, Clone)]
pub struct Inbound {
    /// The channel sender.
    pub from: ProcessId,
    /// The envelope.
    pub env: Envelope,
    /// The instance's clock at delivery.
    pub now: VirtualTime,
}

/// Everything one slot instance saw, plus its stack's own counters.
#[derive(Debug, Clone)]
pub struct SlotRecord {
    /// The log slot this instance ran.
    pub slot: u64,
    /// Envelopes delivered to the instance, in delivery order.
    pub inbound: Vec<Inbound>,
    /// The live stack's counters when the instance was retired.
    pub live: StackStats,
}

/// Where retired slot instances deliver their records.
pub type Sink = Arc<Mutex<Vec<SlotRecord>>>;

thread_local! {
    /// The `(slot, sink)` the next [`Recorded::build`] on this thread
    /// attaches to. The replicated log calls its command source for a
    /// slot immediately before it builds that slot's instance, on the
    /// same thread, so the source arms this and `build` takes it.
    static PENDING: RefCell<Option<(u64, Sink)>> = const { RefCell::new(None) };
}

/// Arms the next instance built on this thread to record into `sink`.
pub fn arm(slot: u64, sink: &Sink) {
    PENDING.with(|p| *p.borrow_mut() = Some((slot, Arc::clone(sink))));
}

/// A slot instance wrapper that records every delivered envelope and, on
/// retirement, the live stack counters.
pub struct Recorded<P: TransformedProtocol> {
    inner: P,
    slot: u64,
    sink: Option<Sink>,
    inbound: Vec<Inbound>,
}

impl<P: TransformedProtocol> Actor for Recorded<P> {
    type Msg = Envelope;
    type Decision = ValueVector;

    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.inner.on_start(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        // A decided instance ignores deliveries before its stack sees
        // them, so only undecided deliveries are admit inputs.
        if self.sink.is_some() && self.inner.decide_evidence().is_none() {
            self.inbound.push(Inbound {
                from,
                env: msg.clone(),
                now: ctx.now(),
            });
        }
        self.inner.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.inner.on_timer(tag, ctx);
    }
}

impl<P: TransformedProtocol> TransformedProtocol for Recorded<P> {
    const ID: ProtocolId = P::ID;

    fn build(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self {
        let (slot, sink) = match PENDING.with(|p| p.borrow_mut().take()) {
            Some((slot, sink)) => (slot, Some(sink)),
            None => (0, None),
        };
        Recorded {
            inner: P::build(setup, me, value),
            slot,
            sink,
            inbound: Vec::new(),
        }
    }

    fn stack(&self) -> &ModuleStack {
        self.inner.stack()
    }

    fn decide_evidence(&self) -> Option<&Certificate> {
        self.inner.decide_evidence()
    }
}

impl<P: TransformedProtocol> Drop for Recorded<P> {
    fn drop(&mut self) {
        let Some(sink) = self.sink.take() else {
            return;
        };
        let record = SlotRecord {
            slot: self.slot,
            inbound: std::mem::take(&mut self.inbound),
            live: self.inner.stack().stats(),
        };
        let records = sink.lock();
        if let Ok(mut records) = records {
            records.push(record);
        }
    }
}

/// Counters of the forwarding actor wrapper (statistics only, so relaxed
/// atomics suffice).
#[derive(Debug, Default)]
pub struct ActorCounters {
    /// Microseconds spent inside actor callbacks.
    pub busy_us: AtomicU64,
    /// Messages delivered.
    pub msgs_in: AtomicU64,
    /// Timers fired.
    pub timers: AtomicU64,
}

impl ActorCounters {
    /// `(busy_us, msgs_in, timers)` now.
    pub fn read(&self) -> (u64, u64, u64) {
        (
            self.busy_us.load(Ordering::Relaxed),
            self.msgs_in.load(Ordering::Relaxed),
            self.timers.load(Ordering::Relaxed),
        )
    }
}

/// Forwards every [`Actor`] callback to `inner`, timing it.
pub struct Timed<A> {
    inner: A,
    clock: WallClock,
    counters: Arc<ActorCounters>,
}

impl<A> Timed<A> {
    /// Wraps `inner`; callback time is read from `clock`.
    pub fn new(inner: A, clock: WallClock, counters: Arc<ActorCounters>) -> Self {
        Timed {
            inner,
            clock,
            counters,
        }
    }

    fn timed(&mut self, call: impl FnOnce(&mut A)) {
        let start = self.clock.micros();
        call(&mut self.inner);
        let spent = self.clock.micros().saturating_sub(start);
        self.counters.busy_us.fetch_add(spent, Ordering::Relaxed);
    }
}

impl<A: Actor> Actor for Timed<A> {
    type Msg = A::Msg;
    type Decision = A::Decision;

    fn on_start(&mut self, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        self.timed(|a| a.on_start(ctx));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &A::Msg,
        ctx: &mut Context<'_, A::Msg, A::Decision>,
    ) {
        self.counters.msgs_in.fetch_add(1, Ordering::Relaxed);
        self.timed(|a| a.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, A::Msg, A::Decision>) {
        self.counters.timers.fetch_add(1, Ordering::Relaxed);
        self.timed(|a| a.on_timer(tag, ctx));
    }
}

/// One timed interval of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one command (its value) or one cell.
    pub id: u64,
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, µs on the run clock.
    pub start_us: u64,
    /// End, µs on the run clock.
    pub end_us: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span and returns its index (for children to point at).
    pub fn push(
        &mut self,
        id: u64,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            id,
            name,
            start_us,
            end_us: end_us.max(start_us),
            parent,
        });
        self.spans.len() - 1
    }

    /// Self time summed per span name: each span's duration minus the
    /// part of it its children cover.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.end_us - s.start_us - covered(s.start_us, s.end_us, &mut children[i]);
            match totals.iter_mut().find(|(name, _)| *name == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as tab-separated lines
    /// (`index id name start_us end_us parent`).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("index\tid\tname\tstart_us\tend_us\tparent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.id, s.name, s.start_us, s.end_us
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let mut spans = Spans::default();
        let root = spans.push(1, "root", 0, 100, None);
        spans.push(1, "a", 10, 40, Some(root));
        spans.push(1, "b", 30, 60, Some(root));
        let totals = spans.self_time_by_name();
        assert_eq!(totals, vec![("root", 50), ("a", 30), ("b", 30)]);
    }
}

//! The transformed-process shell: one Fig. 1 process, generic over the
//! round-based protocol it hosts.
//!
//! Everything a transformed process does that is not its round logic lives
//! here exactly once: the key pair and the send path (module 1 signs what
//! module 4 certifies), the receive pipeline through the [`ModuleStack`]
//! (modules 1–3, with detection notes and silent quarantine), the
//! vector-certification phase (the INIT exchange of Fig. 3 lines 4–9), the
//! future-round buffer and stale-round drop, the DECIDE relay, the poll
//! timer, and the per-round notes. A protocol plugs in as a
//! [`RoundModule`] (module 5) holding only its own round state and rules;
//! [`Transformed<R>`] is the resulting [`Actor`], monomorphized per
//! protocol.

use ftm_certify::vector::VectorBuilder;
use ftm_certify::{Certificate, Core, Envelope, ProtocolId, Round, SignedCore, Value, ValueVector};
use ftm_crypto::rsa::KeyPair;
use ftm_sim::{Actor, Context, Duration, ProcessId, TimerTag};

use crate::config::ProtocolSetup;
use crate::spec::Resilience;
use crate::transform::{Admit, ModuleStack};

const POLL_TIMER: TimerTag = 1;

/// What the shell does after a round module handled an event.
#[derive(Debug)]
pub enum Step {
    /// Stay in the current round.
    Stay,
    /// The round is over: open the next one.
    NextRound,
    /// Decide `vector` in the current round; the certificate is the
    /// decide-vote quorum the DECIDE relays.
    Decide(ValueVector, Certificate),
}

/// The round-based protocol of Fig. 1 (module 5): the only part of a
/// transformed process that depends on the protocol being transformed.
///
/// The shell calls a module only in the round phase, only with admitted
/// messages of the module's current round (never INIT, DECIDE or
/// CHECKPOINT), and never after the instance decided.
pub trait RoundModule: Sized {
    /// The base protocol's identity (selects the stack's observer and
    /// certification tables).
    const ID: ProtocolId;

    /// The module before round 1.
    fn new(res: Resilience) -> Self;

    /// The current round (0 before the first).
    fn round(&self) -> Round;

    /// Adopts the certified initial vector and its INIT backing.
    fn start(&mut self, vect: ValueVector, cert: Certificate);

    /// Leaves the current round and enters the next (state only).
    fn advance(&mut self);

    /// The opening sends of the round just entered.
    fn open_round(&mut self, sh: &Shell, ctx: &mut Context<'_, Envelope, ValueVector>);

    /// Handles an admitted message of the current round.
    fn deliver(
        &mut self,
        sh: &Shell,
        from: ProcessId,
        env: Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) -> Step;

    /// The periodic poll: the protocol's `suspected ∪ faulty` escapes.
    fn on_poll(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Envelope, ValueVector>) -> Step;
}

/// The modules a round module reaches through the shell: the signature
/// module (send path) and the module stack (detectors).
#[derive(Debug)]
pub struct Shell {
    /// This process.
    pub(crate) me: ProcessId,
    /// Modules 1–3 of the receive path, plus the detectors' verdicts.
    pub(crate) stack: ModuleStack,
    keys: KeyPair,
}

impl Shell {
    /// Signs and broadcasts a message: the send path of Fig. 1 (the
    /// certification module appends `cert`, the signature module signs).
    /// Returns the broadcast signed core, so a local certificate can hold
    /// the own vote without signing it a second time.
    pub(crate) fn send_all(
        &self,
        core: Core,
        cert: Certificate,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) -> SignedCore {
        let env = Envelope::make(self.me, core, cert, &self.keys);
        let signed = env.signed.clone();
        ctx.broadcast(env);
        signed
    }
}

/// One process of a transformed protocol: the shell around round module
/// `R`.
#[derive(Debug)]
pub struct Transformed<R> {
    shell: Shell,
    round: R,
    value: Value,
    poll_interval: Duration,
    /// The vector-certification phase (collecting `n − F` INITs); `None`
    /// once the rounds have begun.
    builder: Option<VectorBuilder>,
    /// Admitted messages of rounds not yet entered.
    buffered: Vec<(ProcessId, Envelope)>,
    /// The decide-vote quorum this decision rests on, kept after halting
    /// so the log layer can compact it into a checkpoint (see
    /// `ftm_certify::checkpoint`). `Some` exactly once decided.
    decide_evidence: Option<Certificate>,
}

impl<R: RoundModule> Transformed<R> {
    /// Creates a process proposing `value`.
    ///
    /// # Panics
    ///
    /// Panics if `me` has no key pair in `setup`.
    pub fn new(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self {
        let res = setup.resilience;
        Transformed {
            shell: Shell {
                me,
                stack: ModuleStack::for_setup(R::ID, setup),
                keys: setup.keys[me.index()].clone(),
            },
            round: R::new(res),
            value,
            poll_interval: setup.config.poll_interval,
            builder: Some(VectorBuilder::new(res.n(), res.f())),
            buffered: Vec::new(),
            decide_evidence: None,
        }
    }

    /// Read access to the module stack (evidence logs, detector state).
    pub fn stack(&self) -> &ModuleStack {
        &self.shell.stack
    }

    /// The decide-vote quorum backing this process's decision, once
    /// decided.
    pub fn decide_evidence(&self) -> Option<&Certificate> {
        self.decide_evidence.as_ref()
    }

    /// Opens the next round and replays what was buffered for it.
    fn begin_round(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        self.round.advance();
        let r = self.round.round();
        self.shell.stack.enter_round(r, ctx.now());
        ctx.note(format!("round={r}"));
        // Per-round stack snapshot: the harness keeps the *last* note per
        // process, so churn under adverse networks is visible even when
        // the run never decides.
        ctx.note(self.shell.stack.stats_note());
        self.round.open_round(&self.shell, ctx);
        self.drain_buffer(ctx);
    }

    fn drain_buffer(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        while self.decide_evidence.is_none() {
            let r = self.round.round();
            let Some(pos) = self.buffered.iter().position(|(_, env)| env.round() == r) else {
                return;
            };
            let (from, env) = self.buffered.remove(pos);
            self.handle_admitted(from, env, ctx);
        }
    }

    fn handle_admitted(
        &mut self,
        from: ProcessId,
        env: Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        match env.core() {
            Core::Init { .. } => {
                // Late INITs beyond the n − F we waited for are ignored.
                let Some(builder) = self.builder.as_mut() else {
                    return;
                };
                builder.absorb(&env);
                if builder.complete() {
                    // Lines 6–9 exit: the certified vector is ready.
                    let Some(done) = self.builder.take() else {
                        return;
                    };
                    let (vect, cert) = done.finish();
                    ctx.note(format!("vector-certified vect={vect:?}"));
                    self.round.start(vect, cert);
                    self.begin_round(ctx);
                }
            }
            Core::Decide { round, vector } => {
                // Lines 2–3: relay with the same certificate and decide.
                self.decide(*round, vector.clone(), env.cert.clone(), ctx);
            }
            Core::Checkpoint { .. } => {
                // Log-layer compaction metadata: valid (the analyzer
                // audited its quorum), but a single consensus instance has
                // nothing to do with it — slot retention is the
                // `ReplicatedLog`'s business.
            }
            _ => {
                let r = self.round.round();
                if self.builder.is_some() || env.round() > r {
                    self.buffered.push((from, env));
                } else if env.round() == r {
                    let step = self.round.deliver(&self.shell, from, env, ctx);
                    self.apply(step, ctx);
                }
                // Otherwise a stale vote, discarded (footnote 5).
            }
        }
    }

    fn apply(&mut self, step: Step, ctx: &mut Context<'_, Envelope, ValueVector>) {
        match step {
            Step::Stay => {}
            Step::NextRound => self.begin_round(ctx),
            Step::Decide(vector, cert) => self.decide(self.round.round(), vector, cert, ctx),
        }
    }

    /// Decide, announce, stop (Fig. 3 lines 20–21 and 2–3).
    fn decide(
        &mut self,
        round: Round,
        vector: ValueVector,
        cert: Certificate,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        self.decide_evidence = Some(cert.clone());
        self.shell.send_all(
            Core::Decide {
                round,
                vector: vector.clone(),
            },
            cert,
            ctx,
        );
        // Final per-layer receive-side tally, in note form so trace
        // consumers (the sweep harness) can collect it without reaching
        // into actor state.
        ctx.note(self.shell.stack.stats_note());
        ctx.decide(vector);
        ctx.halt();
    }
}

impl<R: RoundModule> Actor for Transformed<R> {
    type Msg = Envelope;
    type Decision = ValueVector;

    fn on_start(&mut self, ctx: &mut Context<'_, Envelope, ValueVector>) {
        // Line 5: broadcast the signed proposal with an empty certificate.
        self.shell
            .send_all(Core::Init { value: self.value }, Certificate::new(), ctx);
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        env: &Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        if self.decide_evidence.is_some() {
            return;
        }
        // The receive path of Fig. 1: signature → muteness → non-muteness.
        let was_faulty = self.shell.stack.is_faulty(env.sender());
        match self.shell.stack.admit(from, env, ctx.now()) {
            Admit::Accepted(_trigger) => self.handle_admitted(from, env.clone(), ctx),
            Admit::Discarded(e) => {
                // Messages from an already convicted peer are quarantined
                // silently — the detection already happened; re-noting every
                // dropped straggler would inflate the detection metrics with
                // protocol-dependent traffic-volume artifacts.
                if !was_faulty {
                    ctx.note(format!(
                        "detected={} class={} reason={}",
                        e.culprit, e.class, e.reason
                    ));
                } else {
                    self.shell.stack.record_quarantine();
                }
            }
        }
    }

    fn on_timer(&mut self, _tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>) {
        if self.decide_evidence.is_some() {
            return;
        }
        if self.builder.is_none() {
            let step = self.round.on_poll(&mut self.shell, ctx);
            self.apply(step, ctx);
        }
        ctx.set_timer(self.poll_interval, POLL_TIMER);
    }
}

//! Hurfin–Raynal as a round module: the round loop of the transformed
//! consensus (paper Fig. 3, lines 10–32).
//!
//! Line-number comments reference Fig. 3. The structural differences from
//! the crash protocol (Fig. 2) are exactly the paper's gray-shaded parts:
//! certificates on every send, quorums of `n − F`, and the
//! `suspected ∪ faulty` guard. The INIT phase, the receive pipeline and the
//! DECIDE relay are the shell's ([`crate::transform::shell`]).

use ftm_certify::{
    Certificate, Core, Envelope, MessageKind, ProtocolId, Round, SignedCore, ValueVector,
};
use ftm_sim::{Context, ProcessId};

use crate::spec::Resilience;
use crate::transform::rules::{change_mind_from_certificates, state_from_certificates, PaperState};
use crate::transform::shell::{RoundModule, Shell, Step, Transformed};

/// One process of the transformed Hurfin–Raynal protocol.
///
/// # Example
///
/// ```
/// use ftm_core::byzantine::ByzantineConsensus;
/// use ftm_core::config::ProtocolConfig;
/// use ftm_sim::{SimConfig, Simulation};
///
/// let setup = ProtocolConfig::new(4, 1).setup();
/// let report = Simulation::build_boxed(SimConfig::new(4).seed(3), |id| {
///     Box::new(ByzantineConsensus::new(&setup, id, id.0 as u64))
/// })
/// .run();
/// assert!(report.all_decided());
/// ```
pub type ByzantineConsensus = Transformed<HrRounds>;

/// The Hurfin–Raynal round state and rules (lines 10–32).
#[derive(Debug)]
pub struct HrRounds {
    res: Resilience,
    r: Round,
    est_vect: ValueVector,
    est_cert: Certificate,
    current_cert: Certificate,
    next_cert: Certificate,
    /// The `n − F` NEXT(r−1) items that justified entering round `r`
    /// (carried by our first sends of the round as round-entry evidence).
    entry_cert: Certificate,
    /// The coordinator's signed CURRENT for this round, once seen
    /// (needed to certify relays, line 19).
    coord_core: Option<SignedCore>,
    sent_next: bool,
}

impl HrRounds {
    fn quorum(&self) -> usize {
        self.res.quorum()
    }

    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }

    /// The paper's certificate-derived state expression (§5.1) — asserted
    /// against the explicit flags at every use.
    fn derived_state(&self) -> PaperState {
        state_from_certificates(
            self.current_cert.count(MessageKind::Current, self.r),
            self.sent_next,
        )
    }

    /// Vote NEXT exactly once per round; the own signed NEXT joins
    /// `next_cert` immediately, which *is* the paper's `state = q2`
    /// expressed over certificates.
    fn vote_next(
        &mut self,
        sh: &Shell,
        cert: Certificate,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) {
        debug_assert!(!self.sent_next, "double NEXT would convict us");
        let own = sh.send_all(Core::Next { round: self.r }, cert, ctx);
        self.next_cert.insert(own);
        self.sent_next = true;
        debug_assert_eq!(self.derived_state(), PaperState::Q2);
    }

    /// CURRENT items in `current_cert` that endorse exactly `est_vect`.
    fn matching_current(&self) -> Certificate {
        Certificate::from_items(
            self.current_cert
                .iter_kind_round(MessageKind::Current, self.r)
                .filter(|i| i.core().core.vector() == Some(&self.est_vect))
                .cloned(),
        )
    }

    /// The `upon` cascade evaluated after every vote (change_mind, round
    /// end) — lines 28–31.
    fn after_vote(&mut self, sh: &Shell, ctx: &mut Context<'_, Envelope, ValueVector>) -> Step {
        let currents = self.current_cert.count(MessageKind::Current, self.r);
        let nexts = self.next_cert.count(MessageKind::Next, self.r);
        let rec_from = self
            .current_cert
            .union(&self.next_cert)
            .rec_from(self.r)
            .len();
        // Lines 28–29: change_mind, expressed over certificates.
        if change_mind_from_certificates(currents, nexts, self.sent_next, rec_from, self.quorum()) {
            ctx.note(format!("change-mind r={}", self.r));
            let cert = self
                .current_cert
                .union(&self.next_cert)
                .union(&self.entry_cert);
            self.vote_next(sh, cert, ctx);
        }
        // Line 14 exit + 31: a NEXT quorum ends the round.
        if self.next_cert.count(MessageKind::Next, self.r) >= self.quorum() {
            if !self.sent_next {
                let cert = self.next_cert.union(&self.entry_cert);
                self.vote_next(sh, cert, ctx);
            }
            return Step::NextRound;
        }
        Step::Stay
    }
}

impl RoundModule for HrRounds {
    const ID: ProtocolId = ProtocolId::HurfinRaynal;

    fn new(res: Resilience) -> Self {
        HrRounds {
            res,
            r: 0,
            est_vect: ValueVector::empty(res.n()),
            est_cert: Certificate::new(),
            current_cert: Certificate::new(),
            next_cert: Certificate::new(),
            entry_cert: Certificate::new(),
            coord_core: None,
            sent_next: false,
        }
    }

    fn round(&self) -> Round {
        self.r
    }

    fn start(&mut self, vect: ValueVector, cert: Certificate) {
        self.est_vect = vect;
        self.est_cert = cert;
    }

    /// Lines 11–13: open round `r + 1`.
    fn advance(&mut self) {
        // The NEXT quorum that ended the previous round becomes the
        // round-entry evidence for this one (the paper's "r is certified
        // by next_cert before it is reset").
        self.entry_cert = std::mem::take(&mut self.next_cert);
        self.r += 1;
        self.current_cert = Certificate::new();
        self.coord_core = None;
        self.sent_next = false;
    }

    fn open_round(&mut self, sh: &Shell, ctx: &mut Context<'_, Envelope, ValueVector>) {
        debug_assert_eq!(self.derived_state(), PaperState::Q0);
        if sh.me == self.coordinator() {
            // Line 12: the coordinator proposes its certified vector,
            // certified by est_cert ∪ next_cert (entry evidence).
            sh.send_all(
                Core::Current {
                    round: self.r,
                    vector: self.est_vect.clone(),
                },
                self.est_cert.union(&self.entry_cert),
                ctx,
            );
        }
    }

    fn deliver(
        &mut self,
        sh: &Shell,
        from: ProcessId,
        env: Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) -> Step {
        match env.core() {
            Core::Current { vector, .. } => {
                let was_empty = self.current_cert.count(MessageKind::Current, self.r) == 0;
                self.current_cert.insert(env.signed.clone());
                if was_empty {
                    // Line 17: adopt the first CURRENT's vector and the
                    // INIT backing from its certificate.
                    self.est_vect = vector.clone();
                    self.est_cert = env.cert.init_portion();
                    self.coord_core = if from == self.coordinator() {
                        Some(env.signed.clone())
                    } else {
                        env.cert
                            .find_current(self.coordinator(), self.r, vector)
                            .cloned()
                    };
                    debug_assert!(self.coord_core.is_some(), "analyzer guarantees backing");
                    // Lines 18–19: q0 → q1 with a certified relay.
                    if !self.sent_next && sh.me != self.coordinator() {
                        let mut cert = self.est_cert.clone();
                        if let Some(cc) = &self.coord_core {
                            cert.insert(cc.clone());
                        }
                        sh.send_all(
                            Core::Current {
                                round: self.r,
                                vector: self.est_vect.clone(),
                            },
                            cert,
                            ctx,
                        );
                    }
                    debug_assert_ne!(self.derived_state(), PaperState::Q0);
                }
                // Lines 20–21: a quorum endorsing our vector decides.
                let matching = self.matching_current();
                if matching.count(MessageKind::Current, self.r) >= self.quorum() {
                    return Step::Decide(self.est_vect.clone(), matching);
                }
                self.after_vote(sh, ctx)
            }
            Core::Next { .. } => {
                // Lines 26–27.
                self.next_cert.insert(env.signed.clone());
                self.after_vote(sh, ctx)
            }
            _ => {
                // Chandra–Toueg kinds: the observer convicts them as
                // outside Hurfin–Raynal's alphabet before admission.
                debug_assert!(false, "HR stack admitted a CT-kind message");
                Step::Stay
            }
        }
    }

    fn on_poll(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Envelope, ValueVector>) -> Step {
        // Lines 22–25: upon p_c ∈ (suspected ∪ faulty) while in q0.
        if self.derived_state() == PaperState::Q0 {
            let coord = self.coordinator();
            if sh.stack.suspected_or_faulty(coord, ctx.now()) {
                ctx.note(format!("suspect={} r={}", coord, self.r));
                let cert = self
                    .current_cert
                    .union(&self.next_cert)
                    .union(&self.est_cert)
                    .union(&self.entry_cert);
                self.vote_next(sh, cert, ctx);
                return self.after_vote(sh, ctx);
            }
        }
        Step::Stay
    }
}

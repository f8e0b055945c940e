//! Chandra–Toueg as a round module: the crash-model ◇S protocol of
//! [`crate::crash::chandra_toueg`] hosted by the same transformed-process
//! shell ([`crate::transform::shell`]) as the Hurfin–Raynal instance.
//!
//! The round discipline is CT's four-phase pattern, made auditable:
//!
//! 1. **ESTIMATE** — every process opens the round by broadcasting its
//!    certified estimate vector with the round in which it was adopted
//!    (`ts`); a `ts > 0` claim must quote the `ts`-round coordinator's
//!    signed `PROPOSE`, so freshness cannot be forged.
//! 2. **PROPOSE** — the round coordinator gathers `n − F` signed
//!    estimates, adopts a maximum-timestamp one, and broadcasts it with
//!    the estimate quorum as certificate (the analyzer re-derives the
//!    adoption rule).
//! 3. **ACK / NACK** — a process that sees the proposal echoes it with an
//!    `ACK` quoting the coordinator's *own signed* `PROPOSE` (the
//!    coordinator-echo discipline: one hop, no re-certification chain,
//!    unlike HR's relayed `CURRENT`s). A process that instead comes to
//!    suspect the coordinator (`suspected ∪ faulty`) broadcasts a
//!    structural `NACK`.
//! 4. **DECIDE** — `n − F` signed `ACK`s for one vector decide it; the
//!    `DECIDE` relays that quorum as its certificate.
//!
//! A quorum of round-`r` `ACK/NACK` votes is the evidence that lets a
//! correct process open round `r + 1` (the CT analogue of HR's `NEXT`
//! portion). Messages are broadcast — every process audits every step,
//! exactly as in the transformed HR instance.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use ftm_certify::{
    Certificate, Core, Envelope, MessageKind, ProtocolId, Round, SignedCore, ValueVector,
};
use ftm_sim::{Context, ProcessId};

use crate::spec::Resilience;
use crate::transform::shell::{RoundModule, Shell, Step, Transformed};

/// One process of the transformed Chandra–Toueg protocol.
///
/// # Example
///
/// ```
/// use ftm_core::byzantine::ByzantineChandraToueg;
/// use ftm_core::config::ProtocolConfig;
/// use ftm_sim::{SimConfig, Simulation};
///
/// let setup = ProtocolConfig::new(4, 1).setup();
/// let report = Simulation::build_boxed(SimConfig::new(4).seed(3), |id| {
///     Box::new(ByzantineChandraToueg::new(&setup, id, id.0 as u64))
/// })
/// .run();
/// assert!(report.all_decided());
/// ```
pub type ByzantineChandraToueg = Transformed<CtRounds>;

/// The Chandra–Toueg round state and rules (phases 1–4).
#[derive(Debug)]
pub struct CtRounds {
    res: Resilience,
    r: Round,
    est_vect: ValueVector,
    /// INIT backing of `est_vect` (the vector-certification portion).
    est_cert: Certificate,
    /// Round in which `est_vect` was last adopted (0 = initial).
    ts: Round,
    /// The `ts`-round coordinator's signed PROPOSE backing `(est_vect, ts)`
    /// — carried by every later ESTIMATE so the timestamp is auditable.
    ts_backing: Option<SignedCore>,
    /// Round-`r` ESTIMATE envelopes, one per sender (coordinator input).
    estimates: Vec<Envelope>,
    /// Round-`r` signed ACK/NACK items (the round's vote record; a quorum
    /// of distinct voters ends the round and certifies entry into `r+1`).
    vote_cert: Certificate,
    /// The ACK/NACK quorum that justified entering round `r`.
    entry_cert: Certificate,
    /// The round coordinator's signed PROPOSE, once adopted.
    proposed: Option<SignedCore>,
    sent_propose: bool,
    sent_ack: bool,
    sent_nack: bool,
}

impl CtRounds {
    fn quorum(&self) -> usize {
        self.res.quorum()
    }

    fn coordinator(&self) -> ProcessId {
        ProcessId(self.res.coordinator(self.r) as u32)
    }

    /// Phase 2: the coordinator adopts the first maximum-timestamp
    /// estimate of its quorum and broadcasts the proposal, then echoes its
    /// own ACK.
    fn propose(&mut self, sh: &Shell, ctx: &mut Context<'_, Envelope, ValueVector>) -> Step {
        debug_assert!(!self.sent_propose);
        let adopted = self
            .estimates
            .iter()
            .filter_map(|e| match e.core() {
                Core::Estimate { vector, ts, .. } => Some((Reverse(*ts), vector, &e.cert)),
                _ => None,
            })
            .min_by_key(|(ts, ..)| *ts);
        let Some((_, vector, backing)) = adopted else {
            return Step::Stay; // propose() only fires on a nonempty estimate quorum
        };
        self.est_vect = vector.clone();
        self.est_cert = backing.init_portion();
        // The proposal's certificate: the estimate quorum (the analyzer
        // re-derives the max-ts adoption from it) plus the adopted
        // vector's INIT backing.
        let mut cert = self.est_cert.clone();
        for e in &self.estimates {
            cert.insert(e.signed.clone());
        }
        let own = sh.send_all(
            Core::Propose {
                round: self.r,
                vector: self.est_vect.clone(),
            },
            cert,
            ctx,
        );
        self.ts = self.r;
        self.ts_backing = Some(own.clone());
        self.proposed = Some(own.clone());
        self.sent_propose = true;
        // Phase 3, coordinator side: echo the own proposal.
        self.ack(sh, own, ctx)
    }

    /// Phase 3: echo `propose` (the coordinator's signed PROPOSE) with an
    /// ACK whose certificate is exactly that one item.
    fn ack(
        &mut self,
        sh: &Shell,
        propose: SignedCore,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) -> Step {
        debug_assert!(!self.sent_ack && !self.sent_nack);
        let own = sh.send_all(
            Core::Ack {
                round: self.r,
                vector: self.est_vect.clone(),
            },
            Certificate::from_items([propose]),
            ctx,
        );
        self.vote_cert.insert(own);
        self.sent_ack = true;
        self.after_vote()
    }

    /// Phase 3, negative branch: the coordinator is suspected or faulty.
    fn nack(&mut self, sh: &Shell, ctx: &mut Context<'_, Envelope, ValueVector>) -> Step {
        debug_assert!(!self.sent_ack && !self.sent_nack);
        let own = sh.send_all(Core::Nack { round: self.r }, Certificate::new(), ctx);
        self.vote_cert.insert(own);
        self.sent_nack = true;
        self.after_vote()
    }

    /// The round-`r` ACK items endorsing exactly one vector, if any vector
    /// has reached a quorum of distinct ack senders.
    fn ack_quorum(&self) -> Option<(ValueVector, Certificate)> {
        let vectors: Vec<ValueVector> = self
            .vote_cert
            .iter_kind_round(MessageKind::Ack, self.r)
            .filter_map(|i| i.core().core.vector().cloned())
            .collect();
        for vector in vectors {
            let matching = Certificate::from_items(
                self.vote_cert
                    .iter_kind_round(MessageKind::Ack, self.r)
                    .filter(|i| i.core().core.vector() == Some(&vector))
                    .cloned(),
            );
            let senders: BTreeSet<ProcessId> = matching.iter().map(SignedCore::sender).collect();
            if senders.len() >= self.quorum() {
                return Some((vector, matching));
            }
        }
        None
    }

    /// Phase 4 checks after every recorded vote: decide on an ACK quorum,
    /// or advance the round once a full vote quorum shows it cannot decide
    /// at this process anymore.
    fn after_vote(&self) -> Step {
        if let Some((vector, matching)) = self.ack_quorum() {
            return Step::Decide(vector, matching);
        }
        if self.vote_cert.ct_votes(self.r).len() >= self.quorum() {
            return Step::NextRound;
        }
        Step::Stay
    }
}

impl RoundModule for CtRounds {
    const ID: ProtocolId = ProtocolId::ChandraToueg;

    fn new(res: Resilience) -> Self {
        CtRounds {
            res,
            r: 0,
            est_vect: ValueVector::empty(res.n()),
            est_cert: Certificate::new(),
            ts: 0,
            ts_backing: None,
            estimates: Vec::new(),
            vote_cert: Certificate::new(),
            entry_cert: Certificate::new(),
            proposed: None,
            sent_propose: false,
            sent_ack: false,
            sent_nack: false,
        }
    }

    fn round(&self) -> Round {
        self.r
    }

    fn start(&mut self, vect: ValueVector, cert: Certificate) {
        self.est_vect = vect;
        self.est_cert = cert;
    }

    fn advance(&mut self) {
        // The ACK/NACK quorum that ended the previous round becomes the
        // round-entry evidence for this one.
        self.entry_cert = std::mem::take(&mut self.vote_cert);
        self.r += 1;
        self.estimates.clear();
        self.proposed = None;
        self.sent_propose = false;
        self.sent_ack = false;
        self.sent_nack = false;
    }

    /// Phase 1: open the round with the mandatory ESTIMATE broadcast.
    fn open_round(&mut self, sh: &Shell, ctx: &mut Context<'_, Envelope, ValueVector>) {
        let mut cert = self.est_cert.union(&self.entry_cert);
        if let Some(backing) = &self.ts_backing {
            cert.insert(backing.clone());
        }
        sh.send_all(
            Core::Estimate {
                round: self.r,
                vector: self.est_vect.clone(),
                ts: self.ts,
            },
            cert,
            ctx,
        );
    }

    fn deliver(
        &mut self,
        sh: &Shell,
        from: ProcessId,
        env: Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    ) -> Step {
        match env.core() {
            Core::Estimate { .. } => {
                if self.estimates.iter().any(|e| e.sender() == from) {
                    return Step::Stay; // the stack already convicts duplicates
                }
                self.estimates.push(env);
                if sh.me == self.coordinator()
                    && !self.sent_propose
                    && self.estimates.len() >= self.quorum()
                {
                    return self.propose(sh, ctx);
                }
                Step::Stay
            }
            Core::Propose { vector, .. } => {
                // The analyzer admitted it, so `from` is the coordinator.
                if self.proposed.is_none() {
                    self.proposed = Some(env.signed.clone());
                }
                if self.sent_ack || self.sent_nack || sh.me == self.coordinator() {
                    return Step::Stay; // already voted (or it is our own echo)
                }
                // Adopt the proposal and echo it.
                self.est_vect = vector.clone();
                self.est_cert = env.cert.init_portion();
                self.ts = self.r;
                self.ts_backing = Some(env.signed.clone());
                self.ack(sh, env.signed.clone(), ctx)
            }
            Core::Ack { .. } | Core::Nack { .. } => {
                self.vote_cert.insert(env.signed.clone());
                self.after_vote()
            }
            _ => {
                // Hurfin–Raynal kinds: the observer convicts them as
                // outside Chandra–Toueg's alphabet before admission.
                debug_assert!(false, "CT stack admitted an HR-kind message");
                Step::Stay
            }
        }
    }

    fn on_poll(&mut self, sh: &mut Shell, ctx: &mut Context<'_, Envelope, ValueVector>) -> Step {
        // CT's phase-3 escape hatch, with the transformed guard:
        // upon p_c ∈ (suspected ∪ faulty) while awaiting the proposal.
        if sh.me != self.coordinator()
            && self.proposed.is_none()
            && !self.sent_ack
            && !self.sent_nack
        {
            let coord = self.coordinator();
            if sh.stack.suspected_or_faulty(coord, ctx.now()) {
                ctx.note(format!("suspect={} r={}", coord, self.r));
                return self.nack(sh, ctx);
            }
        }
        Step::Stay
    }
}

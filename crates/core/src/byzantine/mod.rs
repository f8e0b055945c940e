//! The transformed protocols (paper Fig. 3): Vector Consensus resilient to
//! arbitrary failures.
//!
//! Obtained from the crash-model protocols of [`crate::crash`] by applying
//! the transformation rules of [`crate::transform`]:
//!
//! * a preliminary **vector-certification phase** replaces raw initial
//!   values (INIT exchange, `n − F` collected);
//! * every message is a signed [`ftm_certify::Envelope`] carrying a
//!   certificate; every receipt runs through the
//!   [`crate::transform::ModuleStack`];
//! * the crash majority `> n/2` becomes the quorum `n − F`;
//! * the ◇S guard `p_c ∈ suspected_i` becomes
//!   `p_c ∈ (suspected_i ∪ faulty_i)` over the muteness and non-muteness
//!   modules;
//! * corruptible local variables (`nb_current`, `nb_next`, `rec_from`,
//!   `state`) are replaced by certificate expressions, which the
//!   implementation asserts against its explicit state at every step.
//!
//! Only the round logic is protocol-specific. Each protocol here is a
//! [`RoundModule`] — [`protocol::HrRounds`] (Hurfin–Raynal) and
//! [`chandra_toueg::CtRounds`] (Chandra–Toueg) — hosted by the one
//! transformed-process shell [`Transformed`], which owns the signature,
//! detection and certification modules, the vector-certification phase
//! and the DECIDE relay. [`ByzantineConsensus`] and
//! [`ByzantineChandraToueg`] name the two instances; the
//! [`TransformedProtocol`] trait is the seam layers above (the replicated
//! log, the fault harness) build against. Both tolerate
//! `F ≤ min(⌊(n−1)/2⌋, C)` arbitrary faults and decide a vector with at
//! least `ψ = n − 2F ≥ 1` entries from correct processes.

pub mod chandra_toueg;
pub mod log;
pub mod protocol;

use ftm_certify::{Certificate, Envelope, ProtocolId, Value, ValueVector};
use ftm_sim::{Actor, ProcessId};

use crate::config::ProtocolSetup;
use crate::spec::ProtocolSpec;
use crate::transform::shell::{RoundModule, Transformed};
use crate::transform::ModuleStack;

pub use chandra_toueg::ByzantineChandraToueg;
pub use log::ReplicatedLog;
pub use protocol::ByzantineConsensus;

/// A protocol produced by the crash→arbitrary transformation: an actor
/// speaking signed [`Envelope`]s and deciding a certified [`ValueVector`],
/// with an embedded module stack and a declarative spec.
///
/// This is the seam that makes the runtime protocol-generic: the
/// replicated log, the fault-injection harness and the sweep runner are
/// written against this trait and instantiated per [`ProtocolId`].
pub trait TransformedProtocol: Actor<Msg = Envelope, Decision = ValueVector> {
    /// The base protocol's identity — selects the observer automaton
    /// table, the §5 certification-rule table and the decision predicate.
    const ID: ProtocolId;

    /// Builds one process proposing `value`.
    fn build(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self
    where
        Self: Sized;

    /// The hand-written transformed spec this runtime implements (checked
    /// against its derivation by `ftm-verify`).
    fn spec() -> ProtocolSpec
    where
        Self: Sized,
    {
        ProtocolSpec::transformed_for(Self::ID)
    }

    /// Read access to the module stack (evidence logs, detector state).
    fn stack(&self) -> &ModuleStack;

    /// The decide-vote quorum backing this process's decision (`CURRENT`
    /// items under Hurfin–Raynal, `ACK` under Chandra–Toueg), available
    /// once the instance has decided. This is the evidence a log-layer
    /// checkpoint compacts into a single envelope
    /// (see `ftm_certify::checkpoint`).
    fn decide_evidence(&self) -> Option<&Certificate>;
}

impl<R: RoundModule> TransformedProtocol for Transformed<R> {
    const ID: ProtocolId = R::ID;

    fn build(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self {
        Transformed::new(setup, me, value)
    }

    fn stack(&self) -> &ModuleStack {
        Transformed::stack(self)
    }

    fn decide_evidence(&self) -> Option<&Certificate> {
        Transformed::decide_evidence(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use ftm_sim::{RunReport, SimConfig, Simulation, VirtualTime};

    fn run_generic<P: TransformedProtocol + 'static>(n: usize, f: usize, seed: u64) -> bool {
        let setup = ProtocolConfig::new(n, f).seed(seed).setup();
        Simulation::build_boxed(SimConfig::new(n).seed(seed), |id| {
            Box::new(P::build(&setup, id, 100 + id.0 as u64))
        })
        .run()
        .all_decided()
    }

    #[test]
    fn both_protocols_run_through_the_trait_seam() {
        assert!(run_generic::<ByzantineConsensus>(4, 1, 5));
        assert!(run_generic::<ByzantineChandraToueg>(4, 1, 5));
    }

    #[test]
    fn trait_spec_matches_the_protocol_id() {
        assert_eq!(
            <ByzantineConsensus as TransformedProtocol>::spec().protocol,
            ProtocolId::HurfinRaynal
        );
        assert_eq!(
            <ByzantineChandraToueg as TransformedProtocol>::spec().protocol,
            ProtocolId::ChandraToueg
        );
    }

    /// One `#[test]` per protocol for each generic case below.
    macro_rules! for_both_protocols {
        ($($case:ident),* $(,)?) => {
            mod hr {
                $(#[test]
                fn $case() {
                    super::$case::<crate::byzantine::protocol::HrRounds>();
                })*
            }
            mod ct {
                $(#[test]
                fn $case() {
                    super::$case::<crate::byzantine::chandra_toueg::CtRounds>();
                })*
            }
        };
    }

    for_both_protocols!(
        all_honest_processes_decide_the_same_vector,
        agreement_across_seeds,
        crash_of_coordinator_is_survived,
        crash_mid_protocol_is_survived,
        larger_system_still_decides,
        no_honest_process_is_ever_convicted,
        three_processes_one_fault_works,
    );

    fn run<R: RoundModule + 'static>(
        n: usize,
        f: usize,
        seed: u64,
        crashes: &[(usize, u64)],
    ) -> RunReport<ValueVector> {
        let setup = ProtocolConfig::new(n, f).seed(seed).setup();
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        Simulation::build_boxed(cfg, |id| {
            Box::new(Transformed::<R>::new(&setup, id, 100 + id.0 as u64))
        })
        .run()
    }

    fn all_honest_processes_decide_the_same_vector<R: RoundModule + 'static>() {
        let report = run::<R>(4, 1, 1, &[]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement");
        assert!(vect.non_null_count() >= 3);
        // Every entry present matches the proposer's value.
        for (k, v) in vect.iter_set() {
            assert_eq!(v, 100 + k as u64);
        }
    }

    fn agreement_across_seeds<R: RoundModule + 'static>() {
        for seed in 0..15 {
            let report = run::<R>(4, 1, seed, &[]);
            assert!(report.all_decided(), "seed {seed} stop={:?}", report.stop);
            assert!(report.unanimous().is_some(), "seed {seed}");
            assert!(report.contradictions.is_empty(), "seed {seed}");
        }
    }

    fn crash_of_coordinator_is_survived<R: RoundModule + 'static>() {
        // A crash is one legal arbitrary behavior; p0 coordinates round 1
        // (under CT its muteness forces a NACK round).
        let report = run::<R>(4, 1, 7, &[(0, 0)]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement among survivors");
        // p0 proposed nothing (crashed at start): its entry must be null
        // in any vector the survivors certified.
        assert_eq!(vect.get(0), None);
        assert!(vect.non_null_count() >= 3);
    }

    fn crash_mid_protocol_is_survived<R: RoundModule + 'static>() {
        for seed in 0..10 {
            let report = run::<R>(5, 2, seed, &[(1, 60)]);
            assert!(report.all_decided(), "seed {seed} stop={:?}", report.stop);
            assert!(report.unanimous().is_some(), "seed {seed}");
        }
    }

    fn larger_system_still_decides<R: RoundModule + 'static>() {
        let report = run::<R>(7, 3, 2, &[]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement");
        assert!(vect.non_null_count() >= 4); // n − F
    }

    fn no_honest_process_is_ever_convicted<R: RoundModule + 'static>() {
        let report = run::<R>(5, 2, 3, &[]);
        assert!(report.all_decided());
        // No "detected=" notes: the non-muteness module stayed silent.
        for p in 0..5u32 {
            let notes = report.trace.notes_of(ProcessId(p));
            assert!(
                notes.iter().all(|n| !n.starts_with("detected=")),
                "p{p} convicted someone in an all-honest run: {notes:?}"
            );
        }
    }

    fn three_processes_one_fault_works<R: RoundModule + 'static>() {
        // Minimal configuration: n = 3, F = 1, ψ = 1.
        let report = run::<R>(3, 1, 4, &[(2, 0)]);
        assert!(report.all_decided(), "stop={:?}", report.stop);
        let vect = report.unanimous().expect("agreement");
        assert!(vect.non_null_count() >= 2);
    }
}

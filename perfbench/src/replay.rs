//! The per-module ledger: recorded slot inputs replayed through the
//! public entry points of the signature, certification and detection
//! modules and of the wire codec, each pass timed on its own.
//!
//! A replay builds a fresh [`ModuleStack`] per slot and feeds it the
//! slot's envelopes in delivery order, mirroring the protocols' receive
//! path (a rejected envelope whose sender was already convicted counts as
//! quarantined). Its verdicts must equal the live stacks' counters; a
//! difference means the recording or a module lost determinism, and the
//! run's per-layer numbers are discarded.

use std::collections::BTreeSet;
use std::hint::black_box;

use ftm_certify::{CertChecker, ProtocolId};
use ftm_core::byzantine::log::SlotMsg;
use ftm_core::config::ProtocolSetup;
use ftm_core::transform::{Admit, ModuleStack, StackStats};
use ftm_crypto::keydir::KeyDirectory;
use ftm_crypto::rsa::{PublicKey, Signature};
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::WallClock;

use crate::record::SlotRecord;
use crate::stats::Fixed;

/// Upper bound on distinct signatures timed through a cold directory.
const COLD_VERIFY_CAP: usize = 4000;
/// Upper bound on messages timed through the codec.
const CODEC_CAP: usize = 20_000;
/// Codec passes over the sample (the per-message cost is sub-µs).
const CODEC_PASSES: u64 = 4;

/// Sums of one or more replays.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Slot instances replayed.
    pub slots: u64,
    /// Envelopes replayed.
    pub msgs: u64,
    /// Replayed verdicts, summed.
    pub replayed: StackStats,
    /// Slot instances whose replayed verdicts differ from the live ones.
    pub mismatched: u64,
    /// µs of the warm-memo admit pass.
    pub admit_us: u64,
    /// µs of the warm-memo `check_envelope` pass.
    pub check_us: u64,
    /// Certificate entries carried, summed over envelopes.
    pub cert_entries: u64,
    /// Distinct signatures verified cold, and the µs it took.
    pub cold_verifies: u64,
    /// µs of the cold verify pass.
    pub cold_us: u64,
    /// Messages encoded and decoded (per pass × passes).
    pub codec_msgs: u64,
    /// µs of the encode passes.
    pub encode_us: u64,
    /// µs of the decode passes.
    pub decode_us: u64,
}

fn add_stats(a: &mut StackStats, b: &StackStats) {
    a.admitted += b.admitted;
    a.signature_rejects += b.signature_rejects;
    a.certificate_rejects += b.certificate_rejects;
    a.automaton_rejects += b.automaton_rejects;
    a.syntax_rejects += b.syntax_rejects;
    a.checkpoints += b.checkpoints;
    a.quarantined += b.quarantined;
}

fn public_keys(setup: &ProtocolSetup) -> Vec<PublicKey> {
    setup.keys.iter().map(|k| k.public().clone()).collect()
}

/// Runs every recorded instance of one replica through a fresh stack
/// whose directory is `dir`, returning the per-slot verdicts.
fn admit_pass(
    protocol: ProtocolId,
    setup: &ProtocolSetup,
    records: &[SlotRecord],
    dir: &KeyDirectory,
) -> Vec<StackStats> {
    let mut replay_setup = setup.clone();
    replay_setup.dir = dir.clone();
    records
        .iter()
        .map(|rec| {
            let mut stack = ModuleStack::for_setup(protocol, &replay_setup);
            for m in &rec.inbound {
                let was_faulty = stack.is_faulty(m.env.sender());
                if let Admit::Discarded(_) = stack.admit(m.from, &m.env, m.now) {
                    if was_faulty {
                        stack.record_quarantine();
                    }
                }
            }
            stack.stats()
        })
        .collect()
}

impl Ledger {
    /// Replays one replica's recorded slot instances into the ledger.
    pub fn replay(
        &mut self,
        protocol: ProtocolId,
        setup: &ProtocolSetup,
        records: &[SlotRecord],
        clock: &WallClock,
    ) {
        let keys = public_keys(setup);
        let n = setup.resilience.n();
        let f = setup.resilience.f();
        // First pass: verdicts, with a cold memo shared across the
        // replica's slots as the live directory is.
        let dir = KeyDirectory::new(keys.clone());
        let verdicts = admit_pass(protocol, setup, records, &dir);
        for (rec, v) in records.iter().zip(&verdicts) {
            self.slots += 1;
            self.msgs += rec.inbound.len() as u64;
            add_stats(&mut self.replayed, v);
            if *v != rec.live {
                self.mismatched += 1;
            }
            self.cert_entries += rec
                .inbound
                .iter()
                .map(|m| m.env.cert.len() as u64)
                .sum::<u64>();
        }
        // Second pass: the same work with every signature memoized, so
        // the time is the stack's own (automaton + analyzer).
        let t = clock.micros();
        black_box(admit_pass(protocol, setup, records, &dir));
        self.admit_us += clock.micros() - t;
        // The analyzer alone over the same envelopes, memo still warm.
        let checker = CertChecker::new_for(protocol, n, f, dir.clone());
        let t = clock.micros();
        for rec in records {
            for m in &rec.inbound {
                black_box(checker.check_envelope(&m.env).is_ok());
            }
        }
        self.check_us += clock.micros() - t;
        self.cold_verify(records, keys, clock);
        self.codec(records, clock);
    }

    /// Distinct recorded signatures through a fresh directory: every
    /// verify is an RSA computation.
    fn cold_verify(&mut self, records: &[SlotRecord], keys: Vec<PublicKey>, clock: &WallClock) {
        let mut triples = BTreeSet::new();
        'collect: for rec in records {
            for m in &rec.inbound {
                for sc in std::iter::once(&m.env.signed).chain(m.env.cert.iter()) {
                    triples.insert((sc.sender().0, sc.digest(), sc.signature_bytes()));
                    if triples.len() >= COLD_VERIFY_CAP {
                        break 'collect;
                    }
                }
            }
        }
        let inputs: Vec<_> = triples
            .into_iter()
            .map(|(signer, digest, sig)| (signer, digest, Signature::from_bytes(&sig)))
            .collect();
        let fresh = KeyDirectory::new(keys);
        let t = clock.micros();
        for (signer, digest, sig) in &inputs {
            black_box(fresh.verify_digest(*signer, digest, sig).is_ok());
        }
        self.cold_us += clock.micros() - t;
        self.cold_verifies += inputs.len() as u64;
    }

    /// Recorded slot messages through the canonical encoder and decoder.
    fn codec(&mut self, records: &[SlotRecord], clock: &WallClock) {
        let msgs: Vec<SlotMsg> = records
            .iter()
            .flat_map(|rec| {
                rec.inbound.iter().map(|m| SlotMsg {
                    slot: rec.slot,
                    env: m.env.clone(),
                })
            })
            .take(CODEC_CAP)
            .collect();
        let frames: Vec<Vec<u8>> = msgs.iter().map(CanonicalEncode::canonical_bytes).collect();
        let t = clock.micros();
        for _ in 0..CODEC_PASSES {
            for m in &msgs {
                black_box(m.canonical_bytes());
            }
        }
        self.encode_us += clock.micros() - t;
        let t = clock.micros();
        for _ in 0..CODEC_PASSES {
            for frame in &frames {
                black_box(SlotMsg::from_canonical_bytes(frame).is_ok());
            }
        }
        self.decode_us += clock.micros() - t;
        self.codec_msgs += msgs.len() as u64 * CODEC_PASSES;
    }
}

/// Live-run counters that go beside the replayed ledger.
#[derive(Debug, Default, Clone, Copy)]
pub struct LiveCounts {
    /// Slots sealed (summed over replicas).
    pub slots: u64,
    /// Directory memo hits over the run.
    pub memo_hits: u64,
    /// Directory memo misses (RSA computations) over the run.
    pub memo_misses: u64,
    /// Checkpoints formed or admitted.
    pub checkpoints: u64,
    /// ◇M mistakes about honest peers (last `stack-stats` per instance).
    pub honest_mistakes: u64,
}

impl Ledger {
    /// The module rows of the per-layer report.
    pub fn layer_metrics(&self, live: LiveCounts) -> Vec<(String, Fixed)> {
        let msgs = u128::from(self.msgs);
        let per_kmsg = |count: u64| Fixed::ratio(u128::from(count) * 1000, msgs, 3);
        let admit_ns = u128::from(self.admit_us) * 1000;
        let check_ns = u128::from(self.check_us) * 1000;
        let slots = u128::from(live.slots);
        let rows = [
            (
                "codec.decode_ns_per_msg",
                Fixed::ratio(
                    u128::from(self.decode_us) * 1000,
                    u128::from(self.codec_msgs),
                    1,
                ),
            ),
            (
                "codec.encode_ns_per_msg",
                Fixed::ratio(
                    u128::from(self.encode_us) * 1000,
                    u128::from(self.codec_msgs),
                    1,
                ),
            ),
            (
                "stack.admit_us_per_msg",
                Fixed::ratio(admit_ns, msgs * 1000, 3),
            ),
            (
                "stack.rejects_sig_per_kmsg",
                per_kmsg(self.replayed.signature_rejects),
            ),
            (
                "stack.rejects_cert_per_kmsg",
                per_kmsg(self.replayed.certificate_rejects),
            ),
            (
                "stack.rejects_auto_per_kmsg",
                per_kmsg(self.replayed.automaton_rejects),
            ),
            (
                "stack.rejects_syntax_per_kmsg",
                per_kmsg(self.replayed.syntax_rejects),
            ),
            (
                "stack.quarantined_per_kmsg",
                per_kmsg(self.replayed.quarantined),
            ),
            (
                "crypto.rsa_verifies_per_slot",
                Fixed::ratio(u128::from(live.memo_misses), slots, 3),
            ),
            (
                "crypto.memo_hit_pct",
                Fixed::ratio(
                    u128::from(live.memo_hits) * 100,
                    u128::from(live.memo_hits + live.memo_misses),
                    2,
                ),
            ),
            (
                "crypto.verify_cold_us",
                Fixed::ratio(u128::from(self.cold_us), u128::from(self.cold_verifies), 3),
            ),
            (
                "certify.check_us_per_msg",
                Fixed::ratio(check_ns, msgs * 1000, 3),
            ),
            (
                "certify.cert_entries_per_msg",
                Fixed::ratio(u128::from(self.cert_entries), msgs, 3),
            ),
            (
                "certify.checkpoints_per_kslot",
                Fixed::ratio(u128::from(live.checkpoints) * 1000, slots, 3),
            ),
            (
                "detect.automaton_us_per_msg",
                Fixed::ratio(admit_ns.saturating_sub(check_ns), msgs * 1000, 3),
            ),
            (
                "fd.honest_mistakes_per_kslot",
                Fixed::ratio(u128::from(live.honest_mistakes) * 1000, slots, 3),
            ),
            ("trace.replayed_msgs", Fixed::int(self.msgs)),
            ("trace.replayed_slots", Fixed::int(self.slots)),
            ("trace.verdict_mismatches", Fixed::int(self.mismatched)),
        ];
        rows.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
    }
}

/// Sums, over every slot instance, the value of `key` in the instance's
/// last `s<slot>:stack-stats` note. `notes` is one replica's note list.
pub fn last_stack_stat<'a>(notes: impl IntoIterator<Item = &'a str>, key: &str) -> u64 {
    let mut last: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for note in notes {
        let Some((slot, rest)) = note.split_once(':') else {
            continue;
        };
        if !rest.starts_with("stack-stats ") {
            continue;
        }
        let value = rest
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        last.insert(slot, value);
    }
    last.values().sum()
}

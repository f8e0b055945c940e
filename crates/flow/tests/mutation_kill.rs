//! Mutation-kill coverage for pass F1 on the *real* actor code: disabling
//! any production sanitizer call site (renaming it to a name the analyzer
//! does not recognise) must produce at least one F1 finding in that file.
//! This proves the certification-before-use obligation is enforced by the
//! analysis, not satisfied vacuously.
//!
//! The transformed-process shell's `admit` guards both round modules, so
//! its case is analyzed together with them and must reach a sink that only
//! Hurfin–Raynal writes and one that only Chandra–Toueg writes.

use ftm_flow::analyze_sources;
use std::fs;
use std::path::{Path, PathBuf};

const HR: &str = "crates/core/src/byzantine/protocol.rs";
const CT: &str = "crates/core/src/byzantine/chandra_toueg.rs";

/// A production certification gate inside the gating scope.
struct Case {
    /// The file holding the sanitizer call.
    file: &'static str,
    /// The sanitizer call token and its disabled replacement.
    token: &'static str,
    replacement: &'static str,
    /// Files analyzed together with it (the code it guards).
    companions: &'static [&'static str],
    /// Sinks the mutated flow must reach (substrings of the sink text).
    reaches: &'static [&'static str],
}

/// One case per production certification gate.
const CASES: [Case; 2] = [
    Case {
        file: "crates/core/src/transform/shell.rs",
        token: ".admit(",
        replacement: ".unchecked_admit(",
        companions: &[HR, CT],
        // `next_cert` is written only by HR, `vote_cert` only by CT.
        reaches: &["self.next_cert", "self.vote_cert"],
    },
    Case {
        file: "crates/core/src/byzantine/log.rs",
        token: ".check_envelope(",
        replacement: ".unchecked_envelope(",
        companions: &[],
        reaches: &[],
    },
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn read(rel: &str) -> String {
    fs::read_to_string(workspace_root().join(rel)).expect(rel)
}

#[test]
fn disabling_each_production_sanitizer_yields_an_f1_finding() {
    for case in CASES {
        let (rel, token) = (case.file, case.token);
        let pristine = read(rel);
        assert!(
            pristine.contains(token),
            "{rel}: expected sanitizer call {token:?}"
        );
        let with = |source: String| -> Vec<(String, String)> {
            let mut files = vec![(rel.to_string(), source)];
            files.extend(case.companions.iter().map(|c| (c.to_string(), read(c))));
            files
        };

        let base = analyze_sources(&with(pristine.clone()), false);
        assert!(
            base.findings.is_empty(),
            "{rel}: pristine file must be clean: {:#?}",
            base.findings
        );

        let mutated = pristine.replace(token, case.replacement);
        let analysis = analyze_sources(&with(mutated), false);
        let f1: Vec<_> = analysis
            .findings
            .iter()
            .filter(|f| f.pass == "F1")
            .collect();
        assert!(
            !f1.is_empty(),
            "{rel}: disabling {token:?} must be caught by F1"
        );
        for f in &f1 {
            assert_eq!(f.file, rel);
        }
        for sink in case.reaches {
            assert!(
                f1.iter().any(|f| f.message.contains(sink)),
                "{rel}: disabling {token:?} must reach `{sink}`: {f1:#?}"
            );
        }
    }
}

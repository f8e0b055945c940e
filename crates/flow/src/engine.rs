//! The analysis driver: file discovery, pass orchestration, scoping.
//!
//! The gating (`scoped`) analysis covers exactly the code whose behavior
//! the paper's transformation constrains: the Byzantine actors, the
//! crash→Byzantine transform tables, and the certification layer. The
//! non-gating `--deep` mode widens to the whole workspace; its extra
//! findings (e.g. the crash actors trusting their transport, which they
//! do *by design*) are informative, so CI runs deep mode weekly without
//! failing on it.

use crate::ast::{parse_file, FnDef};
use crate::report::FlowFinding;
use crate::sends::{conform, extract, SendSite};
use crate::taint;
use ftm_core::spec::ProtocolSpec;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// Path prefixes covered by the gating analysis.
pub const SCOPE: [&str; 3] = [
    "crates/core/src/byzantine/",
    "crates/core/src/transform/",
    "crates/certify/src/",
];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 2] = ["target", "fixtures"];

/// The extracted send table of one protocol (for the report).
#[derive(Debug)]
pub struct ActorTable {
    /// The protocol's label (`hr`, `ct`).
    pub protocol: &'static str,
    /// The extracted send sites, in source order.
    pub sites: Vec<SendSite>,
}

/// The combined result of both passes over one file set.
#[derive(Debug)]
pub struct Analysis {
    /// Number of files analyzed.
    pub files_scanned: u64,
    /// All findings, unsorted and unwaived.
    pub findings: Vec<FlowFinding>,
    /// Per-protocol send tables (conformance targets only).
    pub sends: Vec<ActorTable>,
}

/// Which spec a round-module file is checked against, by path suffix.
fn conformance_target(path: &str) -> Option<(ProtocolSpec, bool)> {
    if path.ends_with("byzantine/protocol.rs") {
        Some((ProtocolSpec::transformed(), true))
    } else if path.ends_with("byzantine/chandra_toueg.rs") {
        Some((ProtocolSpec::transformed_ct(), false))
    } else {
        None
    }
}

/// The transformed-process shell, whose send sites (INIT, DECIDE) belong
/// to every protocol's table.
fn is_shell(path: &str) -> bool {
    path.ends_with("transform/shell.rs")
}

/// Runs both passes over `(path, source)` pairs.
///
/// Paths are virtual: fixtures use the real actor paths so scoping and
/// conformance-target selection behave identically in tests.
pub fn analyze_sources(files: &[(String, String)], deep: bool) -> Analysis {
    let parsed: Vec<(&String, Vec<FnDef>)> = files
        .iter()
        .map(|(path, source)| {
            let mut fns = parse_file(source);
            for f in &mut fns {
                f.file.clone_from(path);
            }
            (path, fns)
        })
        .collect();
    let shell: Vec<&FnDef> = parsed
        .iter()
        .filter(|(path, _)| is_shell(path))
        .flat_map(|(_, fns)| fns)
        .collect();
    let mut sends = Vec::new();
    let mut findings = Vec::new();
    for (path, fns) in &parsed {
        // Pass F2: spec conformance of the protocol's send behavior, over
        // its round module plus the shell (when the shell is analyzed).
        let Some((spec, hr_sigs)) = conformance_target(path) else {
            continue;
        };
        let set: Vec<FnDef> = fns.iter().chain(shell.iter().copied()).cloned().collect();
        let table = extract(&set);
        for sf in conform(&table, &spec, hr_sigs) {
            findings.push(FlowFinding {
                pass: "F2",
                file: if sf.file.is_empty() {
                    (*path).clone()
                } else {
                    sf.file
                },
                line: sf.line,
                message: sf.message,
                path: Vec::new(),
            });
        }
        sends.push(ActorTable {
            protocol: spec.protocol.label(),
            sites: table.sites,
        });
    }
    let all_fns: Vec<FnDef> = parsed.into_iter().flat_map(|(_, fns)| fns).collect();
    // Pass F1: interprocedural certification taint over the whole set.
    for hit in taint::analyze(&all_fns, deep).hits {
        findings.push(FlowFinding {
            pass: "F1",
            file: hit.file,
            line: hit.line,
            message: format!(
                "adversary-controlled data ({}) reaches replicated state `{}` without passing a certification API",
                hit.origin, hit.sink
            ),
            path: hit.path,
        });
    }
    Analysis {
        files_scanned: files.len() as u64,
        findings,
        sends,
    }
}

/// Scans the workspace rooted at `root` and runs both passes.
///
/// The walk is deterministic (sorted), skips `target/`, `fixtures/` and
/// hidden directories, and — unless `deep` — restricts analysis to the
/// [`SCOPE`] prefixes.
pub fn scan_workspace(root: &Path, deep: bool) -> io::Result<Analysis> {
    let mut paths = BTreeSet::new();
    collect_rs_files(root, root, &mut paths)?;
    let mut files = Vec::new();
    for rel in paths {
        if !deep && !SCOPE.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let source = fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    Ok(analyze_sources(&files, deep))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut BTreeSet<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.insert(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_targets_resolve_by_suffix() {
        assert!(conformance_target("crates/core/src/byzantine/protocol.rs").is_some());
        assert!(conformance_target("crates/core/src/byzantine/chandra_toueg.rs").is_some());
        assert!(conformance_target("crates/core/src/byzantine/log.rs").is_none());
        assert!(conformance_target("crates/core/src/crash/protocol.rs").is_none());
        assert!(conformance_target("crates/core/src/transform/shell.rs").is_none());
        assert!(is_shell("crates/core/src/transform/shell.rs"));
    }

    #[test]
    fn scope_prefixes_cover_the_transformation_layers() {
        for p in [
            "crates/core/src/byzantine/protocol.rs",
            "crates/core/src/transform/mod.rs",
            "crates/certify/src/analyzer.rs",
        ] {
            assert!(
                SCOPE.iter().any(|s| p.starts_with(s)),
                "{p} must be in scope"
            );
        }
        assert!(!SCOPE.iter().any(|s| "crates/sim/src/lib.rs".starts_with(s)));
    }
}

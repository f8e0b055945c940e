//! Byte-identity pin for the Byzantine runtimes: the full fault matrix
//! over both protocols, every behaviour and both workloads must render
//! exactly the pinned report. Any change in decisions, notes, note order,
//! message bytes or conviction sets changes its digest; a change that
//! alters behaviour on purpose re-pins it and says why.

use ft_modular::crypto::sha256::Sha256;
use ft_modular::faults::{sweep_matrix, ScenarioMatrix};

/// SHA-256 of the rendered report (112 cells, 572,654 bytes).
const GOLDEN: &str = "c4e239195fb7f30f92f5ae21826079bbc832e140aa9e4162f3896f055bee22aa";

#[test]
fn full_matrix_report_matches_the_golden_digest() {
    let matrix = ScenarioMatrix::full(vec![(4, 1), (7, 2)])
        .cross_protocols()
        .cross_workloads(4);
    let json = sweep_matrix(&matrix, 0x5EED, 2).to_json().render();
    assert_eq!(Sha256::digest(json.as_bytes()).to_string(), GOLDEN);
}

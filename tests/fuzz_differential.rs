//! The differential oracle wired into the integration suite: a handful
//! of pinned seeds run through the full `tabula-check` diff engine —
//! every materialization mode, thread counts 1 and 4, exhaustive
//! per-cell θ-guarantee against the naive reference implementation.
//!
//! The heavyweight sweep lives in the `fuzz_check` bench binary (and the
//! CI `fuzz-smoke` job); this test keeps a fast always-on slice of it in
//! plain `cargo test`.

use tabula_check::{diff_case, gen_case, shrink, Lanes, LossSpec};

/// Ten pinned seeds — deterministically covering all four loss kernels —
/// must produce zero divergences.
#[test]
fn pinned_seeds_diverge_nowhere() {
    let mut losses_seen = std::collections::BTreeSet::new();
    for seed in 0..10 {
        let case = gen_case(seed);
        losses_seen.insert(case.loss.name());
        if let Err(d) = diff_case(&case, Lanes::default()) {
            // Shrink before failing so the assertion message is directly
            // actionable.
            let msg = match shrink(&case, |c| diff_case(c, Lanes::default()).err()) {
                Some(s) => s.case.to_regression_test(&format!("fuzz_seed_{seed}"), &s.divergence),
                None => format!("flaky divergence (vanished on re-run): {d}"),
            };
            panic!("seed {seed} diverged:\n{msg}");
        }
    }
    assert!(losses_seen.len() >= 3, "seed range covers too few kernels: {losses_seen:?}");
}

/// The oracle itself stays honest: a case whose θ is so loose that the
/// global sample serves everything, and one so tight that every
/// populated cell materializes, both pass — the harness is not trivially
/// green by construction, it checks different classification extremes.
#[test]
fn harness_covers_both_classification_extremes() {
    let mut loose = gen_case(2);
    loose.theta = 1e9;
    loose.loss = LossSpec::Mean { attr: "fare".to_string() };
    diff_case(&loose, Lanes::default())
        .expect("loose θ: no cell is iceberg, global sample everywhere");

    let mut tight = gen_case(2);
    tight.theta = 0.0;
    tight.loss = LossSpec::Mean { attr: "fare".to_string() };
    diff_case(&tight, Lanes::default()).expect("θ = 0: every populated cell is iceberg");
}

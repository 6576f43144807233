//! Absolute goldens: the rows of the one table of pinned runs,
//! [`common::golden::GOLDEN`], that no named golden test checks.
//!
//! `hier_golden`, `hier_equivalence` and `ooo` check the rows of the
//! [`common::golden::NAMED`] selectors, so every row runs once per
//! `cargo test`. A change that moves any counter of any other row fails
//! `every_row_matches_its_pinned_digest`, and the failure lists each
//! moved row with its new hash and its readable digest. To re-pin on
//! purpose: run `cargo test --no-fail-fast --test golden --test
//! hier_golden --test hier_equivalence --test ooo`, check that the moved
//! rows (and only they) are the ones the change should move, and paste
//! each printed `now` hash over that row's pinned one in
//! `tests/common/golden.rs`.

mod common;

use common::golden::{self, Row, GOLDEN, NAMED};
use hermes_repro::hermes_trace::suite;

/// Whether a named golden test checks the row.
fn named(r: &Row) -> bool {
    NAMED.iter().any(|(select, _)| select(r))
}

#[test]
fn every_row_matches_its_pinned_digest() {
    golden::check(|r| !named(r));
}

/// The named selectors are disjoint and pick the rows their tests
/// expect, and with the rest (checked above) they cover the table, so
/// each row is simulated exactly once per `cargo test`. Runs nothing.
#[test]
fn named_selectors_split_the_table() {
    for r in GOLDEN {
        let picked = NAMED.iter().filter(|(select, _)| select(r)).count();
        assert!(picked <= 1, "{r:?} is picked by {picked} named selectors");
    }
    let counts: Vec<usize> = NAMED
        .iter()
        .map(|(select, _)| GOLDEN.iter().filter(|r| select(r)).count())
        .collect();
    let expected: Vec<usize> = NAMED.iter().map(|&(_, n)| n).collect();
    assert_eq!(counts, expected);
    let rest = GOLDEN.iter().filter(|r| !named(r)).count();
    assert_eq!(counts.iter().sum::<usize>() + rest, GOLDEN.len());
    assert_eq!(GOLDEN.len(), 105);
}

/// The paper rows cover every `default_suite` trace under each of the
/// four configurations, so a trace added to the suite needs a row.
#[test]
fn paper_rows_cover_the_default_suite() {
    for tag in ["nopf", "pythia", "pythia+popet", "pythia+ideal"] {
        let pinned: Vec<&str> = GOLDEN
            .iter()
            .filter(|r| r.0 == tag && r.3 == 2_000 && r.4 == 8_000)
            .map(|r| r.1[0])
            .collect();
        let suite: Vec<String> = suite::default_suite().into_iter().map(|s| s.name).collect();
        assert_eq!(pinned, suite, "{tag}: paper rows differ from default_suite");
    }
}

//! Absolute goldens: every row of the one table of pinned runs,
//! [`common::golden::GOLDEN`].
//!
//! A change that moves any counter of any row fails
//! `every_row_matches_its_pinned_digest`, and the failure lists each
//! moved row with its new hash and its readable digest. To re-pin on
//! purpose: run `cargo test --test golden`, check that the moved rows
//! (and only they) are the ones the change should move, and paste each
//! printed `now` hash over that row's pinned one in
//! `tests/common/golden.rs`.

mod common;

use common::golden::{self, GOLDEN};
use hermes_repro::hermes_trace::suite;

#[test]
fn every_row_matches_its_pinned_digest() {
    assert_eq!(golden::check(|_| true), GOLDEN.len());
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

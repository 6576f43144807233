//! Absolute goldens for address translation with page walks through the
//! caches, a shared STLB, and MESI coherence on four cores: the rows of
//! the golden table ([`common::golden::GOLDEN`]) that pin every walk,
//! STLB, page-walk-cache and coherence counter, so a refactor of the
//! first-level request path (where walker reads, loads and stores meet
//! the MSHRs and the retry queue) must reproduce them bit for bit.
//! `golden.rs` checks these rows too, with every other row.

mod common;

use common::golden;

/// An 8-entry dTLB and a 32-entry STLB on 4 KB pages: walker reads park
/// in the retry queue beside demand loads and stores.
#[test]
fn vm_tiny_tlbs_walks_through_full_l1_mshrs() {
    assert_eq!(golden::check(|r| r.0 == "vm-tiny-tlbs"), 1);
}

#[test]
fn vm_shared_stlb_two_cores() {
    assert_eq!(golden::check(|r| r.0 == "vm-shared-stlb+popet"), 1);
}

#[test]
fn mesi_four_cores_on_the_sharing_suite() {
    assert_eq!(golden::check(|r| r.0 == "mesi+popet" && r.2 == 4), 1);
}

//! Absolute goldens for address translation with page walks through the
//! caches, a shared STLB, and MESI coherence on four cores: the rows of
//! the golden table ([`common::golden::GOLDEN`]) that pin every walk,
//! STLB, page-walk-cache and coherence counter, so a refactor of the
//! first-level request path (where walker reads, loads and stores meet
//! the MSHRs and the retry queue) must reproduce them bit for bit.
//! `golden.rs` checks every other row.

mod common;

use common::golden;

/// An 8-entry dTLB and a 32-entry STLB on 4 KB pages: walker reads park
/// in the retry queue beside demand loads and stores.
#[test]
fn vm_tiny_tlbs_walks_through_full_l1_mshrs() {
    golden::check(golden::vm_tiny_tlbs);
}

#[test]
fn vm_shared_stlb_two_cores() {
    golden::check(golden::vm_shared_stlb);
}

#[test]
fn mesi_four_cores_on_the_sharing_suite() {
    golden::check(golden::mesi_four_cores);
}

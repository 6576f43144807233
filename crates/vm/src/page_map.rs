//! The deterministic page map: virtual→physical translation for 4 KB and
//! 2 MB pages, and the physical locations of the page-table entries a
//! radix walk traverses.
//!
//! Every mapping is a pure function of `(core, virtual address)` — no
//! allocation state, full determinism, per-core disjoint physical
//! footprints. 4 KB pages use [`translate`], the same formula the
//! simulator's free translation (vm off) uses, so enabling the vm
//! subsystem with 4 KB pages changes only *timing*, never data
//! placement. 2 MB huge pages map their whole region contiguously from a
//! 2 MB-aligned frame, preserving the offset within the huge page.
//!
//! The page table is the x86-64-style 4-level radix tree (9 bits per
//! level): a 4 KB translation walks 4 PTEs, a 2 MB translation 3 (the
//! level-2 entry *is* the leaf). Each PTE lives at a deterministic
//! physical cache line shared by all translations under the same prefix,
//! so walks exhibit realistic locality: neighbouring pages share every
//! upper level and walk traffic caches well until the footprint grows.

use hermes_types::{mix64, CoreId, LineAddr, PhysAddr, VirtAddr, PAGE_BITS};

/// log2 of the huge-page size (2 MB).
pub const HUGE_PAGE_BITS: u32 = 21;
/// Huge-page size in bytes.
pub const HUGE_PAGE_SIZE: usize = 1 << HUGE_PAGE_BITS;
/// Radix bits per page-table level.
pub const PT_LEVEL_BITS: u32 = 9;

/// Bits of physical frame number space (2^36 frames = 256 TB: collisions
/// across a run are negligible).
const FRAME_BITS: u32 = 36;
/// 4 KB frames per 2 MB huge page.
const FRAMES_PER_HUGE: u64 = 1 << (HUGE_PAGE_BITS - PAGE_BITS);
/// Physical line-address space the page tables live in (frame space plus
/// in-page line bits).
const PT_LINE_BITS: u32 = 42;

/// Salt separating the huge-page frame space from the 4 KB one.
const HUGE_SALT: u64 = 0x9E37_79B9_0000_0001;
/// Salt for the huge/base page-size selector hash.
const SIZE_SALT: u64 = 0x5851_F42D_4C95_7F2D;
/// Salt for page-table-entry placement.
const PTE_SALT: u64 = 0x2545_F491_4F6C_DD1D;

fn core_salt(core: CoreId) -> u64 {
    (core as u64 + 1) << 57
}

/// The per-core salt applied to data-frame selection: zero (shared by
/// every core) for addresses in the inter-core shared region, the
/// per-core salt otherwise (no core uses salt 0).
fn data_salt(core: CoreId, vaddr: VirtAddr) -> u64 {
    if vaddr.is_shared() {
        0
    } else {
        core_salt(core)
    }
}

/// Translates `vaddr` for `core` on a 4 KB page: each (core, virtual
/// page) pair hashes to a physical frame, keeping the page offset.
///
/// This is the simulator's whole translation with the vm subsystem off
/// (its latency folded into the L1 access, as the paper's TLB is accessed
/// in parallel with the L1, §3.1) and [`PageMap::translate`]'s 4 KB
/// case. Every core gets a private physical footprint, so homogeneous
/// multi-core mixes contend in the shared LLC instead of aliasing onto
/// the same lines, and DRAM bank/row placement is randomised the way a
/// first-touch allocator's is. Addresses in the shared virtual region
/// ([`hermes_types::SHARED_BASE`] and above) drop the per-core salt, so
/// every core maps them to the *same* frame — how the sharing-aware
/// workload generators build genuinely shared data.
///
/// # Example
///
/// ```
/// use hermes_vm::page_map::translate;
/// use hermes_types::VirtAddr;
///
/// let p1 = translate(0, VirtAddr::new(0x1234_5678));
/// let p2 = translate(0, VirtAddr::new(0x1234_5678));
/// assert_eq!(p1, p2);
/// assert_ne!(p1, translate(1, VirtAddr::new(0x1234_5678)));
/// ```
#[inline]
pub fn translate(core: CoreId, vaddr: VirtAddr) -> PhysAddr {
    let pfn = mix64(vaddr.page_number() ^ data_salt(core, vaddr)) & ((1 << FRAME_BITS) - 1);
    PhysAddr::from_frame(pfn, vaddr.offset_in_page())
}

/// See [module docs](self).
#[derive(Debug, Clone)]
pub struct PageMap {
    huge_page_pm: u32,
}

impl PageMap {
    /// A map where `huge_page_pm` per-mille of 2 MB regions are backed by
    /// huge pages (0 = all 4 KB, 1000 = all 2 MB).
    ///
    /// # Panics
    ///
    /// Panics if `huge_page_pm > 1000`.
    pub fn new(huge_page_pm: u32) -> Self {
        assert!(huge_page_pm <= 1000, "huge_page_pm is per-mille");
        Self { huge_page_pm }
    }

    /// Whether the 2 MB region containing `vaddr` is backed by a huge
    /// page for `core`. Deterministic per (core, region).
    pub fn is_huge(&self, core: CoreId, vaddr: VirtAddr) -> bool {
        match self.huge_page_pm {
            0 => false,
            1000 => true,
            pm => {
                let hvpn = vaddr.raw() >> HUGE_PAGE_BITS;
                mix64(hvpn ^ data_salt(core, vaddr) ^ SIZE_SALT) % 1000 < pm as u64
            }
        }
    }

    /// Translates `vaddr` for `core`; returns the physical address and
    /// whether a huge page backed it.
    pub fn translate(&self, core: CoreId, vaddr: VirtAddr) -> (PhysAddr, bool) {
        if self.is_huge(core, vaddr) {
            let hvpn = vaddr.raw() >> HUGE_PAGE_BITS;
            let base = mix64(hvpn ^ data_salt(core, vaddr) ^ HUGE_SALT)
                & ((1 << FRAME_BITS) - 1)
                & !(FRAMES_PER_HUGE - 1);
            let offset = vaddr.raw() & (HUGE_PAGE_SIZE as u64 - 1);
            (PhysAddr::new((base << PAGE_BITS) | offset), true)
        } else {
            (translate(core, vaddr), false)
        }
    }

    /// Radix levels a walk for this page size traverses (the leaf PTE of
    /// a 2 MB page sits one level higher).
    pub fn walk_levels(huge: bool) -> usize {
        if huge {
            3
        } else {
            4
        }
    }

    /// The radix prefix resolved after the access at `depth` (0 = root).
    /// Independent of page size: a huge translation simply stops one
    /// level earlier, so upper-level prefixes — and therefore page-walk
    /// cache entries — are shared between page sizes.
    pub fn prefix(vaddr: VirtAddr, depth: usize) -> u64 {
        debug_assert!(depth < 4);
        vaddr.raw() >> (39 - PT_LEVEL_BITS as usize * depth)
    }

    /// Page-walk-cache key for the *non-leaf* entry at `depth`.
    pub fn pwc_key(vaddr: VirtAddr, depth: usize) -> u64 {
        debug_assert!(depth < 3, "leaf PTEs belong to the TLB, not the PWC");
        (Self::prefix(vaddr, depth) << 2) | depth as u64
    }

    /// Physical cache line holding the PTE the walker reads at `depth`
    /// for `vaddr`. Shared by every translation under the same prefix,
    /// which is what gives page-table accesses their cache locality.
    pub fn pte_line(&self, core: CoreId, vaddr: VirtAddr, depth: usize) -> LineAddr {
        let prefix = Self::prefix(vaddr, depth);
        let raw = mix64(prefix ^ ((depth as u64 + 1) << 49) ^ core_salt(core) ^ PTE_SALT);
        LineAddr::new(raw & ((1 << PT_LINE_BITS) - 1))
    }

    /// TLB lookup key for a translation: the page number tagged with the
    /// page size and (for shared structures) the owning core.
    ///
    /// # Panics
    ///
    /// Debug-panics if `core >= 256` (the tag packing's headroom).
    pub fn tlb_key(core: Option<CoreId>, page_number: u64, huge: bool) -> u64 {
        let core = core.map(|c| c as u64 + 1).unwrap_or(0);
        debug_assert!(core <= 256, "core id overflows TLB tag packing");
        debug_assert!(page_number < 1 << 52);
        page_number | (core << 53) | ((huge as u64) << 62)
    }

    /// The page number the TLB indexes with: `vaddr >> 12` for 4 KB,
    /// `vaddr >> 21` for huge pages.
    pub fn page_number(vaddr: VirtAddr, huge: bool) -> u64 {
        if huge {
            vaddr.raw() >> HUGE_PAGE_BITS
        } else {
            vaddr.page_number()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_offset_preserved() {
        let v = VirtAddr::new(0xABCD_E123);
        let p = translate(0, v);
        assert_eq!(p.offset_in_page(), v.offset_in_page());
        assert_eq!(p.byte_offset_in_line(), v.byte_offset_in_line());
    }

    #[test]
    fn same_page_same_frame() {
        let a = translate(2, VirtAddr::new(0x5000_0000));
        let b = translate(2, VirtAddr::new(0x5000_0FFF));
        assert_eq!(a.page_number(), b.page_number());
    }

    #[test]
    fn different_pages_differ() {
        let a = translate(0, VirtAddr::new(0x5000_0000));
        let b = translate(0, VirtAddr::new(0x5000_1000));
        assert_ne!(a.page_number(), b.page_number());
    }

    #[test]
    fn shared_region_maps_identically_for_all_cores() {
        let v = VirtAddr::new(hermes_types::SHARED_BASE + 0x1234_5678);
        let frames: std::collections::HashSet<u64> =
            (0..8).map(|c| translate(c, v).page_number()).collect();
        assert_eq!(frames.len(), 1, "shared pages must alias across cores");
        assert_eq!(translate(0, v).offset_in_page(), v.offset_in_page());
    }

    #[test]
    fn base_pages_match_historical_translation() {
        // The 4 KB formula must be bit-identical to hermes-sim's
        // stateless translate (same mix64, same salt, same frame mask).
        let map = PageMap::new(0);
        for (core, raw) in [(0usize, 0x1234_5678u64), (3, 0xdead_beef_0000), (7, 0x42)] {
            let v = VirtAddr::new(raw);
            let (p, huge) = map.translate(core, v);
            assert!(!huge);
            let expect = mix64(v.page_number() ^ ((core as u64 + 1) << 57)) & ((1 << 36) - 1);
            assert_eq!(p.page_number(), expect);
            assert_eq!(p.offset_in_page(), v.offset_in_page());
        }
    }

    #[test]
    fn huge_pages_preserve_huge_offset_and_are_aligned() {
        let map = PageMap::new(1000);
        let v = VirtAddr::new(0x1234_5678);
        let (p, huge) = map.translate(2, v);
        assert!(huge);
        assert_eq!(
            p.raw() & (HUGE_PAGE_SIZE as u64 - 1),
            v.raw() & (HUGE_PAGE_SIZE as u64 - 1)
        );
        assert_eq!(
            p.raw() >> HUGE_PAGE_BITS << HUGE_PAGE_BITS,
            p.raw() & !(HUGE_PAGE_SIZE as u64 - 1)
        );
        // Two addresses in the same 2 MB region share the frame base.
        let (q, _) = map.translate(2, VirtAddr::new(0x1234_5678 ^ 0xF_FFFF));
        assert_eq!(
            p.raw() & !(HUGE_PAGE_SIZE as u64 - 1),
            q.raw() & !(HUGE_PAGE_SIZE as u64 - 1)
        );
    }

    #[test]
    fn fractional_huge_selection_is_deterministic_and_mixed() {
        let map = PageMap::new(500);
        let mut huge = 0;
        for i in 0..1000u64 {
            let v = VirtAddr::new(i << HUGE_PAGE_BITS);
            assert_eq!(map.is_huge(0, v), map.is_huge(0, v));
            if map.is_huge(0, v) {
                huge += 1;
            }
        }
        assert!((300..700).contains(&huge), "~half should be huge: {huge}");
    }

    #[test]
    fn translate_gives_cores_disjoint_frames() {
        let v = VirtAddr::new(0x7000_0000);
        let frames: std::collections::HashSet<u64> =
            (0..8).map(|c| translate(c, v).page_number()).collect();
        assert_eq!(frames.len(), 8);
    }

    #[test]
    fn cores_have_disjoint_mappings() {
        for pm in [0, 1000] {
            let map = PageMap::new(pm);
            let v = VirtAddr::new(0x7000_0000);
            let frames: std::collections::HashSet<u64> = (0..8)
                .map(|c| map.translate(c, v).0.raw() >> PAGE_BITS)
                .collect();
            assert_eq!(frames.len(), 8, "huge_pm={pm}");
        }
    }

    #[test]
    fn shared_region_aliases_across_cores_both_page_sizes() {
        for pm in [0, 500, 1000] {
            let map = PageMap::new(pm);
            let v = VirtAddr::new(hermes_types::SHARED_BASE + 0x1234_5678);
            let results: std::collections::HashSet<(u64, bool)> = (0..8)
                .map(|c| {
                    let (p, huge) = map.translate(c, v);
                    (p.raw(), huge)
                })
                .collect();
            assert_eq!(
                results.len(),
                1,
                "shared pages must map identically (huge_pm={pm})"
            );
        }
    }

    #[test]
    fn walk_prefixes_nest_and_leafs_differ_per_page() {
        let a = VirtAddr::new(0x7fff_0000_1000);
        let b = VirtAddr::new(0x7fff_0000_2000); // next 4 KB page
                                                 // Upper levels shared, leaf differs.
        for d in 0..3 {
            assert_eq!(PageMap::prefix(a, d), PageMap::prefix(b, d));
        }
        assert_ne!(PageMap::prefix(a, 3), PageMap::prefix(b, 3));
        let map = PageMap::new(0);
        for d in 0..3 {
            assert_eq!(map.pte_line(0, a, d), map.pte_line(0, b, d));
        }
        assert_ne!(map.pte_line(0, a, 3), map.pte_line(0, b, 3));
        // Different cores walk different tables.
        assert_ne!(map.pte_line(0, a, 3), map.pte_line(1, a, 3));
    }

    #[test]
    fn huge_walk_is_one_level_shorter() {
        assert_eq!(PageMap::walk_levels(false), 4);
        assert_eq!(PageMap::walk_levels(true), 3);
        // The huge leaf (depth 2) prefix is the huge page number.
        let v = VirtAddr::new(0x1234_5678_9abc);
        assert_eq!(PageMap::prefix(v, 2), v.raw() >> HUGE_PAGE_BITS);
        assert_eq!(PageMap::prefix(v, 3), v.raw() >> PAGE_BITS);
    }

    #[test]
    fn tlb_keys_separate_cores_sizes_and_pages() {
        let k = |c, p, h| PageMap::tlb_key(c, p, h);
        assert_ne!(k(None, 5, false), k(None, 5, true));
        assert_ne!(k(Some(0), 5, false), k(Some(1), 5, false));
        assert_ne!(k(None, 5, false), k(Some(0), 5, false));
        assert_ne!(k(None, 5, false), k(None, 6, false));
    }
}

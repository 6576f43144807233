//! Address newtypes and cache-line / page arithmetic.
//!
//! The simulator distinguishes three address spaces:
//!
//! * [`VirtAddr`] — program (virtual) addresses carried by the instruction
//!   trace. POPET's program features (§6.1.3 of the paper) are computed from
//!   virtual addresses.
//! * [`PhysAddr`] — post-translation addresses used by the cache hierarchy
//!   and the DRAM address mapping.
//! * [`LineAddr`] — a 64-byte-aligned cache-line number (an address shifted
//!   right by [`LINE_BITS`]); the unit the memory system traffics in.

use std::fmt;

/// Cache-line size in bytes (64 B, Table 4 of the paper).
pub const LINE_SIZE: usize = 64;
/// log2 of [`LINE_SIZE`].
pub const LINE_BITS: u32 = 6;
/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_BITS: u32 = 12;
/// Base of the inter-core *shared* virtual region. Virtual addresses in
/// `[SHARED_BASE, SHARED_BASE + SHARED_SIZE)` translate identically for
/// every core (the address-space convention for shared data
/// structures); everything outside keeps the historical
/// per-core-disjoint mapping. The range is chosen in the gap no
/// pre-existing workload touches: the per-core heap layout tops out
/// near 2^44 and the compute-dilution "stack" region sits at
/// 0x7FFF_0000_0000.
pub const SHARED_BASE: u64 = 0x2000_0000_0000;
/// Size of the shared virtual region (64 GiB — 256 of the generators'
/// 256 MiB regions).
pub const SHARED_SIZE: u64 = 0x10_0000_0000;

macro_rules! addr_common {
    ($t:ident, $doc_space:literal) => {
        impl $t {
            /// Creates an address in the $doc_space address space.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// The cache line this address falls into.
            #[inline]
            pub const fn line(self) -> LineAddr {
                LineAddr(self.0 >> LINE_BITS)
            }

            /// Page number (address >> 12).
            #[inline]
            pub const fn page_number(self) -> u64 {
                self.0 >> PAGE_BITS
            }

            /// Byte offset within the 64 B cache line (bits 0..6).
            #[inline]
            pub const fn byte_offset_in_line(self) -> u64 {
                self.0 & (LINE_SIZE as u64 - 1)
            }

            /// Cache-line offset within the 4 KiB page (bits 6..12), the
            /// "cacheline offset" used by POPET features (1)/(4).
            #[inline]
            pub const fn line_offset_in_page(self) -> u64 {
                (self.0 >> LINE_BITS) & ((PAGE_SIZE as u64 / LINE_SIZE as u64) - 1)
            }

            /// Byte offset within the 4 KiB page (bits 0..12).
            #[inline]
            pub const fn offset_in_page(self) -> u64 {
                self.0 & (PAGE_SIZE as u64 - 1)
            }
        }

        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($t), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $t {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }
    };
}

/// A virtual (program) address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);
addr_common!(VirtAddr, "virtual");

impl VirtAddr {
    /// Whether the address falls in the inter-core shared region (see
    /// [`SHARED_BASE`]). A *virtual*-address-space property: physical
    /// frames are hash-scattered, so the numeric test would be
    /// meaningless on a [`PhysAddr`].
    #[inline]
    pub const fn is_shared(self) -> bool {
        self.0 >= SHARED_BASE && self.0 < SHARED_BASE + SHARED_SIZE
    }
}

/// A physical (post-translation) address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);
addr_common!(PhysAddr, "physical");

impl PhysAddr {
    /// Builds a physical address from a physical frame number and a page
    /// offset.
    #[inline]
    pub const fn from_frame(pfn: u64, offset_in_page: u64) -> Self {
        Self((pfn << PAGE_BITS) | (offset_in_page & (PAGE_SIZE as u64 - 1)))
    }
}

/// A cache-line number: an address with the low [`LINE_BITS`] bits stripped.
///
/// `LineAddr` is what MSHRs, cache tags, the memory-controller read queue,
/// and Hermes-request matching operate on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line *number* (not a byte address).
    #[inline]
    pub const fn new(line_number: u64) -> Self {
        Self(line_number)
    }

    /// The raw line number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The first byte address of the line (as a physical address).
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << LINE_BITS)
    }

    /// Page number the line falls into.
    #[inline]
    pub const fn page_number(self) -> u64 {
        self.0 >> (PAGE_BITS - LINE_BITS)
    }

    /// Cache-line offset within its 4 KiB page (0..64).
    #[inline]
    pub const fn offset_in_page(self) -> u64 {
        self.0 & ((PAGE_SIZE as u64 / LINE_SIZE as u64) - 1)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0 << LINE_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_math() {
        let a = VirtAddr::new(0xdead_beef);
        assert_eq!(a.byte_offset_in_line(), 0xdead_beef & 63);
        assert_eq!(a.line().raw(), 0xdead_beef >> 6);
        assert_eq!(a.page_number(), 0xdead_beef >> 12);
        assert_eq!(a.line_offset_in_page(), (0xdead_beef >> 6) & 63);
        assert_eq!(a.offset_in_page(), 0xdead_beef & 4095);
    }

    #[test]
    fn line_addr_round_trip() {
        let p = PhysAddr::new(0x12345);
        let l = p.line();
        assert_eq!(l.base().raw(), 0x12345 & !63);
        assert_eq!(l.offset_in_page(), (0x12345 >> 6) & 63);
    }

    #[test]
    fn phys_from_frame() {
        let p = PhysAddr::from_frame(0x42, 0x123);
        assert_eq!(p.raw(), (0x42 << 12) | 0x123);
        assert_eq!(p.page_number(), 0x42);
    }

    #[test]
    fn shared_region_classification() {
        assert!(!VirtAddr::new(0x1000_0000_0000).is_shared()); // heap base
        assert!(!VirtAddr::new(0x1FFF_FFFF_FFFF).is_shared());
        assert!(VirtAddr::new(SHARED_BASE).is_shared());
        assert!(VirtAddr::new(SHARED_BASE + 0x1234).is_shared());
        assert!(!VirtAddr::new(SHARED_BASE + SHARED_SIZE).is_shared());
        // The dilution wrapper's hot-stack region must stay per-core.
        assert!(!VirtAddr::new(0x7FFF_0000_0000).is_shared());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{:?}", VirtAddr::new(0)).is_empty());
        assert!(!format!("{}", LineAddr::new(1)).is_empty());
    }
}

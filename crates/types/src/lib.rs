//! Fundamental types shared across the Hermes reproduction.
//!
//! This crate holds the vocabulary that every other crate speaks:
//! [`VirtAddr`] / [`PhysAddr`] / [`LineAddr`] newtypes with cache-line and
//! page arithmetic, saturating counters used by perceptron weights and
//! branch/replacement predictors, the hashing helpers used to index
//! perceptron weight tables, and small summary-statistics utilities used by
//! the experiment harness (geometric means, box-plot summaries).
//!
//! # Example
//!
//! ```
//! use hermes_types::{VirtAddr, LINE_SIZE};
//!
//! let a = VirtAddr::new(0x1234_5678);
//! assert_eq!(a.byte_offset_in_line(), 0x78 % LINE_SIZE as u64);
//! assert_eq!(a.line().base().raw(), 0x1234_5640);
//! ```

pub mod addr;
pub mod counter;
pub mod hashing;
pub mod hist;
pub mod summary;

pub use addr::{
    LineAddr, PhysAddr, VirtAddr, LINE_BITS, LINE_SIZE, PAGE_BITS, PAGE_SIZE, SHARED_BASE,
    SHARED_SIZE,
};
pub use counter::{SatCounter, SatWeight};
pub use hashing::{fold_bits, hash_index, mix64, FastMap, FastSet};
pub use hist::{Hist, HIST_BUCKETS};
pub use summary::{geomean, mean, BoxplotSummary};

/// A simulation timestamp in core clock cycles.
pub type Cycle = u64;

/// Identifier of a simulated core in a multi-core system.
pub type CoreId = usize;

//! Cache building blocks: set-associative tag arrays, replacement policies,
//! miss-status holding registers (MSHRs), and composable hierarchy levels.
//!
//! The paper's baseline (Table 4) models an Alder Lake-style hierarchy:
//! 48 KB/12-way L1D and 1.25 MB/20-way L2 with LRU, and a 3 MB/core 12-way
//! LLC running SHiP. This crate provides those structures as passive,
//! timing-free data types; the request orchestration (queues, latencies,
//! fills, the Hermes merge path) lives in `hermes-sim`'s hierarchy engine,
//! which drives a configurable stack of [`CacheLevel`]s — each a bundle of
//! per-core or shared [`CacheArray`]s plus [`MshrTable`]s built from a
//! [`CacheConfig`] (see [`level`]).
//!
//! # Example
//!
//! ```
//! use hermes_cache::{CacheArray, CacheConfig, ReplacementKind};
//! use hermes_types::LineAddr;
//!
//! let cfg = CacheConfig::new("L1D", 48 * 1024, 12, ReplacementKind::Lru, 16);
//! let mut cache = CacheArray::new(&cfg);
//! let line = LineAddr::new(0x1000);
//! assert!(!cache.access(line, 0).hit);
//! cache.fill(line, false, false, 0);
//! assert!(cache.access(line, 0).hit);
//! ```

pub mod array;
pub mod coherence;
pub mod level;
pub mod mshr;
pub mod replacement;

pub use array::{AccessResult, CacheArray, CacheConfig, Evicted};
pub use coherence::{CoherenceConfig, Mesi};
pub use level::{CacheLevel, LevelStats};
pub use mshr::{MshrFull, MshrTable};
pub use replacement::ReplacementKind;

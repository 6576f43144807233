//! Instruction-trace model and synthetic workload generators.
//!
//! The paper evaluates Hermes on 110 ChampSim traces captured from SPEC
//! CPU2006/2017, PARSEC, Ligra, and CVP-2 workloads. Those traces are not
//! redistributable, so this crate provides the closest synthetic equivalent:
//! deterministic, seeded generators that reproduce the *memory-structure*
//! of each workload class — the property POPET, the prefetchers, and the
//! cache hierarchy actually respond to:
//!
//! * pointer chasing with >LLC working sets (`mcf`-like),
//! * linear streaming where every 16th 4-byte access opens a new line
//!   (`lbm`/STREAM-like; the motivating example for POPET's PC⊕byte-offset
//!   feature, §6.1.3),
//! * multi-array strided sweeps (`cactusADM`-like),
//! * CSR graph traversals with power-law reuse (Ligra BFS / PageRank /
//!   Components / Radii / Triangle),
//! * hash joins and branchy server mixes (CVP-like), and
//! * stencil / streaming-cluster kernels (PARSEC-like).
//!
//! Each generator is an infinite [`TraceSource`]; the simulator pulls
//! instructions one at a time. Generators use a small set of *static PCs*
//! with stable roles (the "neighbour gather" load always has the same PC),
//! because POPET's features correlate program counters with off-chip
//! behaviour.
//!
//! # Example
//!
//! ```
//! use hermes_trace::{suite, TraceSource};
//!
//! let spec = &suite::default_suite()[0];
//! let mut src = spec.build();
//! let instr = src.next_instr();
//! assert!(instr.pc != 0);
//! ```

pub mod gen;
pub mod instr;
pub mod source;
pub mod suite;

pub use instr::{Branch, Instr, MemKind, MemOp, Reg};
pub use source::TraceSource;
pub use suite::{Category, WorkloadSpec};

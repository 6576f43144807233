//! Trace-driven core models.
//!
//! Models the paper's Table 4 core: 6-wide fetch/dispatch/retire, 512-entry
//! reorder buffer, 128/72-entry load/store queues, and a perceptron branch
//! predictor with a 17-cycle misprediction penalty.
//!
//! Two pipeline models share this configuration and the [`MemoryPort`]
//! interface, selected by [`config::CoreModel`]:
//!
//! * [`Core`] (the default, `CoreModel::Legacy`) is *dependency-scheduled*:
//!   instruction completion times are computed eagerly from register
//!   dataflow the moment all producers are known, which gives
//!   cycle-accurate retirement behaviour (the property Hermes' evaluation
//!   rests on: an off-chip load at the ROB head blocks retirement, §2 of
//!   the paper) without a per-cycle wakeup/select model. Load latencies
//!   come from the memory system via [`Core::finish_load`]; everything
//!   downstream of a load reschedules when the data arrives.
//! * `CoreModel::OoO` selects the cycle-driven out-of-order core in the
//!   `hermes-ooo` crate: RAT renaming, a unified reservation-station pool
//!   with issue-width-limited wakeup/select, and a load/store queue with
//!   store-to-load forwarding — the structural model behind the paper's
//!   deep-ROB overlap argument. It lives in its own crate so this one
//!   stays the dependency root both models build on.
//!
//! Simplifications relative to a full RTL-level model, none of which affect
//! the paper's measured effects: no wrong-path execution (a mispredicted
//! branch injects a fetch bubble of `exec + penalty` cycles), no functional
//! unit port contention beyond the OoO model's issue width, and no L1-I
//! side (trace-driven fetch, as in ChampSim's default configuration).

pub mod branch;
pub mod config;
pub mod core;
pub mod port;
pub mod stats;

pub use crate::core::Core;
pub use branch::PerceptronBp;
pub use config::{CoreConfig, CoreModel, OooConfig};
pub use port::{LoadIssue, MemoryPort, ServedBy, StoreIssue};
pub use stats::CoreStats;

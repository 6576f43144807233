//! Full-system simulator: cores + cache hierarchy + Hermes + prefetchers +
//! DRAM, wired per the paper's Table 4.
//!
//! The central types are [`SystemConfig`] (a complete system description
//! with builder-style sweeps for every sensitivity study in §8.4) and
//! [`System`] (the cycle-driven runner producing [`RunStats`]).
//!
//! # Example
//!
//! ```no_run
//! use hermes_sim::{System, SystemConfig};
//! use hermes_trace::suite;
//!
//! let cfg = SystemConfig::baseline_1c(); // Table 4, Pythia, no Hermes
//! let spec = &suite::smoke_suite()[0];
//! let stats = System::new(cfg, std::slice::from_ref(spec)).run(10_000, 50_000);
//! println!("IPC = {:.3}", stats.ipc(0));
//! ```

pub mod config;
pub mod hierarchy;
pub mod power;
pub mod report;
pub mod sched;
pub mod stats;
pub mod system;

pub use config::SystemConfig;
pub use sched::SchedulerModel;
pub use stats::RunStats;
pub use system::System;

//! The 30 experiments, one module each, in `EXPERIMENTS.md` order.
//!
//! Each module defines an [`Experiment`] named `EXPERIMENT`, and the
//! binary of the same name in `src/bin/` runs it alone.

use crate::Experiment;

pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17a;
pub mod fig17b;
pub mod fig17c;
pub mod fig17d;
pub mod fig18p;
pub mod fig18t;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod filter_sweep;
pub mod hier_sweep;
pub mod ooo_sweep;
pub mod probe_demo;
pub mod sharing_sweep;
pub mod table3;
pub mod table6;
pub mod tlb_sweep;

/// Every experiment, in the order `run_all` renders them.
pub const ALL: [Experiment; 30] = [
    table3::EXPERIMENT,
    table6::EXPERIMENT,
    fig02::EXPERIMENT,
    fig03::EXPERIMENT,
    fig04::EXPERIMENT,
    fig05::EXPERIMENT,
    fig09::EXPERIMENT,
    fig10::EXPERIMENT,
    fig11::EXPERIMENT,
    fig12::EXPERIMENT,
    fig13::EXPERIMENT,
    fig14::EXPERIMENT,
    fig15::EXPERIMENT,
    fig16::EXPERIMENT,
    fig17a::EXPERIMENT,
    fig17b::EXPERIMENT,
    fig17c::EXPERIMENT,
    fig17d::EXPERIMENT,
    fig18t::EXPERIMENT,
    fig18p::EXPERIMENT,
    fig19::EXPERIMENT,
    fig20::EXPERIMENT,
    fig21::EXPERIMENT,
    fig22::EXPERIMENT,
    hier_sweep::EXPERIMENT,
    tlb_sweep::EXPERIMENT,
    sharing_sweep::EXPERIMENT,
    filter_sweep::EXPERIMENT,
    probe_demo::EXPERIMENT,
    ooo_sweep::EXPERIMENT,
];

#[cfg(test)]
mod tests {
    use super::ALL;
    use std::collections::HashSet;
    use std::path::Path;

    /// The ids are unique, each has its binary, and `run_all` renders
    /// them in the order of the committed `EXPERIMENTS.md`.
    #[test]
    fn registry_matches_binaries_and_experiments_md() {
        let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        let unique: HashSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate experiment id");

        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        for id in &ids {
            let bin = root.join("src/bin").join(format!("{id}.rs"));
            assert!(bin.is_file(), "{id} has no binary at {}", bin.display());
        }

        let doc = std::fs::read_to_string(root.join("../../EXPERIMENTS.md"))
            .expect("read EXPERIMENTS.md");
        let headings: Vec<&str> = doc
            .lines()
            .filter_map(|l| l.strip_prefix("## ")?.split_once(':'))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, headings);
    }
}

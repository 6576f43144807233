//! Bit-exact goldens for every graph-backed workload in the suites.
//!
//! Each digest is FNV-1a 64 over the `Debug` rendering of the first
//! [`WINDOW`] instructions a spec emits (dilution filler included). BFS,
//! Radii and Triangle read vertices far ahead of their cursor, so these
//! pin the CSR synthesis order and the kernels' host-side walks, not just
//! the in-order sweep of PageRank and Components. Every spec is checked at
//! its suite seed and at [`RESEED`] above it (one benchmark-seed stride).

use std::fmt::Write;

use hermes_trace::suite::{self, GenConfig, WorkloadSpec};

const WINDOW: usize = 200_000;

/// Seed offset for the second digest of every spec.
const RESEED: u64 = 64;

/// Spec name → (digest at the suite seed, digest at suite seed + `RESEED`).
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("ligra-bfs", 0x103c91d6ec2b489f, 0xf0598881f43bdc4f),
    ("ligra-pagerank", 0x27506a5d76b2184f, 0x516ac655e8a7027e),
    ("ligra-components", 0x3431c0fe0108a621, 0xe612fdeeba82ae10),
    ("ligra-triangle", 0x2eeac6b064d05564, 0x39385b7fd8b33ca0),
    ("ligra-radii", 0xa89a319dcd360bc6, 0x3662d15a3921d7df),
    ("ligra-pagerank-2", 0xf18a965d99a868f4, 0x5bdf8cd9da56c074),
    ("ligra-bfs-2", 0x25da243835bbca45, 0x0298b05a0b4380b4),
    ("ligra-components-2", 0x87f79df460beec33, 0xf7070528e6f65941),
    ("ligra-bfs-alt", 0x1bddb106ccca8d0e, 0x6abc201855931e26),
    ("ligra-pagerank-alt", 0x1502b480eeb5b2f1, 0xa7cc9876b72ac051),
    ("ligra-components-alt", 0x0861ce0c2621a29b, 0x20d98a2d0ab06e22),
    ("ligra-triangle-alt", 0xbf25a79f963646dd, 0x38eee3470392fe24),
    ("ligra-radii-alt", 0x9ea75fecb704fde4, 0x276933d84ad4043d),
    ("ligra-pagerank-2-alt", 0x4ba27a139b89dda9, 0x187d01c33a6d385f),
    ("ligra-bfs-2-alt", 0x1f0414324a31f204, 0x27541279768e5e3a),
    ("ligra-components-2-alt", 0x216682934686b1ae, 0x7c2b6217636b1d60),
];

struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

fn digest(spec: &WorkloadSpec) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut src = spec.build();
    for _ in 0..WINDOW {
        write!(h, "{:?};", src.next_instr()).expect("hashing never fails");
    }
    h.0
}

fn graph_backed(c: &GenConfig) -> bool {
    match c {
        GenConfig::Graph { .. } | GenConfig::Radii { .. } => true,
        GenConfig::Diluted { inner, .. } => graph_backed(inner),
        GenConfig::Mixed { a, b, .. } => graph_backed(a) || graph_backed(b),
        _ => false,
    }
}

/// `full_suite` contains `default_suite`, so this is every graph-backed
/// spec of both, `-alt` seed variants included.
fn graph_specs() -> Vec<WorkloadSpec> {
    suite::full_suite()
        .into_iter()
        .filter(|s| graph_backed(&s.config))
        .collect()
}

#[test]
fn graph_workloads_match_golden_digests() {
    let mut got = Vec::new();
    for spec in graph_specs() {
        let mut alt = spec.clone();
        alt.seed = alt.seed.wrapping_add(RESEED);
        got.push((spec.name.clone(), digest(&spec), digest(&alt)));
    }
    let table: String = got
        .iter()
        .map(|(n, a, b)| format!("    (\"{n}\", {a:#018x}, {b:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(n, a, b)| (n.to_string(), a, b))
        .collect();
    assert_eq!(got, want, "graph trace digests moved; now:\n{table}");
}

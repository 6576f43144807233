//! Table 3 — storage overhead of Hermes, computed from the live
//! configuration.

use crate::{Experiment, Results, Scale, Table};
use hermes::storage;
use hermes::PopetConfig;

pub const EXPERIMENT: Experiment = Experiment {
    id: "table3",
    title: "Hermes storage overhead",
    scale: Scale::clone,
    points: |_| Vec::new(),
    render,
};

fn render(_: &Results, _: &Scale) -> String {
    let cfg = PopetConfig::paper();
    let lq = hermes_cpu::CoreConfig::baseline().lq_size;

    let mut t = Table::new(&["structure", "description", "size (KB)"]);
    for row in storage::table3(&cfg, lq) {
        t.row(&[
            row.structure.clone(),
            row.description.clone(),
            format!("{:.2}", row.kb()),
        ]);
    }
    let total_kb = storage::hermes_total_bits(&cfg, lq) as f64 / 8.0 / 1024.0;
    t.row(&[
        "Total".to_string(),
        String::new(),
        format!("{:.2}", total_kb),
    ]);
    let summary = format!(
        "Total Hermes storage: {:.2} KB per core (paper: 4.0 KB).",
        total_kb
    );
    format!("{}\n{}", t.to_markdown(), summary)
}

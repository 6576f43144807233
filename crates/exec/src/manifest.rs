//! Machine-readable run manifests.
//!
//! One JSON document per experiment under `target/experiments/<id>.json`,
//! recording what the engine did: per-point wall time, how each point was
//! served (simulated or read from the disk cache), how many
//! submitted points shared another's result within the batch, and the
//! measured statistics. These files seed the
//! `BENCH_*.json`-style perf trajectory: CI prints them, so evaluation
//! throughput is visible per push.
//!
//! The JSON is emitted by hand (no serde in the vendored-only workspace):
//! the value space is just strings, finite doubles, bools, and integers.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use hermes_probe::escape_json;

use crate::cache::CACHE_SCHEMA_VERSION;
use crate::record::RunLite;
use crate::{Outcome, Provenance};

/// One cached/simulated point in a manifest.
#[derive(Debug, Clone)]
pub struct ManifestEntry {
    /// Cache key of the point.
    pub key: String,
    /// Configuration tag.
    pub tag: String,
    /// Workload name.
    pub workload: String,
    /// How the result was obtained.
    pub provenance: Provenance,
    /// Wall time spent obtaining it (≈0 for cache hits).
    pub wall: Duration,
    /// The measurements.
    pub stats: RunLite,
}

/// A whole experiment's execution record.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Experiment id (`fig09`, `table3`, …).
    pub experiment: String,
    /// Worker threads the engine ran with.
    pub jobs: usize,
    /// Process wall time when the manifest was written.
    pub wall: Duration,
    /// One entry per outcome that is not [`Provenance::Deduped`]: each
    /// distinct point of a batch, once.
    pub entries: Vec<ManifestEntry>,
    /// Outcomes that shared an earlier point's result in their batch.
    pub deduped: usize,
}

impl Manifest {
    /// Builds a manifest from engine outcomes: the deduplicated ones are
    /// counted, the rest listed.
    pub fn from_outcomes(
        experiment: impl Into<String>,
        jobs: usize,
        wall: Duration,
        outcomes: &[Outcome],
    ) -> Self {
        let entries: Vec<ManifestEntry> = outcomes
            .iter()
            .filter(|o| o.provenance != Provenance::Deduped)
            .map(|o| ManifestEntry {
                key: o.key.clone(),
                tag: o.tag.clone(),
                workload: o.workload.clone(),
                provenance: o.provenance,
                wall: o.wall,
                stats: o.result.clone(),
            })
            .collect();
        Self {
            experiment: experiment.into(),
            jobs,
            wall,
            deduped: outcomes.len() - entries.len(),
            entries,
        }
    }

    /// Number of outcomes with the given provenance.
    pub fn count(&self, p: Provenance) -> usize {
        match p {
            Provenance::Deduped => self.deduped,
            _ => self.entries.iter().filter(|e| e.provenance == p).count(),
        }
    }

    /// Renders the JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.entries.len() * 512);
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            escape_json(&self.experiment)
        ));
        s.push_str(&format!("  \"cache_schema\": {CACHE_SCHEMA_VERSION},\n"));
        s.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        s.push_str(&format!("  \"wall_ms\": {},\n", json_num(ms(self.wall))));
        s.push_str(&format!("  \"points\": {},\n", self.entries.len()));
        s.push_str(&format!(
            "  \"simulated\": {},\n",
            self.count(Provenance::Computed)
        ));
        s.push_str(&format!(
            "  \"cached\": {},\n",
            self.count(Provenance::Cache)
        ));
        s.push_str(&format!(
            "  \"deduped\": {},\n",
            self.count(Provenance::Deduped)
        ));
        s.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!("\"key\": \"{}\", ", escape_json(&e.key)));
            s.push_str(&format!("\"tag\": \"{}\", ", escape_json(&e.tag)));
            s.push_str(&format!("\"workload\": \"{}\", ", escape_json(&e.workload)));
            s.push_str(&format!("\"provenance\": \"{}\", ", e.provenance.label()));
            s.push_str(&format!("\"wall_ms\": {}, ", json_num(ms(e.wall))));
            s.push_str("\"stats\": {");
            for (j, (field, v)) in e.stats.fields().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{field}\": {}", json_num(v)));
            }
            s.push_str("}}");
        }
        if !self.entries.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Writes `<dir>/<experiment>.json`; returns the path.
    pub fn write(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// One-line human summary for progress logs.
    pub fn summary_line(&self) -> String {
        format!(
            "{} points: {} simulated, {} cached, {} deduped; {:.1}s wall, jobs={}",
            self.entries.len(),
            self.count(Provenance::Computed),
            self.count(Provenance::Cache),
            self.count(Provenance::Deduped),
            self.wall.as_secs_f64(),
            self.jobs,
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// JSON number: finite doubles as-is, non-finite as null (JSON has no
/// NaN/Inf).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(key: &str, p: Provenance) -> Outcome {
        Outcome {
            key: key.into(),
            tag: "tag".into(),
            workload: "wl".into(),
            provenance: p,
            wall: Duration::from_millis(5),
            result: RunLite {
                ipc: 1.0,
                cycles: 10.0,
                ..Default::default()
            },
        }
    }

    #[test]
    fn manifest_dedups_by_key_first_wins() {
        let outs = vec![
            outcome("a", Provenance::Computed),
            outcome("b", Provenance::Cache),
            outcome("a", Provenance::Deduped),
            outcome("a", Provenance::Deduped),
        ];
        let m = Manifest::from_outcomes("figX", 2, Duration::from_secs(1), &outs);
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.entries[0].provenance, Provenance::Computed);
        assert_eq!(m.count(Provenance::Computed), 1);
        assert_eq!(m.count(Provenance::Cache), 1);
        // Deduplicated outcomes are counted, not listed.
        assert_eq!(m.count(Provenance::Deduped), 2);
        assert!(m.to_json().contains("\"points\": 2,"));
        assert!(m.to_json().contains("\"deduped\": 2,"));
        assert!(m.summary_line().contains(", 2 deduped;"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let outs = vec![outcome("a\"quote", Provenance::Computed)];
        let m = Manifest::from_outcomes("figX", 4, Duration::from_millis(1500), &outs);
        let j = m.to_json();
        assert!(j.contains("\"experiment\": \"figX\""));
        assert!(j.contains("\\\"quote\""));
        assert!(j.contains("\"jobs\": 4"));
        assert!(j.contains("\"ipc\": 1"));
        assert!(hermes_probe::validate_json(&j).is_ok(), "{j}");
    }

    #[test]
    fn non_finite_stats_become_null() {
        let mut o = outcome("a", Provenance::Computed);
        o.result.accuracy = f64::NAN;
        let m = Manifest::from_outcomes("figX", 1, Duration::ZERO, &[o]);
        assert!(m.to_json().contains("\"accuracy\": null"));
    }
}

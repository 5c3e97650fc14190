//! Machine-readable experiment records.
//!
//! Every `repro` subcommand appends a JSON record to
//! `experiments/<id>.json`, which is what EXPERIMENTS.md's paper-vs-measured
//! tables are built from.

use hetkg_train::TrainReport;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// One experiment's output: the rendered table plus raw rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id (e.g. "table3", "fig8b").
    pub id: String,
    /// Human title.
    pub title: String,
    /// Free-form parameter description.
    pub params: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (stringified cells, aligned with `columns`).
    pub rows: Vec<Vec<String>>,
    /// Notes on how to compare against the paper.
    pub shape_expectation: String,
    /// FNV-1a over every training report the rows were read from, wall
    /// clock aside, in hex: the rows round, this does not.
    pub digest: String,
}

/// FNV-1a, folded a 64-bit word at a time (a byte is a word).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word.
    pub(crate) fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0100_0000_01b3);
    }

    /// Fold each byte.
    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.word(u64::from(b)));
    }

    /// Fold every bit a report holds but its wall clock (`wall_secs`):
    /// its JSON, whose floats print round-trip exact, with that zeroed.
    pub(crate) fn report(&mut self, report: &TrainReport) {
        let mut report = report.clone();
        report.epochs.iter_mut().for_each(|e| e.wall_secs = 0.0);
        let json = serde_json::to_string(&report).expect("a report serializes");
        self.bytes(json.as_bytes());
    }

    /// The digest, as a record writes it.
    pub(crate) fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl ExperimentRecord {
    /// Where records are written, relative to the workspace root.
    pub fn dir() -> PathBuf {
        // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
        let manifest = std::env::var("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("."));
        manifest
            .parent()
            .and_then(Path::parent)
            .map(|root| root.join("experiments"))
            .unwrap_or_else(|| PathBuf::from("experiments"))
    }

    /// Write this record as `experiments/<id>.json`.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = Self::dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let json = serde_json::to_string_pretty(self).expect("record serializes");
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let r = ExperimentRecord {
            id: "test-rec".into(),
            title: "t".into(),
            params: "p".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2".into()]],
            shape_expectation: "s".into(),
            digest: Fnv::default().hex(),
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: ExperimentRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, "test-rec");
        assert_eq!(back.rows[0][1], "2");
        assert_eq!(back.digest, "cbf29ce484222325");
    }

    #[test]
    fn a_report_digest_reads_every_field_but_the_wall_clock() {
        let report = TrainReport {
            epochs: vec![Default::default(); 2],
            ..Default::default()
        };
        let digest = |r: &TrainReport| {
            let mut fnv = Fnv::default();
            fnv.report(r);
            fnv.hex()
        };
        let mut slower = report.clone();
        slower.epochs[1].wall_secs = 3.0;
        assert_eq!(digest(&slower), digest(&report));
        let mut moved = report.clone();
        moved.epochs[1].loss = f64::from_bits(1);
        assert_ne!(digest(&moved), digest(&report));
    }

    #[test]
    fn save_writes_a_file() {
        let r = ExperimentRecord {
            id: "unit-test-scratch".into(),
            title: "t".into(),
            params: String::new(),
            columns: vec![],
            rows: vec![],
            shape_expectation: String::new(),
            digest: Fnv::default().hex(),
        };
        let path = r.save().unwrap();
        assert!(path.exists());
        std::fs::remove_file(path).ok();
    }
}

//! TSV loading/saving in the format used by FB15k/WN18 distributions.
//!
//! Benchmark files are lines of `head<TAB>relation<TAB>tail` where the three
//! fields are arbitrary strings. [`Dictionary`] interns strings to dense ids;
//! [`load_tsv`]/[`load_tsv_str`] parse one file, [`load_benchmark`] parses
//! the conventional `train.txt`/`valid.txt`/`test.txt` trio sharing one
//! dictionary (ranking evaluation needs consistent ids across splits).

use crate::graph::KnowledgeGraph;
use crate::triple::Triple;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Interns entity and relation names to dense `u32` ids.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    entity_ids: HashMap<String, u32>,
    entity_names: Vec<String>,
    relation_ids: HashMap<String, u32>,
    relation_names: Vec<String>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id for an entity name, interning it if unseen.
    pub fn entity(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.entity_ids.get(name) {
            return id;
        }
        let id = self.entity_names.len() as u32;
        self.entity_ids.insert(name.to_owned(), id);
        self.entity_names.push(name.to_owned());
        id
    }

    /// Id for a relation name, interning it if unseen.
    pub fn relation(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.relation_ids.get(name) {
            return id;
        }
        let id = self.relation_names.len() as u32;
        self.relation_ids.insert(name.to_owned(), id);
        self.relation_names.push(name.to_owned());
        id
    }

    /// Look up an entity id without interning.
    pub fn entity_id(&self, name: &str) -> Option<u32> {
        self.entity_ids.get(name).copied()
    }

    /// Name of an entity id.
    pub fn entity_name(&self, id: u32) -> Option<&str> {
        self.entity_names.get(id as usize).map(String::as_str)
    }

    /// Name of a relation id.
    pub fn relation_name(&self, id: u32) -> Option<&str> {
        self.relation_names.get(id as usize).map(String::as_str)
    }

    /// Number of interned entities.
    pub fn num_entities(&self) -> usize {
        self.entity_names.len()
    }

    /// Number of interned relations.
    pub fn num_relations(&self) -> usize {
        self.relation_names.len()
    }
}

/// Errors from TSV parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A line did not have exactly three tab-separated fields.
    BadLine { line_number: usize, content: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::BadLine {
                line_number,
                content,
            } => {
                write!(
                    f,
                    "line {line_number}: expected 3 tab-separated fields, got {content:?}"
                )
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse triples from TSV text, interning names through `dict`.
pub fn load_tsv_str(text: &str, dict: &mut Dictionary) -> Result<Vec<Triple>, IoError> {
    let mut triples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let (h, r, t) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(h), Some(r), Some(t), None) => (h, r, t),
            _ => {
                return Err(IoError::BadLine {
                    line_number: i + 1,
                    content: line.to_owned(),
                })
            }
        };
        triples.push(Triple::new(
            dict.entity(h),
            dict.relation(r),
            dict.entity(t),
        ));
    }
    Ok(triples)
}

/// Parse triples from a TSV file, interning names through `dict`.
pub fn load_tsv(path: &Path, dict: &mut Dictionary) -> Result<Vec<Triple>, IoError> {
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::new(file);
    // Stream line-by-line with a workhorse String to avoid per-line allocs.
    let mut text = String::new();
    let mut triples = Vec::new();
    let mut line_number = 0usize;
    loop {
        text.clear();
        if reader.read_line(&mut text)? == 0 {
            break;
        }
        line_number += 1;
        let line = text.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let (h, r, t) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(h), Some(r), Some(t), None) => (h, r, t),
            _ => {
                return Err(IoError::BadLine {
                    line_number,
                    content: line.to_owned(),
                })
            }
        };
        triples.push(Triple::new(
            dict.entity(h),
            dict.relation(r),
            dict.entity(t),
        ));
    }
    Ok(triples)
}

/// A benchmark dataset loaded from `train/valid/test` files sharing one id
/// space.
#[derive(Debug)]
pub struct Benchmark {
    /// The full graph (union of the three splits' triples, shared id space).
    pub graph: KnowledgeGraph,
    /// Training triples.
    pub train: Vec<Triple>,
    /// Validation triples.
    pub valid: Vec<Triple>,
    /// Test triples.
    pub test: Vec<Triple>,
    /// Name dictionary.
    pub dict: Dictionary,
}

/// Load `dir/train.txt`, `dir/valid.txt`, `dir/test.txt` (the FB15k/WN18
/// distribution convention) into a single id space.
pub fn load_benchmark(dir: &Path) -> Result<Benchmark, IoError> {
    let mut dict = Dictionary::new();
    let train = load_tsv(&dir.join("train.txt"), &mut dict)?;
    let valid = load_tsv(&dir.join("valid.txt"), &mut dict)?;
    let test = load_tsv(&dir.join("test.txt"), &mut dict)?;
    let mut all = Vec::with_capacity(train.len() + valid.len() + test.len());
    all.extend_from_slice(&train);
    all.extend_from_slice(&valid);
    all.extend_from_slice(&test);
    let graph = KnowledgeGraph::new_unchecked(dict.num_entities(), dict.num_relations(), all);
    Ok(Benchmark {
        graph,
        train,
        valid,
        test,
        dict,
    })
}

/// Write triples as TSV using the dictionary's names.
///
/// Triples whose ids are missing from the dictionary are written as raw
/// numbers (round-trips through [`load_tsv`] still work).
pub fn save_tsv<W: Write>(mut w: W, triples: &[Triple], dict: &Dictionary) -> std::io::Result<()> {
    for t in triples {
        match (
            dict.entity_name(t.head.0),
            dict.relation_name(t.relation.0),
            dict.entity_name(t.tail.0),
        ) {
            (Some(h), Some(r), Some(ta)) => writeln!(w, "{h}\t{r}\t{ta}")?,
            _ => writeln!(w, "{}\t{}\t{}", t.head.0, t.relation.0, t.tail.0)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_interns_stably() {
        let mut d = Dictionary::new();
        assert_eq!(d.entity("/m/alice"), 0);
        assert_eq!(d.entity("/m/bob"), 1);
        assert_eq!(d.entity("/m/alice"), 0);
        assert_eq!(d.relation("knows"), 0);
        assert_eq!(d.num_entities(), 2);
        assert_eq!(d.num_relations(), 1);
        assert_eq!(d.entity_name(1), Some("/m/bob"));
        assert_eq!(d.entity_id("/m/bob"), Some(1));
        assert_eq!(d.entity_id("/m/carol"), None);
    }

    #[test]
    fn parse_simple_tsv() {
        let mut d = Dictionary::new();
        let triples = load_tsv_str("a\tlikes\tb\nb\tlikes\tc\n", &mut d).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0], Triple::new(0, 0, 1));
        assert_eq!(triples[1], Triple::new(1, 0, 2));
    }

    #[test]
    fn blank_lines_and_crlf_tolerated() {
        let mut d = Dictionary::new();
        let triples = load_tsv_str("a\tr\tb\r\n\n\nb\tr\ta\r\n", &mut d).unwrap();
        assert_eq!(triples.len(), 2);
    }

    #[test]
    fn bad_line_is_reported_with_number() {
        let mut d = Dictionary::new();
        let err = load_tsv_str("a\tr\tb\noops\n", &mut d).unwrap_err();
        match err {
            IoError::BadLine {
                line_number,
                content,
            } => {
                assert_eq!(line_number, 2);
                assert_eq!(content, "oops");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn four_fields_is_an_error() {
        let mut d = Dictionary::new();
        assert!(load_tsv_str("a\tr\tb\tc\n", &mut d).is_err());
    }

    #[test]
    fn save_load_round_trip() {
        let mut d = Dictionary::new();
        let triples = load_tsv_str("alice\tknows\tbob\nbob\tknows\tcarol\n", &mut d).unwrap();
        let mut buf = Vec::new();
        save_tsv(&mut buf, &triples, &d).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut d2 = Dictionary::new();
        let reparsed = load_tsv_str(&text, &mut d2).unwrap();
        assert_eq!(reparsed, triples);
        assert_eq!(d2.num_entities(), d.num_entities());
    }

    #[test]
    fn file_round_trip_through_benchmark_layout() {
        let dir = std::env::temp_dir().join(format!("hetkg-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("train.txt"), "a\tr\tb\nb\tr\tc\n").unwrap();
        std::fs::write(dir.join("valid.txt"), "a\tr\tc\n").unwrap();
        std::fs::write(dir.join("test.txt"), "c\tr\ta\n").unwrap();
        let bench = load_benchmark(&dir).unwrap();
        assert_eq!(bench.train.len(), 2);
        assert_eq!(bench.valid.len(), 1);
        assert_eq!(bench.test.len(), 1);
        assert_eq!(bench.graph.num_triples(), 4);
        assert_eq!(bench.graph.num_entities(), 3);
        assert_eq!(bench.graph.num_relations(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

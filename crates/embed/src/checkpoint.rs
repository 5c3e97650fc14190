//! Embedding checkpointing: save and load dense tables.
//!
//! A checkpoint is two tables (entities, relations) and, optionally,
//! resumable [`TrainState`] — the epoch counter, an optimizer description
//! and the optimizer-state tables, enough for a crashed trainer to restart
//! mid-run without replaying history. Training runs use it to persist the
//! final model and their recovery images; the evaluation and serving
//! tooling loads it back.
//!
//! There is one format, version 3: magic, version, a flags word saying
//! whether train state follows, the shapes, then little-endian `f32` rows,
//! with every region (header, each payload table) followed by a 32-bit
//! FNV-1a digest, so a torn write or bit rot is detected as a typed
//! [`CheckpointError::ChecksumMismatch`] instead of being loaded as
//! silently wrong embeddings. Versions 1 and 2, which carried no digests,
//! read as [`CheckpointError::BadVersion`]. [`Checkpoint::save`] writes via
//! write-temp → fsync → atomic-rename (plus a parent-directory fsync), so a
//! crash mid-save can never leave a half-written file under the final
//! name.

use crate::storage::EmbeddingTable;
use bytes::{BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"HETKGCK\0";
const VERSION: u32 = 3;
/// Flags word: bit 0 set when the checkpoint carries [`TrainState`].
const FLAG_HAS_STATE: u32 = 1;

/// 32-bit FNV-1a, resumable from a prior digest state: every section's
/// checksum.
fn fnv1a_with(seed: u32, bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(seed, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_with(0x811C_9DC5, bytes)
}

/// Errors from reading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a checkpoint file (bad magic).
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Header shape disagrees with payload length.
    Truncated,
    /// A v3 section's stored digest disagrees with its contents (torn
    /// write, bit rot, or tampering).
    ChecksumMismatch {
        /// Which region failed: `"header"`, `"entities"`, `"relations"`,
        /// `"entity_state"`, or `"relation_state"`.
        section: &'static str,
    },
    /// No checkpoint in a [`CheckpointStore`](crate::CheckpointStore)
    /// manifest survived validation.
    NoValidCheckpoint {
        /// How many manifest entries were tried (and failed).
        tried: usize,
    },
    /// A table dimension or string length exceeds what the format's u32
    /// fields can record. Refusing to serialize beats the silent `as u32`
    /// truncation this replaces, which round-tripped as corrupt tables.
    TooLarge {
        /// Which field overflowed (e.g. `"entity dim"`).
        what: &'static str,
        /// The offending length.
        len: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a HET-KG checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint is truncated"),
            CheckpointError::ChecksumMismatch { section } => {
                write!(f, "checkpoint section `{section}` failed its checksum")
            }
            CheckpointError::NoValidCheckpoint { tried } => {
                write!(f, "no valid checkpoint in manifest ({tried} entries tried)")
            }
            CheckpointError::TooLarge { what, len } => {
                write!(
                    f,
                    "checkpoint {what} of {len} does not fit the format's u32 field"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Resumable training state a checkpoint may carry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Completed epochs at save time (training resumes from here).
    pub epoch: u64,
    /// Human-readable optimizer description (e.g. `AdaGrad { lr: 0.1 }`);
    /// lets a loader detect state written by a different optimizer.
    pub optimizer: String,
    /// Per-entity optimizer state rows (AdaGrad accumulators, or a single
    /// zero column for stateless optimizers).
    pub entity_state: EmbeddingTable,
    /// Per-relation optimizer state rows.
    pub relation_state: EmbeddingTable,
}

/// A pair of embedding tables (the model parameters) with serialization,
/// optionally carrying resumable [`TrainState`].
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Entity rows, indexed by entity id.
    pub entities: EmbeddingTable,
    /// Relation rows, indexed by relation id.
    pub relations: EmbeddingTable,
    /// Epoch + optimizer state, present in a resumable checkpoint.
    pub train_state: Option<TrainState>,
}

impl Checkpoint {
    /// Wrap two tables (no train state).
    pub fn new(entities: EmbeddingTable, relations: EmbeddingTable) -> Self {
        Self {
            entities,
            relations,
            train_state: None,
        }
    }

    /// Wrap two tables plus resumable train state.
    pub fn with_state(
        entities: EmbeddingTable,
        relations: EmbeddingTable,
        train_state: TrainState,
    ) -> Self {
        Self {
            entities,
            relations,
            train_state: Some(train_state),
        }
    }

    /// Check that a length fits the format's u32 fields — bare `as u32`
    /// casts here used to truncate oversized tables into checkpoints that
    /// round-tripped corrupt.
    fn u32_of(what: &'static str, len: usize) -> Result<u32, CheckpointError> {
        u32::try_from(len).map_err(|_| CheckpointError::TooLarge { what, len })
    }

    /// Serialize: the header, then each table, each followed by its FNV-1a
    /// digest. This is what [`save`](Checkpoint::save) puts on disk. Fails
    /// with [`CheckpointError::TooLarge`] when a dimension or the optimizer
    /// string overflows the format's u32 fields.
    pub fn to_bytes_checked(&self) -> Result<Bytes, CheckpointError> {
        let payload = 4 * (self.entities.as_slice().len() + self.relations.as_slice().len());
        let mut buf = BytesMut::with_capacity(8 + 4 + 4 + 4 * (8 + 4) + 5 * 4 + payload);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(if self.train_state.is_some() {
            FLAG_HAS_STATE
        } else {
            0
        });
        buf.put_u64_le(self.entities.rows() as u64);
        buf.put_u32_le(Self::u32_of("entity dim", self.entities.dim())?);
        buf.put_u64_le(self.relations.rows() as u64);
        buf.put_u32_le(Self::u32_of("relation dim", self.relations.dim())?);
        if let Some(ts) = &self.train_state {
            buf.put_u64_le(ts.epoch);
            buf.put_u32_le(Self::u32_of("optimizer string", ts.optimizer.len())?);
            buf.put_slice(ts.optimizer.as_bytes());
            buf.put_u64_le(ts.entity_state.rows() as u64);
            buf.put_u32_le(Self::u32_of("entity state dim", ts.entity_state.dim())?);
            buf.put_u64_le(ts.relation_state.rows() as u64);
            buf.put_u32_le(Self::u32_of("relation state dim", ts.relation_state.dim())?);
        }
        let header_crc = fnv1a(&buf[..]);
        buf.put_u32_le(header_crc);

        let put_table = |buf: &mut BytesMut, t: &EmbeddingTable| {
            let start = buf.len();
            for &v in t.as_slice() {
                buf.put_f32_le(v);
            }
            let crc = fnv1a(&buf[start..]);
            buf.put_u32_le(crc);
        };
        put_table(&mut buf, &self.entities);
        put_table(&mut buf, &self.relations);
        if let Some(ts) = &self.train_state {
            put_table(&mut buf, &ts.entity_state);
            put_table(&mut buf, &ts.relation_state);
        }
        Ok(buf.freeze())
    }

    /// Deserialize from bytes, checking every digest.
    pub fn from_bytes(data: Bytes) -> Result<Self, CheckpointError> {
        if data.len() < 8 + 4 || &data[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        Self::from_body(&data[12..])
    }

    /// Parse the body (`data` starts right after magic + version).
    fn from_body(data: &[u8]) -> Result<Self, CheckpointError> {
        struct Cur<'a> {
            buf: &'a [u8],
            pos: usize,
        }
        impl<'a> Cur<'a> {
            fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
                let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
                if end > self.buf.len() {
                    return Err(CheckpointError::Truncated);
                }
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            fn u32(&mut self) -> Result<u32, CheckpointError> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64, CheckpointError> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
            }
        }

        let mut cur = Cur { buf: data, pos: 0 };
        let flags = cur.u32()?;
        let ent_rows = cur.u64()? as usize;
        let ent_dim = cur.u32()? as usize;
        let rel_rows = cur.u64()? as usize;
        let rel_dim = cur.u32()? as usize;
        if ent_dim == 0 || rel_dim == 0 {
            return Err(CheckpointError::Truncated);
        }
        let mut state_header = None;
        if flags & FLAG_HAS_STATE != 0 {
            let epoch = cur.u64()?;
            let opt_len = cur.u32()? as usize;
            let optimizer = String::from_utf8(cur.take(opt_len)?.to_vec())
                .map_err(|_| CheckpointError::Truncated)?;
            let es_rows = cur.u64()? as usize;
            let es_dim = cur.u32()? as usize;
            let rs_rows = cur.u64()? as usize;
            let rs_dim = cur.u32()? as usize;
            if es_dim == 0 || rs_dim == 0 {
                return Err(CheckpointError::Truncated);
            }
            state_header = Some((epoch, optimizer, es_rows, es_dim, rs_rows, rs_dim));
        }
        // The header digest covers magic + version + everything up to here.
        let mut pre = [0u8; 12];
        pre[..8].copy_from_slice(MAGIC);
        pre[8..].copy_from_slice(&VERSION.to_le_bytes());
        let computed = fnv1a_with(fnv1a(&pre), &data[..cur.pos]);
        if cur.u32()? != computed {
            return Err(CheckpointError::ChecksumMismatch { section: "header" });
        }

        let read_table = |cur: &mut Cur<'_>, rows: usize, dim: usize, section: &'static str| {
            let bytes = rows
                .checked_mul(dim)
                .and_then(|c| c.checked_mul(4))
                .ok_or(CheckpointError::Truncated)?;
            let raw = cur.take(bytes)?;
            if cur.u32()? != fnv1a(raw) {
                return Err(CheckpointError::ChecksumMismatch { section });
            }
            let values = raw
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            Ok::<_, CheckpointError>(EmbeddingTable::from_data(dim, values))
        };
        let entities = read_table(&mut cur, ent_rows, ent_dim, "entities")?;
        let relations = read_table(&mut cur, rel_rows, rel_dim, "relations")?;
        let train_state = match state_header {
            None => None,
            Some((epoch, optimizer, es_rows, es_dim, rs_rows, rs_dim)) => {
                let entity_state = read_table(&mut cur, es_rows, es_dim, "entity_state")?;
                let relation_state = read_table(&mut cur, rs_rows, rs_dim, "relation_state")?;
                Some(TrainState {
                    epoch,
                    optimizer,
                    entity_state,
                    relation_state,
                })
            }
        };
        Ok(Self {
            entities,
            relations,
            train_state,
        })
    }

    /// Write to a file, crash-consistently: the checked bytes go to a
    /// sibling temp file, are fsynced, and are atomically renamed over
    /// `path`; the parent directory is then fsynced (best-effort) so the
    /// rename itself is durable. A crash at any instant leaves either the
    /// old file or the new one under `path` — never a torn mix.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&self.to_bytes_checked()?)?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            // Directory fsync is required for rename durability on Linux but
            // unsupported on some platforms/filesystems; failure to sync the
            // directory does not un-write the checkpoint.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Read from a file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let mut data = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut data)?;
        Self::from_bytes(Bytes::from(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 32-bit test vectors.
        assert_eq!(fnv1a(b""), 0x811C_9DC5);
        assert_eq!(fnv1a(b"a"), 0xE40C_292C);
        assert_eq!(fnv1a(b"foobar"), 0xBF9C_F968);
    }

    fn sample() -> Checkpoint {
        let mut entities = EmbeddingTable::zeros(7, 5);
        let mut relations = EmbeddingTable::zeros(3, 11);
        Init::Xavier.fill(&mut entities, 1);
        Init::Uniform { bound: 0.3 }.fill(&mut relations, 2);
        Checkpoint::new(entities, relations)
    }

    fn sample_v2() -> Checkpoint {
        let base = sample();
        let mut entity_state = EmbeddingTable::zeros(7, 5);
        let mut relation_state = EmbeddingTable::zeros(3, 11);
        Init::Uniform { bound: 1.0 }.fill(&mut entity_state, 3);
        Init::Uniform { bound: 1.0 }.fill(&mut relation_state, 4);
        Checkpoint::with_state(
            base.entities,
            base.relations,
            TrainState {
                epoch: 5,
                optimizer: "AdaGrad { lr: 0.1 }".into(),
                entity_state,
                relation_state,
            },
        )
    }

    #[test]
    fn bytes_round_trip() {
        let ck = sample();
        let back = Checkpoint::from_bytes(ck.to_bytes_checked().unwrap()).unwrap();
        assert_eq!(back, ck);
    }

    /// A multi-gigabyte table can't be built in a test, so the length
    /// check is exercised through the helper the serializers call: any u32
    /// field source beyond `u32::MAX` must surface `TooLarge`, never wrap.
    #[test]
    fn oversized_lengths_refuse_to_serialize() {
        assert_eq!(Checkpoint::u32_of("entity dim", 12).unwrap(), 12);
        assert_eq!(
            Checkpoint::u32_of("entity dim", u32::MAX as usize).unwrap(),
            u32::MAX
        );
        let too_big = u32::MAX as usize + 1;
        match Checkpoint::u32_of("entity dim", too_big) {
            Err(CheckpointError::TooLarge { what, len }) => {
                assert_eq!(what, "entity dim");
                assert_eq!(len, too_big);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // The old `as u32` behavior would have produced 0 here — the exact
        // silent truncation the typed error replaces.
        assert_eq!(too_big as u32, 0);
    }

    #[test]
    fn v2_bytes_round_trip() {
        let ck = sample_v2();
        let back = Checkpoint::from_bytes(ck.to_bytes_checked().unwrap()).unwrap();
        assert_eq!(back, ck);
        let ts = back.train_state.unwrap();
        assert_eq!(ts.epoch, 5);
        assert_eq!(ts.optimizer, "AdaGrad { lr: 0.1 }");
    }

    #[test]
    fn file_round_trip() {
        let ck = sample_v2();
        let path = std::env::temp_dir().join(format!("hetkg-ck-{}.bin", std::process::id()));
        ck.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, ck);
        std::fs::remove_file(&path).ok();
    }

    /// The digest-free versions 1 and 2 are no longer read.
    #[test]
    fn v1_and_v2_headers_read_bad_version() {
        for version in [1u32, 2] {
            let mut raw = sample().to_bytes_checked().unwrap().to_vec();
            raw[8..12].copy_from_slice(&version.to_le_bytes());
            let err = Checkpoint::from_bytes(Bytes::from(raw)).unwrap_err();
            assert!(
                matches!(err, CheckpointError::BadVersion(v) if v == version),
                "{err}"
            );
        }
    }

    #[test]
    fn different_row_widths_survive() {
        // TransR-style: relations much wider than entities.
        let entities = EmbeddingTable::from_data(4, vec![1.0; 8]);
        let relations = EmbeddingTable::from_data(20, vec![2.0; 40]);
        let ck = Checkpoint::new(entities, relations);
        let back = Checkpoint::from_bytes(ck.to_bytes_checked().unwrap()).unwrap();
        assert_eq!(back.entities.dim(), 4);
        assert_eq!(back.relations.dim(), 20);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = Checkpoint::from_bytes(Bytes::from_static(b"NOTACKPT....")).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
    }

    #[test]
    fn truncation_is_detected() {
        let ck = sample();
        let bytes = ck.to_bytes_checked().unwrap();
        let cut = bytes.slice(..bytes.len() - 10);
        let err = Checkpoint::from_bytes(cut).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let ck = sample();
        let mut raw = ck.to_bytes_checked().unwrap().to_vec();
        raw[8] = 99; // version LE byte 0
        let err = Checkpoint::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, CheckpointError::BadVersion(_)));
    }

    #[test]
    fn empty_tables_round_trip() {
        let ck = Checkpoint::new(EmbeddingTable::zeros(0, 3), EmbeddingTable::zeros(0, 2));
        let back = Checkpoint::from_bytes(ck.to_bytes_checked().unwrap()).unwrap();
        assert_eq!(back.entities.rows(), 0);
        assert_eq!(back.relations.dim(), 2);
    }

    #[test]
    fn v3_round_trips_with_and_without_state() {
        for ck in [sample(), sample_v2()] {
            let bytes = ck.to_bytes_checked().unwrap();
            assert_eq!(&bytes[8..12], &3u32.to_le_bytes(), "version 3 on the wire");
            let back = Checkpoint::from_bytes(bytes).unwrap();
            assert_eq!(back, ck);
        }
    }

    #[test]
    fn v3_empty_tables_round_trip() {
        let ck = Checkpoint::new(EmbeddingTable::zeros(0, 3), EmbeddingTable::zeros(0, 2));
        let back = Checkpoint::from_bytes(ck.to_bytes_checked().unwrap()).unwrap();
        assert_eq!(back.entities.rows(), 0);
        assert_eq!(back.relations.dim(), 2);
    }

    #[test]
    fn v3_detects_payload_corruption_with_section() {
        let ck = sample_v2();
        let clean = ck.to_bytes_checked().unwrap().to_vec();
        // Flip one byte in the middle of the entities payload (which starts
        // right after the header + its CRC) and expect the right section.
        let ent_bytes = 4 * ck.entities.as_slice().len();
        let payload_start = clean.len()
            - (ent_bytes + 4)
            - (4 * ck.relations.as_slice().len() + 4)
            - ck.train_state
                .as_ref()
                .map(|ts| {
                    4 * ts.entity_state.as_slice().len()
                        + 4
                        + 4 * ts.relation_state.as_slice().len()
                        + 4
                })
                .unwrap_or(0);
        let mut raw = clean.clone();
        raw[payload_start + ent_bytes / 2] ^= 0x10;
        match Checkpoint::from_bytes(Bytes::from(raw)).unwrap_err() {
            CheckpointError::ChecksumMismatch { section } => assert_eq!(section, "entities"),
            e => panic!("expected checksum mismatch, got {e}"),
        }
        // Same flip in the relations payload names that section instead.
        let mut raw = clean.clone();
        raw[payload_start + ent_bytes + 4 + 2] ^= 0x01;
        match Checkpoint::from_bytes(Bytes::from(raw)).unwrap_err() {
            CheckpointError::ChecksumMismatch { section } => assert_eq!(section, "relations"),
            e => panic!("expected checksum mismatch, got {e}"),
        }
    }

    #[test]
    fn v3_detects_header_corruption() {
        let ck = sample_v2();
        let mut raw = ck.to_bytes_checked().unwrap().to_vec();
        raw[16] ^= 0x02; // ent_rows low byte
        let err = Checkpoint::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::ChecksumMismatch { section: "header" }
                    | CheckpointError::Truncated
            ),
            "{err}"
        );
    }

    #[test]
    fn v3_every_truncation_point_errors_without_panic() {
        let bytes = sample_v2().to_bytes_checked().unwrap();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(bytes.slice(..cut)).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn save_writes_v3_and_leaves_no_temp_file() {
        let ck = sample_v2();
        let dir = std::env::temp_dir().join(format!("hetkg-ck-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ck");
        ck.save(&path).unwrap();
        // Overwrite in place: the save must go through the temp + rename.
        ck.save(&path).unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            names,
            vec!["model.ck".to_string()],
            "no temp residue: {names:?}"
        );
        let raw = std::fs::read(&path).unwrap();
        assert_eq!(&raw[8..12], &3u32.to_le_bytes());
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
    }
}

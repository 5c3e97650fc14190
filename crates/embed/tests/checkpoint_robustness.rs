//! Robustness tests for the checkpoint format: every error path on
//! corrupted and truncated files, for checkpoints with and without train
//! state (`v1` and `v2` below, after the layouts that used to carry each).

use bytes::Bytes;
use hetkg_embed::checkpoint::{Checkpoint, CheckpointError, TrainState};
use hetkg_embed::init::Init;
use hetkg_embed::storage::EmbeddingTable;

fn table(rows: usize, dim: usize, seed: u64) -> EmbeddingTable {
    let mut t = EmbeddingTable::zeros(rows, dim);
    Init::Uniform { bound: 0.5 }.fill(&mut t, seed);
    t
}

fn v1() -> Checkpoint {
    Checkpoint::new(table(9, 6, 1), table(4, 6, 2))
}

fn v2() -> Checkpoint {
    Checkpoint::with_state(
        table(9, 6, 1),
        table(4, 6, 2),
        TrainState {
            epoch: 3,
            optimizer: "AdaGrad { lr: 0.1 }".into(),
            entity_state: table(9, 6, 3),
            relation_state: table(4, 6, 4),
        },
    )
}

/// The format's header digest, 32-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811C_9DC5, |h, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hetkg-ckrob-{}-{tag}.bin", std::process::id()))
}

#[test]
fn bad_magic_on_disk() {
    let path = tmp_path("magic");
    let mut raw = v1().to_bytes_checked().unwrap().to_vec();
    raw[0] ^= 0xFF;
    std::fs::write(&path, &raw).unwrap();
    let err = Checkpoint::load(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::BadMagic), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_version_on_disk() {
    let path = tmp_path("version");
    let mut raw = v2().to_bytes_checked().unwrap().to_vec();
    raw[8] = 77; // version field follows the 8-byte magic
    std::fs::write(&path, &raw).unwrap();
    let err = Checkpoint::load(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::BadVersion(77)), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_io_error() {
    let err = Checkpoint::load(&tmp_path("does-not-exist")).unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "{err}");
}

#[test]
fn every_truncation_point_is_rejected_v1() {
    let full = v1().to_bytes_checked().unwrap();
    // Any strict prefix must fail with BadMagic (couldn't even read the
    // header) or Truncated — never panic, never succeed.
    for cut in 0..full.len() {
        let err = Checkpoint::from_bytes(full.slice(..cut)).unwrap_err();
        assert!(
            matches!(err, CheckpointError::BadMagic | CheckpointError::Truncated),
            "prefix of {cut} bytes gave {err}"
        );
    }
    assert!(Checkpoint::from_bytes(full).is_ok());
}

#[test]
fn every_truncation_point_is_rejected_v2() {
    let full = v2().to_bytes_checked().unwrap();
    for cut in 0..full.len() {
        let err = Checkpoint::from_bytes(full.slice(..cut)).unwrap_err();
        assert!(
            matches!(err, CheckpointError::BadMagic | CheckpointError::Truncated),
            "prefix of {cut} bytes gave {err}"
        );
    }
    assert!(Checkpoint::from_bytes(full).is_ok());
}

#[test]
fn zero_dims_are_rejected() {
    let mut raw = v1().to_bytes_checked().unwrap().to_vec();
    // entity dim lives after magic(8) + version(4) + flags(4) + ent_rows(8).
    raw[24..28].copy_from_slice(&0u32.to_le_bytes());
    let err = Checkpoint::from_bytes(Bytes::from(raw)).unwrap_err();
    assert!(matches!(err, CheckpointError::Truncated), "{err}");
}

#[test]
fn oversized_shape_claims_are_rejected() {
    // A header claiming more rows than the payload carries must fail
    // cleanly instead of over-reading — even with its digest resealed, so
    // that the claim itself is what is refused. The header is magic(8),
    // version(4), flags(4), then each table's rows(8) and dim(4).
    let mut raw = v1().to_bytes_checked().unwrap().to_vec();
    raw[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    let digest = fnv1a(&raw[..40]);
    raw[40..44].copy_from_slice(&digest.to_le_bytes());
    let err = Checkpoint::from_bytes(Bytes::from(raw)).unwrap_err();
    assert!(matches!(err, CheckpointError::Truncated), "{err}");
}

#[test]
fn v2_loader_reads_v1_files() {
    let path = tmp_path("forward");
    let ck = v1();
    ck.save(&path).unwrap();
    let back = Checkpoint::load(&path).unwrap();
    assert_eq!(back.entities, ck.entities);
    assert_eq!(back.relations, ck.relations);
    assert!(back.train_state.is_none(), "v1 files carry no train state");
    std::fs::remove_file(&path).ok();
}

#[test]
fn v2_round_trips_epoch_and_optimizer_state() {
    let path = tmp_path("v2rt");
    let ck = v2();
    ck.save(&path).unwrap();
    let back = Checkpoint::load(&path).unwrap();
    assert_eq!(back, ck);
    let ts = back.train_state.unwrap();
    assert_eq!(ts.epoch, 3);
    assert_eq!(ts.optimizer, "AdaGrad { lr: 0.1 }");
    assert_eq!(ts.entity_state.rows(), 9);
    assert_eq!(ts.relation_state.rows(), 4);
    std::fs::remove_file(&path).ok();
}

#[test]
fn v3_catches_the_flip_v2_cannot_see() {
    // A flip of the last byte, which the digest-free v2 layout parsed into
    // silently different embeddings, is a typed checksum error.
    let mut raw = v2().to_bytes_checked().unwrap().to_vec();
    let last = raw.len() - 1;
    raw[last] ^= 0xFF;
    let err = Checkpoint::from_bytes(Bytes::from(raw)).unwrap_err();
    assert!(
        matches!(err, CheckpointError::ChecksumMismatch { .. }),
        "{err}"
    );
}

#[test]
fn saved_files_validate_end_to_end() {
    // `save` writes the checked format; a byte of rot anywhere in the file
    // is caught at load time.
    let path = tmp_path("rot");
    v2().save(&path).unwrap();
    let clean = std::fs::read(&path).unwrap();
    for pos in [12, clean.len() / 2, clean.len() - 1] {
        let mut rotted = clean.clone();
        rotted[pos] ^= 0x40;
        std::fs::write(&path, &rotted).unwrap();
        assert!(
            Checkpoint::load(&path).is_err(),
            "rot at byte {pos} went unnoticed"
        );
    }
    std::fs::remove_file(&path).ok();
}

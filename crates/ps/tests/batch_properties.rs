//! Property tests for the shard-grouped batch operations: `pull_many` and
//! `push_grad_many` must be observationally identical to N sequential
//! per-key calls — including batches with duplicate keys,
//! where in-order application is what keeps AdaGrad state exact — plus a
//! concurrent stress test mirroring the per-key `concurrent_pushes_all_land`.

use hetkg_embed::init::Init;
use hetkg_kgraph::{KeySpace, ParamKey};
use hetkg_ps::optimizer::{AdaGrad, Sgd};
use hetkg_ps::{KvStore, ShardRouter};
use proptest::prelude::*;
use std::sync::Arc;

const DIM: usize = 6;

fn build_store(entities: usize, relations: usize, shards: usize, state_width: usize) -> KvStore {
    let ks = KeySpace::new(entities, relations);
    let router = ShardRouter::round_robin(ks, shards);
    KvStore::new(
        router,
        DIM,
        DIM,
        state_width,
        Init::Uniform { bound: 0.5 },
        9,
    )
}

/// Bit-exact capture of every row and its optimizer state.
fn capture(store: &KvStore) -> Vec<(u64, Vec<u32>, Vec<u32>)> {
    let mut out = Vec::new();
    store.for_each_row_with_state(|k, row, state| {
        out.push((
            k.0,
            row.iter().map(|v| v.to_bits()).collect(),
            state.iter().map(|v| v.to_bits()).collect(),
        ));
    });
    out.sort_by_key(|(k, _, _)| *k);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `pull_many` returns exactly what per-key `pull` returns, for every
    /// batch index (duplicates included).
    #[test]
    fn pull_many_matches_sequential_pulls(
        entities in 1usize..120,
        relations in 0usize..24,
        shards in 1usize..7,
        raw_keys in prop::collection::vec(any::<u64>(), 1..80),
    ) {
        let store = build_store(entities, relations, shards, 1);
        let total = (entities + relations) as u64;
        let keys: Vec<ParamKey> = raw_keys.iter().map(|&r| ParamKey(r % total)).collect();
        let mut got = vec![Vec::new(); keys.len()];
        store.pull_many(&keys, |i, row| got[i] = row.to_vec());
        let mut want = vec![0.0f32; DIM];
        for (i, &k) in keys.iter().enumerate() {
            store.pull(k, &mut want);
            prop_assert_eq!(&got[i], &want, "batch index {}", i);
        }
    }

    /// `push_grad_many` leaves the store bit-identical to sequential
    /// `push_grad` calls in batch order — the AdaGrad state accumulators
    /// force duplicates to apply in order for this to hold.
    #[test]
    fn push_grad_many_matches_sequential_pushes(
        entities in 1usize..100,
        relations in 0usize..20,
        shards in 1usize..7,
        raw in prop::collection::vec((any::<u64>(), -8i32..8), 1..60),
    ) {
        let seq = build_store(entities, relations, shards, 1);
        let batched = build_store(entities, relations, shards, 1);
        let total = (entities + relations) as u64;
        let opt = AdaGrad::new(0.1);
        let keys: Vec<ParamKey> = raw.iter().map(|&(r, _)| ParamKey(r % total)).collect();
        let grads: Vec<Vec<f32>> = raw
            .iter()
            .map(|&(_, g)| (0..DIM).map(|d| g as f32 * 0.1 + d as f32 * 0.01).collect())
            .collect();
        let grad_refs: Vec<&[f32]> = grads.iter().map(|g| g.as_slice()).collect();
        for (&k, g) in keys.iter().zip(&grad_refs) {
            seq.push_grad(k, g, &opt);
        }
        batched.push_grad_many(&keys, &grad_refs, &opt);
        prop_assert_eq!(capture(&seq), capture(&batched));
    }
}

/// Batched mirror of the per-key `concurrent_pushes_all_land` test: four
/// threads racing `push_grad_many` batches (with in-batch duplicates) on the
/// same store lose no update, and readers never observe a torn row.
#[test]
fn concurrent_batched_pushes_all_land() {
    let store = Arc::new(build_store(10, 4, 2, 0));
    store.store(ParamKey(0), &[0.0; DIM]);
    store.store(ParamKey(1), &[0.0; DIM]);
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let store = store.clone();
            std::thread::spawn(move || {
                let g = [-1.0f32; DIM];
                // Key 0 twice per batch (duplicate), key 1 once.
                let keys = [ParamKey(0), ParamKey(1), ParamKey(0)];
                let grads: [&[f32]; 3] = [&g, &g, &g];
                for _ in 0..50 {
                    store.push_grad_many(&keys, &grads, &Sgd { lr: 1.0 });
                }
            })
        })
        .collect();
    // A concurrent reader: every observed row must be internally consistent
    // (all lanes move together under the shard lock).
    let reader = {
        let store = store.clone();
        std::thread::spawn(move || {
            for _ in 0..200 {
                store.pull_many(&[ParamKey(0), ParamKey(1)], |_, row| {
                    assert!(
                        row.iter().all(|&v| v == row[0]),
                        "torn row observed: {row:?}"
                    );
                });
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    reader.join().unwrap();
    let mut buf = [0.0f32; DIM];
    store.pull(ParamKey(0), &mut buf);
    assert!((buf[0] - 400.0).abs() < 1e-3, "key 0: {}", buf[0]);
    store.pull(ParamKey(1), &mut buf);
    assert!((buf[1] - 200.0).abs() < 1e-3, "key 1: {}", buf[1]);
}

//! Differential test for the shard-grouped hot path.
//!
//! The batching refactor is a pure wall-clock optimization: it must not
//! change a single metered byte, message, or simulated second, and it must
//! leave the store bit-identical to the old per-key path. This test encodes
//! the old path as an in-test reference client — group keys by shard for
//! metering, then touch the store one key at a time in input order — and
//! runs a seeded multi-epoch workload (duplicate keys, mixed pulls, AdaGrad
//! pushes, and block writes across 4 shards) against both, comparing the
//! traffic snapshots, the simulated network time, and every row and
//! optimizer-state lane bit for bit after each epoch.

use hetkg_embed::init::Init;
use hetkg_kgraph::{KeySpace, ParamKey};
use hetkg_netsim::{Cause, ClusterTopology, CostModel, TrafficMeter};
use hetkg_ps::optimizer::AdaGrad;
use hetkg_ps::{KvStore, PsClient, PsScratch, ShardRouter};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const SHARDS: usize = 4;
const DIM: usize = 8;

/// Bytes accounted per key id shipped in a request (u64 on the wire) —
/// pinned independently of the client so the reference cannot drift with it.
const KEY_BYTES: u64 = 8;

fn build_store() -> Arc<KvStore> {
    let ks = KeySpace::new(60, 6);
    let router = ShardRouter::round_robin(ks, SHARDS);
    Arc::new(KvStore::new(
        router,
        DIM,
        DIM,
        1,
        Init::Uniform { bound: 0.3 },
        7,
    ))
}

/// The pre-batching client, reconstructed: one message per shard touched
/// per direction carrying `row_bytes + KEY_BYTES` per key, then per-key
/// store calls in input order.
struct RefClient {
    worker_id: usize,
    topology: ClusterTopology,
    store: Arc<KvStore>,
    meter: Arc<TrafficMeter>,
}

impl RefClient {
    fn shard_bytes(&self, keys: &[ParamKey]) -> Vec<u64> {
        let mut bytes = vec![0u64; self.store.router().num_shards()];
        for &k in keys {
            bytes[self.store.router().shard_of(k)] += self.store.row_bytes(k) + KEY_BYTES;
        }
        bytes
    }

    fn meter_batch(&self, keys: &[ParamKey], cause: Cause) {
        for (shard, b) in self.shard_bytes(keys).into_iter().enumerate() {
            if b == 0 {
                continue;
            }
            let remote = !self.topology.is_local(self.worker_id, shard);
            self.meter.record(remote, &[(cause, b)]);
        }
    }

    fn pull_batch(&self, keys: &[ParamKey], mut sink: impl FnMut(usize, &[f32])) {
        if keys.is_empty() {
            return;
        }
        self.meter_batch(keys, Cause::MissPull);
        let mut row = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            row.resize((self.store.row_bytes(k) / 4) as usize, 0.0);
            self.store.pull(k, &mut row);
            sink(i, &row);
        }
    }

    fn push_batch(&self, keys: &[ParamKey], grads: &[&[f32]], opt: &AdaGrad) {
        if keys.is_empty() {
            return;
        }
        self.meter_batch(keys, Cause::Push);
        // Push-lane breakdown: one record per shard message; a dense push
        // costs on the wire exactly what its rows cost raw.
        for b in self.shard_bytes(keys) {
            if b > 0 {
                self.meter.record_push(b, b);
            }
        }
        for (&k, &g) in keys.iter().zip(grads) {
            self.store.push_grad(k, g, opt);
        }
    }

    fn write_batch(&self, keys: &[ParamKey], values: &[&[f32]]) {
        if keys.is_empty() {
            return;
        }
        self.meter_batch(keys, Cause::Write);
        for (&k, &v) in keys.iter().zip(values) {
            self.store.store(k, v);
        }
    }
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

#[test]
fn batched_path_is_traffic_and_state_identical_to_per_key_path() {
    let topo = ClusterTopology::new(SHARDS, 1);
    // Worker 1 so every batch mixes local (shard 1) and remote traffic.
    let worker = 1;

    let new_store = build_store();
    let new_meter = Arc::new(TrafficMeter::new());
    let client = PsClient::new(worker, topo, new_store.clone(), new_meter.clone());
    let mut scratch = PsScratch::new();

    let old_store = build_store();
    let old_meter = Arc::new(TrafficMeter::new());
    let reference = RefClient {
        worker_id: worker,
        topology: topo,
        store: old_store.clone(),
        meter: old_meter.clone(),
    };

    let total_keys = 66u64; // 60 entities + 6 relations
    let opt = AdaGrad::new(0.1);
    let cost = CostModel::gigabit();
    let mut rng = StdRng::seed_from_u64(0xd1ff);

    for epoch in 0..3 {
        for iter in 0..20 {
            // 1–40 keys per batch from a 66-key space: duplicates are routine.
            let batch_len = rng.random_range(1..=40);
            let keys: Vec<ParamKey> = (0..batch_len)
                .map(|_| ParamKey(rng.random_range(0..total_keys)))
                .collect();

            let mut new_rows: Vec<Vec<u32>> = Vec::new();
            client
                .try_pull_batch_with(&keys, &mut scratch, |_, row| {
                    new_rows.push(row.iter().map(|v| v.to_bits()).collect());
                })
                .unwrap();
            let mut old_rows: Vec<Vec<u32>> = Vec::new();
            reference.pull_batch(&keys, |_, row| {
                old_rows.push(row.iter().map(|v| v.to_bits()).collect());
            });
            assert_eq!(
                new_rows, old_rows,
                "epoch {epoch} iter {iter}: pulled rows diverge"
            );

            let grads: Vec<Vec<f32>> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| {
                    let w = (new_store.row_bytes(k) / 4) as usize;
                    (0..w)
                        .map(|d| (i as f32 - 7.0) * 0.01 + d as f32 * 0.003)
                        .collect()
                })
                .collect();
            let grad_refs: Vec<&[f32]> = grads.iter().map(|g| g.as_slice()).collect();
            client
                .try_push_batch_with(&keys, &grad_refs, &opt, &mut scratch)
                .unwrap();
            reference.push_batch(&keys, &grad_refs, &opt);

            // Occasional block write, PBG-style (entity keys only, all the
            // same width, duplicates resolved last-write-wins).
            if iter % 7 == 3 {
                let wkeys: Vec<ParamKey> =
                    (0..6).map(|_| ParamKey(rng.random_range(0..60))).collect();
                let vals: Vec<Vec<f32>> = wkeys
                    .iter()
                    .enumerate()
                    .map(|(i, _)| (0..DIM).map(|d| i as f32 * 0.5 + d as f32).collect())
                    .collect();
                let val_refs: Vec<&[f32]> = vals.iter().map(|v| v.as_slice()).collect();
                client
                    .try_write_batch_with(&wkeys, &val_refs, &mut scratch)
                    .unwrap();
                reference.write_batch(&wkeys, &val_refs);
            }
        }

        let new_snap = new_meter.snapshot();
        let old_snap = old_meter.snapshot();
        // Full snapshot equality: local/remote bytes AND message counts.
        assert_eq!(
            new_snap, old_snap,
            "epoch {epoch}: metered traffic diverged"
        );
        assert_eq!(
            new_snap.simulated_time(&cost).to_bits(),
            old_snap.simulated_time(&cost).to_bits(),
            "epoch {epoch}: simulated network time diverged"
        );
        assert_eq!(
            capture(&new_store),
            capture(&old_store),
            "epoch {epoch}: store contents diverged"
        );
    }

    // The workload actually exercised both traffic classes.
    let s = new_meter.snapshot();
    assert!(s.local_messages > 0 && s.remote_messages > 0);
}

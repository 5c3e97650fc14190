//! Per-layer probes for the training workloads: each replays the workload's
//! own inputs (its graph, its batches of 512 positives plus negatives, its
//! key sets, d = 128) through one layer's public functions and reports the
//! cost of one operation. Counts (iterations, hits, bytes) come from the
//! trainer's own report.

use crate::api::{self, Batch, KnowledgeGraph, ParamKey, Triple};
use crate::report::Record;
use crate::trace::Tracer;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Seconds each probe keeps measuring, after one warm-up call.
const PROBE_SECS: f64 = 0.08;

/// Mean nanoseconds per operation of `f`, which performs `ops` operations
/// per call.
pub fn ns_per_op(tr: &mut Tracer, name: &'static str, ops: usize, mut f: impl FnMut()) -> f64 {
    f();
    let open = tr.begin(name);
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_secs_f64() < PROBE_SECS {
        f();
        calls += 1;
    }
    let secs = tr.end(open);
    secs * 1e9 / (calls as f64 * ops.max(1) as f64)
}

/// Median of a sample (0 for an empty one).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Nearest-rank percentile of an ascending sample (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `embed.score_block_ns_per_cand`: one `(h, r, ?)` query scored against
/// every row of `table` by the blocked kernel that evaluation and serving
/// share.
pub fn score_block(tr: &mut Tracer, rec: &mut Record, model: &api::Model, table: &api::Table) {
    let ids: Vec<u32> = (0..table.rows() as u32).collect();
    let mut out = vec![0.0f32; ids.len()];
    let mut scratch = Vec::new();
    let ns = ns_per_op(tr, "embed.score_block", ids.len(), || {
        model.score_tails_block(
            table.row(0),
            table.row(1),
            table,
            &ids,
            &mut out,
            &mut scratch,
        );
        black_box(&out);
    });
    rec.set("embed.score_block_ns_per_cand", ns);
}

/// The distinct keys a batch touches, in first-seen order.
pub fn unique_keys(kg: &KnowledgeGraph, batch: &Batch) -> Vec<ParamKey> {
    let ks = api::key_space(kg);
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    for t in batch.triples() {
        for k in api::triple_keys(ks, t) {
            if seen.insert(k) {
                keys.push(k);
            }
        }
    }
    keys
}

pub struct TrainProbeInput<'a> {
    pub kg: &'a KnowledgeGraph,
    pub train: &'a [Triple],
    pub seed: u64,
    pub epochs: usize,
    /// The workload uses the hot-embedding table (not DGL-KE).
    pub cached: bool,
    /// The hot set is rebuilt every `prefetch_depth` iterations (DPS).
    pub dynamic: bool,
    /// The workload pushes int8 over real sockets.
    pub uds_bin: Option<&'a str>,
    pub timed_wall_s: f64,
    pub outcome: &'a api::TrainOutcome,
}

/// Run every training-side probe and record the per-layer metrics.
pub fn train_layers(inp: &TrainProbeInput<'_>, tr: &mut Tracer, rec: &mut Record) {
    let kg = inp.kg;
    let ks = api::key_space(kg);
    let o = inp.outcome;

    // partition: the same call the trainer makes first.
    let (parts, metis_s) = tr.timed("partition.metis", || {
        api::partition(kg, api::MACHINES, inp.seed)
    });
    rec.set("partition.metis_s", metis_s);
    rec.set("partition.edge_cut_frac", api::cut_fraction(kg, &parts));
    let per_machine = api::split_by_machine(&parts, inp.train);
    let iters: usize = per_machine
        .iter()
        .map(|t| t.len().div_ceil(api::BATCH_SIZE))
        .sum::<usize>()
        * inp.epochs;
    rec.set("train.iters", iters as f64);
    rec.set("train.work_units", o.work_units);
    let iters_f = iters.max(1) as f64;
    rec.set(
        "ps.remote_msgs_per_iter",
        o.traffic.remote_messages as f64 / iters_f,
    );
    rec.set(
        "ps.remote_bytes_per_iter",
        o.traffic.remote_bytes as f64 / iters_f,
    );
    rec.set(
        "ps.local_bytes_per_iter",
        o.traffic.local_bytes as f64 / iters_f,
    );
    rec.set("netsim.sim_comm_s", o.sim_comm_s);
    rec.set("netsim.sim_compute_s", o.sim_compute_s);
    rec.set("netsim.sim_overlap_s", o.sim_overlap_s);
    rec.set("netsim.push_ratio", o.push_ratio);

    // Machine 0's subgraph and one prefetch window of its batches.
    let subgraph = &per_machine[0];
    let mut sampler = api::BatchSampler::new(kg, inp.seed);
    let depth = 16;
    let batches = sampler.prefetch(subgraph, depth);
    let batch = &batches[0];
    let batch_triples: Vec<Triple> = batch.triples().collect();
    let keys = unique_keys(kg, batch);
    let rows = api::Table::random(keys.len(), inp.seed ^ 0x7AB1E);

    // embed: sampler and kernels over the batch's triples.
    let positives = batch.positives().to_vec();
    let ns = ns_per_op(tr, "embed.neg_sample", positives.len(), || {
        black_box(sampler.corrupt(&positives));
    });
    rec.set("embed.neg_sample_ns_per_triple", ns);
    let model = api::Model::new();
    let table = api::Table::random(4096, inp.seed ^ 0xE3BED);
    let row_of = |i: usize| table.row(i % table.rows());
    let ns = ns_per_op(tr, "embed.score", batch_triples.len(), || {
        let mut acc = 0.0f32;
        for i in 0..batch_triples.len() {
            acc += model.score(row_of(3 * i), row_of(3 * i + 1), row_of(3 * i + 2));
        }
        black_box(acc);
    });
    rec.set("embed.score_ns_per_triple", ns);
    let mut g = [
        vec![0.0f32; api::DIM],
        vec![0.0f32; api::DIM],
        vec![0.0f32; api::DIM],
    ];
    let ns = ns_per_op(tr, "embed.grad", batch_triples.len(), || {
        for i in 0..batch_triples.len() {
            model.grad(row_of(3 * i), row_of(3 * i + 1), row_of(3 * i + 2), &mut g);
        }
        black_box(&g);
    });
    rec.set("embed.grad_ns_per_triple", ns);
    // The evaluation ranks against 1000 sampled candidates, so its block
    // kernel runs over a cache-resident table; serving scans the whole one.
    score_block(tr, rec, &model, &table);

    // train: forward + backward over one batch.
    let mut compute = api::ComputeProbe::new(ks, &keys, &rows);
    let ns = ns_per_op(tr, "train.compute_batch", 1, || {
        black_box(compute.run(batch));
    });
    rec.set("train.compute_batch_us", ns / 1e3);
    rec.set(
        "train.compute.share",
        ns * 1e-9 * iters_f / inp.timed_wall_s,
    );

    // core: the hot table and Algorithm 1, on the batch's keys.
    if inp.cached {
        let mut hot = api::HotTable::new(ks, keys.len(), keys.len());
        let ns = ns_per_op(tr, "core.table_insert", keys.len(), || {
            hot.clear();
            for (i, &k) in keys.iter().enumerate() {
                black_box(hot.insert(k, rows.row(i)));
            }
        });
        rec.set("core.table_insert_ns", ns);
        let get_ns = ns_per_op(tr, "core.table_get", keys.len(), || {
            for &k in &keys {
                black_box(hot.get(k));
            }
        });
        rec.set("core.table_get_ns", get_ns);
        let ns = ns_per_op(tr, "core.table_refresh", keys.len(), || {
            for (i, &k) in keys.iter().enumerate() {
                black_box(hot.refresh(k, rows.row(i)));
            }
        });
        rec.set("core.table_refresh_ns", ns);
        let prefetch_ns = ns_per_op(tr, "core.prefetch", depth, || {
            black_box(sampler.prefetch(subgraph, depth).len());
        });
        rec.set("core.prefetch_us_per_batch", prefetch_ns / 1e3);
        let lookups = (o.cache_hits + o.cache_misses) as f64;
        rec.set("core.hit_ratio", o.cache_hits as f64 / lookups.max(1.0));
        rec.set("core.max_staleness", o.max_staleness as f64);
        let window_ns = if inp.dynamic {
            prefetch_ns * iters_f
        } else {
            0.0
        };
        rec.set(
            "core.share",
            (lookups * get_ns + window_ns) * 1e-9 / inp.timed_wall_s,
        );
    }

    // netsim: one frame of the batch's rows.
    let payload: Vec<f32> = (0..keys.len()).flat_map(|i| rows.row(i).to_vec()).collect();
    let wire_keys: Vec<u64> = (0..keys.len() as u64).collect();
    let mut parts_kp = Some((wire_keys, payload));
    let ns = ns_per_op(tr, "netsim.frame_seal", keys.len(), || {
        let (k, p) = parts_kp.take().expect("parts are put back each call");
        parts_kp = Some(black_box(api::frame_seal(k, p)).into_parts());
    });
    rec.set("netsim.frame_seal_ns_per_row", ns);
    let (k, p) = parts_kp.take().expect("parts are put back each call");
    let frame = api::frame_seal(k, p);
    let ns = ns_per_op(tr, "netsim.frame_verify", keys.len(), || {
        black_box(frame.verify());
    });
    rec.set("netsim.frame_verify_ns_per_row", ns);
    if inp.uds_bin.is_some() {
        let mut enc = Vec::with_capacity(keys.len() * api::int8_len());
        let mut idx = Vec::new();
        let ns = ns_per_op(tr, "netsim.int8_encode", keys.len(), || {
            enc.clear();
            for i in 0..keys.len() {
                api::int8_encode(rows.row(i), &mut enc, &mut idx);
            }
            black_box(&enc);
        });
        rec.set("netsim.int8_encode_ns_per_row", ns);
        let mut dec = vec![0.0f32; api::DIM];
        let ns = ns_per_op(tr, "netsim.int8_decode", keys.len(), || {
            for chunk in enc.chunks_exact(api::int8_len()) {
                api::int8_decode(chunk, &mut dec);
            }
            black_box(&dec);
        });
        rec.set("netsim.int8_decode_ns_per_row", ns);
        let mut wire = Vec::new();
        let ns = ns_per_op(tr, "netsim.stream_write", 1, || {
            wire.clear();
            frame.write(&mut wire).expect("write to a Vec");
        });
        rec.set("netsim.stream_write_ns_per_frame", ns);
        let ns = ns_per_op(tr, "netsim.stream_read", 1, || {
            black_box(api::stream_read(&wire).expect("a frame just written"));
        });
        rec.set("netsim.stream_read_ns_per_frame", ns);
    }

    // ps: the store, then worker 0's client over the sim path.
    let (store, init_s) = tr.timed("ps.store_init", || api::Store::new(kg, &parts, inp.seed));
    rec.set("ps.store_init_s", init_s);
    let grads: Vec<&[f32]> = (0..keys.len()).map(|i| rows.row(i)).collect();
    let ns = ns_per_op(tr, "ps.kv_pull", keys.len(), || {
        store.pull_many(&keys, |_, row| {
            black_box(row);
        });
    });
    rec.set("ps.kv_pull_ns_per_row", ns);
    let ns = ns_per_op(tr, "ps.kv_push", keys.len(), || {
        store.push_grad_many(&keys, &grads);
    });
    rec.set("ps.kv_push_ns_per_row", ns);
    let int8 = inp.uds_bin.is_some();
    let (pull_us, push_us) = client_costs(
        tr,
        rec,
        "probe_client_calls",
        &store,
        int8,
        None,
        &keys,
        &grads,
        ["ps.client_pull", "ps.client_push"],
    );
    rec.set("ps.client_pull_us_per_batch", pull_us);
    rec.set("ps.client_push_us_per_batch", push_us);
    rec.set(
        "ps.client.share",
        (pull_us + push_us) * 1e-6 * iters_f / inp.timed_wall_s,
    );
    if let Some(bin) = inp.uds_bin {
        match api::UdsCluster::spawn(bin, kg, &parts, inp.seed) {
            Ok(cluster) => {
                let (pull_us, push_us) = client_costs(
                    tr,
                    rec,
                    "probe_uds_calls",
                    &store,
                    int8,
                    Some(&cluster),
                    &keys,
                    &grads,
                    ["ps.uds_pull", "ps.uds_push"],
                );
                rec.set("ps.uds_pull_us_per_batch", pull_us);
                rec.set("ps.uds_push_us_per_batch", push_us);
                rec.set(
                    "ps.uds.share",
                    (pull_us + push_us) * 1e-6 * iters_f / inp.timed_wall_s,
                );
                // The shards hold their tables from start-up, so the probe's
                // cluster peaks where the timed run's did.
                rec.set("ps.server_peak_rss_mb", crate::host::children_peak_rss_mb());
                let down = cluster.shutdown();
                rec.check("probe_cluster_shutdown", down.is_ok(), format!("{down:?}"));
            }
            Err(e) => rec.check("probe_cluster_spawn", false, e.to_string()),
        }
    }
}

/// Microseconds per pull and per push of one batch's keys through the
/// client; a failed call fails the `check`.
#[allow(clippy::too_many_arguments)]
fn client_costs(
    tr: &mut Tracer,
    rec: &mut Record,
    check: &'static str,
    store: &api::Store,
    int8: bool,
    uds: Option<&api::UdsCluster>,
    keys: &[ParamKey],
    grads: &[&[f32]],
    names: [&'static str; 2],
) -> (f64, f64) {
    let mut client = api::Client::new(store, int8, uds);
    let mut failures = 0u64;
    let pull = ns_per_op(tr, names[0], 1, || {
        let ok = client.pull(keys, |_, row| {
            black_box(row);
        });
        failures += !ok as u64;
    });
    let push = ns_per_op(tr, names[1], 1, || {
        failures += !client.push(keys, grads) as u64;
    });
    rec.check(check, failures == 0, format!("{failures} failed calls"));
    (pull / 1e3, push / 1e3)
}

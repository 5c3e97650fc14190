//! Criterion micro-benchmarks for the performance-critical building blocks:
//! score functions, the batch kernel, cache operations, PS push/pull, and
//! the partitioner.
//!
//! Run with `cargo bench -p hetkg-bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hetkg_core::baselines::{FifoCache, LfuCache, LruCache, ReplacementCache};
use hetkg_core::filter::{filter_hot_set, FilterConfig};
use hetkg_core::table::HotEmbeddingTable;
use hetkg_embed::init::Init;
use hetkg_embed::ModelKind;
use hetkg_kgraph::generator::{SyntheticKg, ZipfSampler};
use hetkg_kgraph::{KeySpace, KnowledgeGraph, ParamKey};
use hetkg_netsim::{ClusterTopology, TrafficMeter};
use hetkg_partition::{MetisLike, Partitioner, RandomPartitioner};
use hetkg_ps::optimizer::AdaGrad;
use hetkg_ps::{KvStore, PsClient, PsScratch, ShardRouter};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_score");
    let dim = 128;
    let mut rng = StdRng::seed_from_u64(1);
    for kind in [
        ModelKind::TransEL2,
        ModelKind::DistMult,
        ModelKind::ComplEx,
        ModelKind::TransH,
    ] {
        let model = kind.build(dim);
        let h: Vec<f32> = (0..model.entity_dim())
            .map(|_| rng.random_range(-0.5..0.5))
            .collect();
        let r: Vec<f32> = (0..model.relation_dim())
            .map(|_| rng.random_range(-0.5..0.5))
            .collect();
        let t: Vec<f32> = (0..model.entity_dim())
            .map(|_| rng.random_range(-0.5..0.5))
            .collect();
        group.bench_function(BenchmarkId::new("score", kind.to_string()), |b| {
            b.iter(|| black_box(model.score(black_box(&h), black_box(&r), black_box(&t))))
        });
        let mut gh = vec![0.0f32; h.len()];
        let mut gr = vec![0.0f32; r.len()];
        let mut gt = vec![0.0f32; t.len()];
        group.bench_function(BenchmarkId::new("grad", kind.to_string()), |b| {
            b.iter(|| {
                model.grad(&h, &r, &t, 1.0, &mut gh, &mut gr, &mut gt);
                black_box(gh[0])
            })
        });
    }
    group.finish();
}

fn bench_cache_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_table");
    let ks = KeySpace::new(100_000, 1_000);
    let mut table = HotEmbeddingTable::new(ks, 4_000, 1_000, 64, 64, 1);
    let row = vec![0.5f32; 64];
    for k in 0..4_000u64 {
        table.insert(ParamKey(k), &row).unwrap();
    }
    group.throughput(Throughput::Elements(1));
    group.bench_function("get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4_000;
            black_box(table.get(ParamKey(i)))
        })
    });
    group.bench_function("get_miss", |b| {
        b.iter(|| black_box(table.get(ParamKey(99_999))))
    });
    group.bench_function("apply_grad", |b| {
        let opt = AdaGrad::new(0.1);
        let g = vec![0.01f32; 64];
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 4_000;
            black_box(table.apply_grad(ParamKey(i), &g, &opt))
        })
    });
    group.finish();
}

fn bench_replacement_caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("replacement_cache");
    let z = ZipfSampler::new(50_000, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    let trace: Vec<ParamKey> = (0..100_000)
        .map(|_| ParamKey(z.sample(&mut rng) as u64))
        .collect();
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("fifo", |b| {
        b.iter(|| {
            let mut cache = FifoCache::new(1_000);
            for &k in &trace {
                black_box(cache.access(k));
            }
        })
    });
    group.bench_function("lru", |b| {
        b.iter(|| {
            let mut cache = LruCache::new(1_000);
            for &k in &trace {
                black_box(cache.access(k));
            }
        })
    });
    group.bench_function("lfu", |b| {
        b.iter(|| {
            let mut cache = LfuCache::new(1_000);
            for &k in &trace {
                black_box(cache.access(k));
            }
        })
    });
    group.finish();
}

fn bench_filter(c: &mut Criterion) {
    let ks = KeySpace::new(100_000, 2_000);
    let z = ZipfSampler::new(102_000, 1.0);
    let mut rng = StdRng::seed_from_u64(5);
    let accesses: Vec<ParamKey> = (0..200_000)
        .map(|_| ParamKey(z.sample(&mut rng) as u64))
        .collect();
    let cfg = FilterConfig::paper_default(2_000);
    c.bench_function("filter_hot_set_200k", |b| {
        b.iter(|| black_box(filter_hot_set(&accesses, ks, &cfg)))
    });
}

fn ps_setup(shards: usize) -> (Arc<KvStore>, PsClient) {
    let ks = KeySpace::new(50_000, 500);
    let router = ShardRouter::round_robin(ks, shards);
    let store = Arc::new(KvStore::new(router, 64, 64, 1, Init::Xavier, 1));
    let meter = Arc::new(TrafficMeter::new());
    let client = PsClient::new(0, ClusterTopology::new(shards, 1), store.clone(), meter);
    (store, client)
}

fn bench_ps(c: &mut Criterion) {
    let mut group = c.benchmark_group("parameter_server");
    let keys: Vec<ParamKey> = (0..256).map(|i| ParamKey(i * 7)).collect();
    let grad = vec![0.01f32; 64];
    let grads: Vec<&[f32]> = keys.iter().map(|_| grad.as_slice()).collect();
    let opt = AdaGrad::new(0.1);
    group.throughput(Throughput::Elements(keys.len() as u64));
    for shards in [1usize, 4, 16] {
        let (_store, client) = ps_setup(shards);
        let mut scratch = PsScratch::new();
        group.bench_function(
            BenchmarkId::new("pull_batch_256", format!("{shards}sh")),
            |b| {
                b.iter(|| {
                    let mut acc = 0.0f32;
                    client
                        .try_pull_batch_with(&keys, &mut scratch, |_, row| acc += row[0])
                        .unwrap();
                    black_box(acc)
                })
            },
        );
        group.bench_function(
            BenchmarkId::new("push_batch_256", format!("{shards}sh")),
            |b| {
                b.iter(|| {
                    client
                        .try_push_batch_with(&keys, &grads, &opt, &mut scratch)
                        .unwrap()
                })
            },
        );
    }
    // Contended: two background workers hammer the same 4-shard store with
    // batched gradient pushes while the measured worker pulls/pushes. This
    // is where lock-once-per-shard pays: per-key locking would interleave
    // 256 acquire/release cycles with the writers.
    {
        let (store, client) = ps_setup(4);
        let mut scratch = PsScratch::new();
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let store = store.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let opt = AdaGrad::new(0.1);
                    let bg_keys: Vec<ParamKey> = (0..256)
                        .map(|i| ParamKey((i * 11 + t * 131) % 50_000))
                        .collect();
                    let g = vec![0.01f32; 64];
                    let bg_grads: Vec<&[f32]> = bg_keys.iter().map(|_| g.as_slice()).collect();
                    while !stop.load(Ordering::Relaxed) {
                        store.push_grad_many(&bg_keys, &bg_grads, &opt);
                    }
                })
            })
            .collect();
        group.bench_function("pull_batch_256_contended/4sh", |b| {
            b.iter(|| {
                let mut acc = 0.0f32;
                client
                    .try_pull_batch_with(&keys, &mut scratch, |_, row| acc += row[0])
                    .unwrap();
                black_box(acc)
            })
        });
        group.bench_function("push_batch_256_contended/4sh", |b| {
            b.iter(|| {
                client
                    .try_push_batch_with(&keys, &grads, &opt, &mut scratch)
                    .unwrap()
            })
        });
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }
    group.finish();
}

fn bench_capture(c: &mut Criterion) {
    // Snapshot / checkpoint capture walk every row shard-at-a-time; they run
    // between epochs, so their cost is wall-clock overhead on every run.
    let mut group = c.benchmark_group("capture");
    group.sample_size(20);
    let ks = KeySpace::new(50_000, 500);
    let router = ShardRouter::round_robin(ks, 4);
    let store = KvStore::new(router, 64, 64, 1, Init::Xavier, 1);
    group.bench_function("snapshot_50k_rows", |b| {
        b.iter(|| black_box(hetkg_train::trainer::snapshot(&store, ks)))
    });
    group.bench_function("checkpoint_v2_50k_rows", |b| {
        b.iter(|| {
            black_box(hetkg_train::trainer::checkpoint_v2(
                &store, ks, 3, "adagrad",
            ))
        })
    });
    group.finish();
}

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioner");
    group.sample_size(10);
    let g: KnowledgeGraph = SyntheticKg {
        num_entities: 5_000,
        num_relations: 50,
        num_triples: 40_000,
        ..Default::default()
    }
    .build(1);
    group.bench_function("metis_like_4way_40k_edges", |b| {
        b.iter(|| black_box(MetisLike::new(1).partition(&g, 4)))
    });
    group.bench_function("random_4way_40k_edges", |b| {
        b.iter(|| black_box(RandomPartitioner::new(1).partition(&g, 4)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_models,
    bench_cache_ops,
    bench_replacement_caches,
    bench_filter,
    bench_ps,
    bench_capture,
    bench_partitioners
);
criterion_main!(benches);

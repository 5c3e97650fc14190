//! The serving workload: one client thread against a `ServeEngine` over a
//! 200 k × 128 table (102 MB), in three timed phases with one histogram per query
//! class — lookups only (L), top-k only (K), and a 2 % top-k mix while a
//! second thread publishes a fresh snapshot every 500 ms (R). All requests
//! are generated before timing starts.

use crate::api::{self, Engine, Image, Request};
use crate::probes::{median, ns_per_op, percentile, score_block};
use crate::report::Record;
use crate::trace::Tracer;
use crate::{host, Args};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const ENTITIES: usize = 200_000;
const RELATIONS: u32 = 200;
const TOP_K: usize = 10;
const LOOKUP_IDS: usize = 8_000_000;
const TOPK_QUERIES: usize = 4096;
const MIX_REQUESTS: usize = 1 << 16;
/// Every 50th request of the mix is a top-k: 2 %, placed regularly. Drawn at
/// random, the ≈ 250 top-k of a phase would vary by ±6 % from seed to seed,
/// and `reload_qps` with them.
const MIX_TOPK_EVERY: usize = 50;
const COLD_STARTS: usize = 5;
const PUBLISH_EVERY: Duration = Duration::from_millis(500);
/// Above the manifest sequence number of the saved checkpoint: the cache
/// keys rows on the snapshot's sequence number, so a reused one would serve
/// rows of the previous image.
const FIRST_PUBLISHED_SEQ: u64 = 100;
/// Shares of `--seconds` given to phases L, K and R.
const PHASE_SHARE: [f64; 3] = [0.40, 0.35, 0.25];
const LOOKUP_BLOCK: usize = 1024;
/// The seed-determined digests cover these fixed prefixes of phases L and K,
/// short enough that every run completes them.
const DIGEST_LOOKUPS: u64 = 1 << 20;
const DIGEST_TOPK: usize = 128;
/// Every n-th answer is kept and checked after the phase.
const ORACLE_EVERY: usize = 64;
const ROW_CHECK_EVERY_L: u64 = 1024;
const ROW_CHECK_EVERY_R: u64 = 64;
const OPENLOOP_RATE: f64 = 10_000.0;
/// 20 top-k a second at ≈ 22 ms each: the one client is 44 % busy, so a
/// backlog says something about the host and not about the schedule.
const OPENLOOP_TOPK_SHARE: f64 = 0.002;
const OPENLOOP_SECS: f64 = 2.0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[inline]
fn fnv(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

fn same_row(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The one client: its engine, its reusable buffers, and what went wrong.
struct Client<'e> {
    engine: &'e Engine,
    scratch: api::Scratch<'e>,
    row: Vec<f32>,
    failed: u64,
    /// Sampled lookup rows that equal no whole row of a known checkpoint.
    torn_rows: u64,
}

impl<'e> Client<'e> {
    fn new(engine: &'e Engine) -> Self {
        Self {
            engine,
            scratch: engine.scratch(),
            row: Vec::new(),
            failed: 0,
            torn_rows: 0,
        }
    }
}

struct PhaseL {
    lookups: u64,
    wall_s: f64,
    cpu_s: f64,
    digest: Option<u64>,
    /// Over exactly one pass of the id array: the same count of lookups in
    /// every run, so it repeats bit for bit for a seed.
    miss_ratio: f64,
}

/// A top-k answer kept for the oracle: the query, the answer, its latency.
struct Kept {
    h: u32,
    r: u32,
    answer: Vec<(u32, f32)>,
    us: f64,
}

struct PhaseK {
    /// Per-query latency, ascending.
    sorted_us: Vec<f64>,
    kept: Vec<Kept>,
    digest: Option<u64>,
}

struct PhaseR {
    requests: u64,
    wall_s: f64,
    builds_ms: Vec<f64>,
    publishes_us: Vec<f64>,
    hit_ratio: f64,
}

pub fn run(args: &Args, tr: &mut Tracer, rec: &mut Record) {
    let dir = crate::out_dir().join(format!("serve-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = run_in(args, tr, rec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        rec.check("serve_setup", false, e);
        rec.failed += 1;
    }
}

fn run_in(args: &Args, tr: &mut Tracer, rec: &mut Record, dir: &Path) -> Result<(), String> {
    let scale = args.scale();
    let seed = args.seed;
    let entities = ENTITIES / scale;
    let cache_rows = entities / 4;

    // ---- set-up: fixture, checkpoint, cold starts, requests, warm-up.
    let (images, fixture_s) = tr.timed("serve.fixture", || {
        [1u64, 2, 3].map(|i| Image::random(entities, RELATIONS as usize, seed.wrapping_mul(4) + i))
    });
    let [base, alt_a, alt_b] = &images;
    // Not part of `setup_s`: the save waits on the disk (fsync), and for the
    // same 102 MB that took anything from 0.36 s to 2.3 s depending on what
    // the disk did before this run. It is half of what is left of set-up, so
    // it alone would move `setup_s` by more than its bound between two sets.
    let (saved, save_s) = tr.timed("ckpt.save", || api::checkpoint_save(dir, base, 0));
    saved?;
    let mut cold = Vec::new();
    let mut engine = None;
    for _ in 0..COLD_STARTS {
        let (e, secs) = tr.timed("serve.cold_start", || {
            api::engine_cold_start(dir, cache_rows)
        });
        engine = Some(e?);
        cold.push(secs);
    }
    let engine = engine.expect("COLD_STARTS > 0");
    let ((ids, topk, mix), gen_s) = tr.timed("serve.gen_requests", || {
        let topk_n = TOPK_QUERIES / scale.min(8);
        (
            api::gen_lookup_ids(entities, LOOKUP_IDS / scale, seed),
            api::gen_requests(entities, RELATIONS, 1.0, topk_n, seed ^ 0x70),
            mix_requests(entities, MIX_REQUESTS / scale, seed),
        )
    });
    let mut client = Client::new(&engine);
    let (_, warm_s) = tr.timed("serve.warm_up", || {
        for &id in &ids[..ids.len().min(1 << 18)] {
            black_box(engine.lookup_entity(id, &mut client.row));
        }
        for q in &topk[..8] {
            if let Request::TopK(h, r) = *q {
                black_box(engine.topk_tails(&mut client.scratch, h, r, TOP_K));
            }
        }
    });
    engine.cache_reset_stats();
    // All five cold starts count: set-up is seconds, not a fraction of one,
    // so one slow file read moves it by a few per cent at most.
    let setup_s = fixture_s + cold.iter().sum::<f64>() + gen_s + warm_s;

    // ---- the three timed phases; between K and R, still on the base
    // snapshot, the kept answers go against the per-candidate scalar path.
    let budget = |i: usize| Duration::from_secs_f64(args.seconds as f64 * PHASE_SHARE[i]);
    let l = phase_l(
        &mut client,
        tr,
        &ids,
        base,
        budget(0),
        DIGEST_LOOKUPS / scale as u64,
    );
    let (k, scalar_s) = topk_phase(&mut client, tr, rec, &topk, budget(1));
    let r = phase_r(&mut client, tr, &mix, &images, [alt_a, alt_b], budget(2));
    rec.set("peak_rss_mb", host::peak_rss_mb());

    // ---- checks and metrics.
    rec.attempted = l.lookups + k.sorted_us.len() as u64 + r.requests;
    rec.failed += client.failed;
    rec.check(
        "rows_whole",
        client.torn_rows == 0,
        format!("{} sampled rows matched no checkpoint", client.torn_rows),
    );
    rec.check(
        "digests_complete",
        l.digest.is_some() && k.digest.is_some(),
        format!("L {} K {}", l.digest.is_some(), k.digest.is_some()),
    );
    rec.check(
        "publishes_happened",
        !r.publishes_us.is_empty(),
        format!("{} publishes", r.publishes_us.len()),
    );
    rec.set("setup_s", setup_s);
    rec.set("lookup_qps", l.lookups as f64 / l.wall_s);
    rec.set("reload_qps", r.requests as f64 / r.wall_s);
    for name in [
        "triples_per_s",
        "sim_epoch_s",
        "remote_bytes_per_triple",
        "final_loss",
        "mrr",
    ] {
        rec.not_applicable(name);
    }
    rec.fact("entities", entities);
    rec.fact("relations", RELATIONS);
    rec.fact("dim", api::DIM);
    rec.fact("shards", api::SERVE_SHARDS);
    rec.fact("cache_rows", cache_rows);
    rec.fact("cold_starts", COLD_STARTS);
    rec.fact(
        "setup_parts_s",
        format!(
            "fixture {fixture_s:.3} save {save_s:.3} cold {cold:.3?} gen {gen_s:.3} warm {warm_s:.3}"
        ),
    );
    rec.fact("phase_l_lookups", l.lookups);
    rec.fact("phase_l_wall_s", l.wall_s);
    rec.fact("phase_l_cpu_s", l.cpu_s);
    rec.fact("phase_r_requests", r.requests);
    rec.fact("phase_r_publishes", r.publishes_us.len());
    rec.fact("processes", 1);
    rec.fact("digest_l", format!("{:016x}", l.digest.unwrap_or(0)));
    rec.fact("digest_k", format!("{:016x}", k.digest.unwrap_or(0)));
    rec.fact("exact", format!("{:016x}", l.miss_ratio.to_bits()));

    if !tr.enabled() {
        return Ok(());
    }
    rec.set("serve.cold_start_ms", median(cold) * 1e3);
    rec.set("serve.hit_ratio_steady", 1.0 - l.miss_ratio);
    rec.set("serve.hit_ratio_reload", r.hit_ratio);
    rec.set("serve.publishes", r.publishes_us.len() as f64);
    rec.set("serve.snapshot_build_ms", median(r.builds_ms));
    rec.set("serve.publish_us", median(r.publishes_us));
    rec.set("serve.topk_p99_us", percentile(&k.sorted_us, 0.99));
    let block_s: f64 = k.kept.iter().map(|kept| kept.us * 1e-6).sum();
    rec.set(
        "serve.topk_scalar_over_block",
        scalar_s / block_s.max(f64::MIN_POSITIVE),
    );
    rec.set(
        "embed.ckpt_encode_mb_per_s",
        base.bytes() as f64 / 1e6 / save_s,
    );
    let (loaded, load_s) = tr.timed("ckpt.load", || api::checkpoint_load(dir));
    rec.set("embed.ckpt_decode_mb_per_s", loaded? as f64 / 1e6 / load_s);
    layer_probes(tr, rec, dir, entities, cache_rows, seed)?;
    open_loop(tr, rec, &engine, entities, scale, seed);
    Ok(())
}

/// `n` requests, every [`MIX_TOPK_EVERY`]-th a top-k, the rest lookups.
fn mix_requests(entities: usize, n: usize, seed: u64) -> Vec<Request> {
    let topk = api::gen_requests(entities, RELATIONS, 1.0, n / MIX_TOPK_EVERY, seed ^ 0xA1);
    let mut lookups = api::gen_requests(entities, RELATIONS, 0.0, n, seed ^ 0xA2).into_iter();
    let mut mix = Vec::with_capacity(n);
    for q in topk {
        mix.extend(lookups.by_ref().take(MIX_TOPK_EVERY - 1));
        mix.push(q);
    }
    mix
}

/// Phase L: replay `ids` in blocks until `budget` is spent.
fn phase_l(
    c: &mut Client<'_>,
    tr: &mut Tracer,
    ids: &[u32],
    base: &Image,
    budget: Duration,
    digest_after: u64,
) -> PhaseL {
    let failed_before = c.failed;
    let mut digest = None;
    let mut first_pass = None;
    let mut acc = FNV_OFFSET;
    let mut done = 0u64;
    let mut pos = 0usize;
    let cpu_before = host::cpu_s();
    let phase = tr.begin("serve.phase_l");
    let start = Instant::now();
    while start.elapsed() < budget {
        let block = tr.begin("serve.lookup_block");
        for _ in 0..LOOKUP_BLOCK {
            let id = ids[pos];
            pos += 1;
            if pos == ids.len() {
                pos = 0;
                first_pass.get_or_insert_with(|| c.engine.cache_stats());
            }
            if !c.engine.lookup_entity(id, &mut c.row) {
                c.failed += 1;
                continue;
            }
            acc = fnv(acc, (id as u64) << 32 | c.row[0].to_bits() as u64);
            if done.is_multiple_of(ROW_CHECK_EVERY_L) && !same_row(&c.row, base.entity_row(id)) {
                c.torn_rows += 1;
            }
            done += 1;
            if done == digest_after {
                digest = Some(acc);
            }
        }
        tr.end(block);
    }
    let wall_s = tr.end(phase);
    let (hits, misses) = first_pass.unwrap_or_else(|| c.engine.cache_stats());
    PhaseL {
        lookups: done + (c.failed - failed_before),
        wall_s,
        cpu_s: host::cpu_s() - cpu_before,
        digest,
        miss_ratio: misses as f64 / (hits + misses).max(1) as f64,
    }
}

/// Phase K: the top-k queries one by one, each timed, until `budget` is
/// spent or they run out.
fn phase_k(c: &mut Client<'_>, tr: &mut Tracer, topk: &[Request], budget: Duration) -> PhaseK {
    let mut sorted_us = Vec::with_capacity(topk.len());
    let mut kept = Vec::new();
    let mut digest = None;
    let mut acc = FNV_OFFSET;
    let phase = tr.begin("serve.phase_k");
    let start = Instant::now();
    for (i, q) in topk.iter().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let Request::TopK(h, r) = *q else { continue };
        let one = tr.begin("serve.topk");
        let answer = c.engine.topk_tails(&mut c.scratch, h, r, TOP_K);
        let us = tr.end(one) * 1e6;
        sorted_us.push(us);
        let Some(answer) = answer else {
            c.failed += 1;
            continue;
        };
        if i < DIGEST_TOPK {
            for &(id, score) in &answer {
                acc = fnv(acc, (id as u64) << 32 | score.to_bits() as u64);
            }
            if i + 1 == DIGEST_TOPK {
                digest = Some(acc);
            }
        }
        if i % ORACLE_EVERY == 0 {
            kept.push(Kept { h, r, answer, us });
        }
    }
    tr.end(phase);
    sorted_us.sort_by(f64::total_cmp);
    PhaseK {
        sorted_us,
        kept,
        digest,
    }
}

/// Phase K on `c`'s engine, then — still on the same snapshot — its kept
/// answers against the per-candidate scalar path. Records `topk_p50_us`,
/// `topk_p95_us`, their sample counts and the `topk_equals_scalar` check;
/// returns the phase and the seconds the scalar path took.
fn topk_phase(
    c: &mut Client<'_>,
    tr: &mut Tracer,
    rec: &mut Record,
    topk: &[Request],
    budget: Duration,
) -> (PhaseK, f64) {
    let k = phase_k(c, tr, topk, budget);
    let (agree, scalar_s) = check_against_scalar(c, tr, &k.kept);
    rec.check(
        "topk_equals_scalar",
        agree == k.kept.len() && !k.kept.is_empty(),
        format!("{agree} of {} sampled answers", k.kept.len()),
    );
    let n = k.sorted_us.len();
    rec.set("topk_p50_us", percentile(&k.sorted_us, 0.50));
    rec.set("topk_p95_us", percentile(&k.sorted_us, 0.95));
    rec.fact("topk_samples", n);
    rec.fact(
        "topk_samples_beyond_p95",
        n - (0.95 * n as f64).ceil() as usize,
    );
    rec.fact("topk_oracle_samples", k.kept.len());
    (k, scalar_s)
}

/// How many kept answers equal `topk_tails_scalar` bit for bit, and the
/// seconds the scalar path took for them.
fn check_against_scalar(c: &mut Client<'_>, tr: &mut Tracer, kept: &[Kept]) -> (usize, f64) {
    let mut agree = 0;
    let mut scalar_s = 0.0;
    for k in kept {
        let (oracle, secs) = tr.timed("serve.topk_scalar", || {
            c.engine.topk_tails_scalar(&mut c.scratch, k.h, k.r, TOP_K)
        });
        scalar_s += secs;
        let same = oracle.is_some_and(|o| {
            o.len() == k.answer.len()
                && o.iter()
                    .zip(&k.answer)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        });
        agree += same as usize;
    }
    (agree, scalar_s)
}

/// Phase R: replay the mix while a second thread publishes snapshots built
/// from `spares`. A sampled lookup row must be a whole row of one of `known`.
fn phase_r(
    c: &mut Client<'_>,
    tr: &mut Tracer,
    mix: &[Request],
    known: &[Image; 3],
    spares: [&Image; 2],
    budget: Duration,
) -> PhaseR {
    c.engine.cache_reset_stats();
    let engine = c.engine;
    let stop = AtomicBool::new(false);
    let mut pub_tracer = tr.for_thread(2);
    let mut requests = 0u64;
    let mut looked = 0u64;
    let phase = tr.begin("serve.phase_r");
    let (wall_s, builds_ms, publishes_us) = std::thread::scope(|s| {
        let publisher = s.spawn(|| publish_loop(engine, spares, &stop, &mut pub_tracer));
        let start = Instant::now();
        let mut pos = 0usize;
        while start.elapsed() < budget {
            for _ in 0..LOOKUP_BLOCK {
                let ok = match mix[pos] {
                    Request::Lookup(id) => {
                        let ok = engine.lookup_entity(id, &mut c.row);
                        looked += 1;
                        if ok
                            && looked.is_multiple_of(ROW_CHECK_EVERY_R)
                            && !known.iter().any(|im| same_row(&c.row, im.entity_row(id)))
                        {
                            c.torn_rows += 1;
                        }
                        ok
                    }
                    Request::TopK(h, r) => {
                        let one = tr.begin("serve.topk_mixed");
                        let ok = engine.topk_tails(&mut c.scratch, h, r, TOP_K).is_some();
                        tr.end(one);
                        ok
                    }
                };
                c.failed += !ok as u64;
                requests += 1;
                pos = (pos + 1) % mix.len();
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let (builds_ms, publishes_us) = publisher.join().expect("publisher thread panicked");
        (wall_s, builds_ms, publishes_us)
    });
    tr.end(phase);
    tr.absorb(pub_tracer);
    let (hits, misses) = engine.cache_stats();
    PhaseR {
        requests,
        wall_s,
        builds_ms,
        publishes_us,
        hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
    }
}

/// Build and publish a fresh snapshot every [`PUBLISH_EVERY`], alternating
/// the two spare images, until told to stop. Returns the build times (ms)
/// and publish times (µs).
fn publish_loop(
    engine: &Engine,
    images: [&Image; 2],
    stop: &AtomicBool,
    tr: &mut Tracer,
) -> (Vec<f64>, Vec<f64>) {
    let mut builds_ms = Vec::new();
    let mut publishes_us = Vec::new();
    let mut next = Instant::now() + PUBLISH_EVERY;
    let mut i = 0usize;
    while !stop.load(Ordering::SeqCst) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        next += PUBLISH_EVERY;
        let (snap, secs) = tr.timed("serve.snapshot_build", || {
            api::snapshot_from_image(images[i % 2], FIRST_PUBLISHED_SEQ + i as u64)
        });
        builds_ms.push(secs * 1e3);
        let (_, secs) = tr.timed("serve.publish", || engine.publish(snap));
        publishes_us.push(secs * 1e6);
        i += 1;
    }
    (builds_ms, publishes_us)
}

/// Cache and kernel costs on an engine of their own, so the phases above
/// never see the probes' traffic.
fn layer_probes(
    tr: &mut Tracer,
    rec: &mut Record,
    dir: &Path,
    entities: usize,
    cache_rows: usize,
    seed: u64,
) -> Result<(), String> {
    let engine = api::engine_cold_start(dir, cache_rows)?;
    let mut out = Vec::new();
    // A hit: ids admitted on their second touch, then read again.
    let hot: Vec<u32> = (0..(cache_rows / 16).max(1) as u32).collect();
    for _ in 0..2 {
        for &id in &hot {
            engine.lookup_entity(id, &mut out);
        }
    }
    let ns = ns_per_op(tr, "serve.cache_hit", hot.len(), || {
        for &id in &hot {
            black_box(engine.lookup_entity(id, &mut out));
        }
    });
    rec.set("serve.cache_hit_ns", ns);
    // A miss that admits: the second touch of ids never seen before. Each
    // id is used once, so the measurement is one pass, not a steady loop.
    let cold: Vec<u32> = (hot.len() as u32..entities as u32).collect();
    for &id in &cold {
        engine.lookup_entity(id, &mut out);
    }
    let (_, secs) = tr.timed("serve.cache_miss_admit", || {
        for &id in &cold {
            black_box(engine.lookup_entity(id, &mut out));
        }
    });
    rec.set(
        "serve.cache_miss_admit_ns",
        secs * 1e9 / cold.len().max(1) as f64,
    );

    let table = api::Table::random(entities, seed ^ 0xB10C);
    score_block(tr, rec, &api::Model::new(), &table);
    Ok(())
}

/// SplitMix64: the arrival schedule's only randomness.
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Diagnostics only: the same engine under a fixed-rate Poisson schedule,
/// each request timed from when it was due. On a shared 2-vCPU host one
/// 100 ms stall decides the tail, so none of these gate anything.
fn open_loop(
    tr: &mut Tracer,
    rec: &mut Record,
    engine: &Engine,
    entities: usize,
    scale: usize,
    seed: u64,
) {
    let n = (OPENLOOP_RATE * OPENLOOP_SECS) as usize / scale;
    let requests = api::gen_requests(entities, RELATIONS, OPENLOOP_TOPK_SHARE, n, seed ^ 0x0B);
    let mut state = seed ^ 0x0510;
    let mut due = 0.0f64;
    let due_at: Vec<f64> = (0..n)
        .map(|_| {
            due += -(1.0 - splitmix(&mut state)).ln() / OPENLOOP_RATE;
            due
        })
        .collect();
    let mut scratch = engine.scratch();
    let mut out = Vec::new();
    let (mut lookup_us, mut topk_us) = (Vec::new(), Vec::new());
    let mut max_late = 0.0f64;
    let open = tr.begin("serve.open_loop");
    let start = Instant::now();
    for (q, &due) in requests.iter().zip(&due_at) {
        let mut now = start.elapsed().as_secs_f64();
        while now < due {
            std::hint::spin_loop();
            now = start.elapsed().as_secs_f64();
        }
        max_late = max_late.max(now - due);
        match *q {
            Request::Lookup(id) => {
                black_box(engine.lookup_entity(id, &mut out));
                lookup_us.push((start.elapsed().as_secs_f64() - due) * 1e6);
            }
            Request::TopK(h, r) => {
                black_box(engine.topk_tails(&mut scratch, h, r, TOP_K));
                topk_us.push((start.elapsed().as_secs_f64() - due) * 1e6);
            }
        }
    }
    tr.end(open);
    lookup_us.sort_by(f64::total_cmp);
    topk_us.sort_by(f64::total_cmp);
    rec.set("serve.openloop_topk_p50_us", percentile(&topk_us, 0.50));
    rec.set("serve.openloop_topk_p99_us", percentile(&topk_us, 0.99));
    rec.set("serve.openloop_lookup_p99_us", percentile(&lookup_us, 0.99));
    rec.set("serve.openloop_max_late_us", max_late * 1e6);
    rec.fact("openloop_requests", n);
    rec.fact("openloop_topk_samples", topk_us.len());
}

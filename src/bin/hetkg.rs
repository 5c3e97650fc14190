//! `hetkg` — the command-line face of the library.
//!
//! ```text
//! hetkg stats     (--data DIR | --synthetic NAME)
//! hetkg partition (--data DIR | --synthetic NAME) [--parts N]
//! hetkg train     (--data DIR | --synthetic NAME) [--system S] [--model M]
//!                 [--dim D] [--epochs E] [--machines N] [--out CK.bin]
//!                 [--fault-profile P] [--checkpoint-every N]
//!                 [--integrity on|off] [--checkpoint-dir DIR]
//!                 [--max-restarts N] [--oracle on|off]
//!                 [--compress off|int8|int4|topk|adaptive]
//!                 [--transport sim|tcp|uds] [--report PATH]
//! hetkg eval      (--data DIR | --synthetic NAME) --checkpoint CK.bin
//!                 [--model M] [--dim D] [--candidates K] [--eval-threads N]
//! hetkg serve     (--checkpoint CK.bin | --checkpoint-dir DIR)
//!                 [--model M] [--dim D] [--shards N] [--threads N]
//!                 [--queries N] [--warmup N] [--topk K] [--topk-share F]
//!                 [--zipf S] [--cache-rows N] [--warm on|off]
//!                 [--think-us N] [--reload-ms N] [--report PATH]
//! hetkg ps-server --config FILE --shard N --listen (tcp:ADDR | uds:PATH)
//! ```
//!
//! `serve` loads a trained checkpoint into sharded read-only tables and
//! benchmarks the online read path: Zipf-skewed point lookups plus top-k
//! link prediction on closed-loop worker threads, with a hotness-gated
//! hot-row cache in front. The digest line it prints is deterministic per
//! (seed, snapshot, thread count) — CI pins it across runs.
//!
//! `--data DIR` expects FB15k-format `train.txt`/`valid.txt`/`test.txt`;
//! `--synthetic NAME` is one of `fb15k`, `wn18`, `freebase86m` (harness
//! scale). `--fault-profile` is a named preset (`none`, `lossy`, `corrupt`,
//! `outage`, `overload`, `chaos`, `failover`) or a path to a JSON
//! [`FaultPlan`] file. `--replication K` keeps `K - 1` backup replicas per
//! PS shard; the `failover` profile (which permanently kills a primary
//! mid-run) defaults it to 2 and refuses to run without a backup. A plan
//! with an overload window — the `overload` profile's flash crowd, or a
//! plan file's — arms a retry budget and per-shard circuit breakers, so the
//! run browns out instead of retry-storming.
//!
//! `--transport tcp|uds` runs each PS shard as a real OS process speaking
//! length-prefixed wire frames over sockets; `train` spawns them itself via
//! the `ps-server` subcommand (not normally invoked by hand). Fault
//! injection and replication are sim-only.

use het_kg::embed::checkpoint::Checkpoint;
use het_kg::eval::breakdown::evaluate_breakdown_threaded;
use het_kg::eval::link_prediction::EmbeddingSnapshot;
use het_kg::kgraph::io::load_benchmark;
use het_kg::kgraph::stats::AccessCounter;
use het_kg::partition::quality;
use het_kg::prelude::*;
use het_kg::ps::{OverloadControl, ShardServerConfig};
use het_kg::train_sys::config::SocketRefusal;
use het_kg::train_sys::oracle;
use het_kg::train_sys::trainer;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::process::exit;

/// Everything that can go wrong before or during a command. Usage errors
/// (bad flags, unknown commands) exit with status 2; runtime errors (data
/// loading, checkpoint I/O) with status 1.
#[derive(Debug)]
enum CliError {
    UnknownCommand(String),
    UnexpectedArg(String),
    MissingValue(String),
    UnknownFlag { command: &'static str, flag: String },
    BadFlag { flag: &'static str, message: String },
    MissingFlag(&'static str),
    Data(String),
    Checkpoint(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}; try --help"),
            CliError::UnexpectedArg(a) => {
                write!(f, "unexpected argument {a:?} (flags are --name value)")
            }
            CliError::MissingValue(name) => write!(f, "--{name} needs a value"),
            CliError::UnknownFlag { command, flag } => {
                write!(f, "--{flag} is not a `{command}` flag; try --help")
            }
            CliError::BadFlag { flag, message } => write!(f, "--{flag}: {message}"),
            CliError::MissingFlag(name) => write!(f, "--{name} is required"),
            CliError::Data(m) => write!(f, "{m}"),
            CliError::Checkpoint(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Data(_) | CliError::Checkpoint(_) => 1,
            _ => 2,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    if let Err(e) = run(args) {
        eprintln!("error: {e}");
        exit(e.exit_code());
    }
}

fn run(mut args: Vec<String>) -> Result<(), CliError> {
    let command = args.remove(0);
    let flags = parse_flags(&args)?;
    match command.as_str() {
        "stats" => cmd_stats(&flags),
        "partition" => cmd_partition(&flags),
        "train" => cmd_train(&flags),
        "eval" => cmd_eval(&flags),
        "serve" => cmd_serve(&flags),
        "ps-server" => cmd_ps_server(&flags),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn usage() {
    println!("hetkg — knowledge graph embedding training with a hotness-aware cache\n");
    println!("commands:");
    println!("  stats      dataset statistics and access-frequency skew");
    println!("  partition  compare METIS-like vs random partitioning quality");
    println!("  train      distributed training (simulated cluster); saves a checkpoint");
    println!("  eval       filtered link prediction from a checkpoint, with breakdown");
    println!("  serve      online serving benchmark from a checkpoint: Zipf lookups +");
    println!("             top-k link prediction on real worker threads");
    println!("  ps-server  one parameter-server shard process (spawned by train");
    println!("             when --transport is tcp or uds; not normally run by hand)\n");
    println!("data selection (all commands):");
    println!("  --data DIR        FB15k-format train.txt/valid.txt/test.txt");
    println!("  --synthetic NAME  fb15k | wn18 | freebase86m (harness scale)\n");
    println!("training flags:");
    println!("  --system S      hetkg-c | hetkg-d | dglke | pbg      (default hetkg-d)");
    println!("  --model M       transe | distmult | complex | ...    (default transe)");
    println!("  --dim D         embedding dimension                  (default 64)");
    println!("  --epochs E      training epochs                      (default 10)");
    println!("  --machines N    simulated machines                   (default 4)");
    println!("  --parts N       partitions for `partition`           (default 4)");
    println!("  --candidates K  eval candidate subsample             (default 500)");
    println!("  --eval-threads N rank test triples on N threads; metrics are");
    println!("                  bit-identical for any N               (default 1)");
    println!("  --out PATH      checkpoint output                    (default hetkg-model.bin)");
    println!("  --checkpoint P  checkpoint input for `eval` / `serve`");
    println!("  --seed N        master seed                          (default 42)");
    println!("  --no-overlap    disable comm/compute pipelining: stage nothing ahead and");
    println!("                  run each operation in turn; epoch time is that");
    println!("                  sequential schedule's, on the same timeline");
    println!("  --compress C    push-path gradient compression        (default off)");
    println!("                  off: dense f32 rows, bit-identical to pre-compression");
    println!("                  int8 | int4: per-row scaled quantization");
    println!("                  topk: top-k sparsification (k = dim/4)");
    println!("                  adaptive: starts at int8, tightens to top-k only");
    println!("                  while the comm lane is the bottleneck; error-");
    println!("                  feedback residuals stay client-side in every mode");
    println!("  --report PATH   write the full TrainReport JSON here (per-epoch");
    println!("                  traffic with its split by cause, cache, loss)");
    println!("  --transport T   sim | tcp | uds                       (default sim)");
    println!("                  sim: in-process cost-model cluster, bit-identical");
    println!("                       to every earlier release");
    println!("                  tcp | uds: each PS shard is a real OS process");
    println!("                       (spawned `hetkg ps-server`) reached over");
    println!("                       TCP or Unix sockets; same loss trajectory");
    println!("                       and metered bytes as sim. Incompatible with");
    println!("                       --fault-profile and --replication > 1");
    println!("                       (sim-only)");
    println!("fault injection (train):");
    println!("  --fault-profile P    none | lossy | corrupt | outage | overload | chaos");
    println!("                       | failover, or a JSON FaultPlan file (default none)");
    println!("                       lossy: 2% remote-message loss with retry/backoff");
    println!("                       corrupt: 1% payload bit-flips, caught by the");
    println!("                                wire-frame checksum and re-pulled");
    println!("                       outage: PS shard 1 down mid-run; HET-KG serves");
    println!("                               stale hits and defers pushes meanwhile");
    println!("                       overload: a flash crowd saturates shard 1 — it");
    println!("                                 sheds and throttles arrivals; budget +");
    println!("                                 breaker + cache brownout ride it out");
    println!("                       chaos: loss + outage + straggler + worker crash");
    println!("                              recovered from a checkpoint (+ a shard");
    println!("                              kill, armed only when replication is on)");
    println!("                       failover: loss + straggler + a permanent primary");
    println!("                                 kill survived by backup promotion");
    println!("  --replication K      backup replicas per PS shard: K-1 (default 1 =");
    println!("                       off; failover profile defaults to 2)");
    println!("  --checkpoint-every N recovery checkpoint every N epochs (0 = off;");
    println!("                       forced on when the profile schedules a crash)");
    println!("integrity & supervision (train):");
    println!("  --integrity on|off   verify wire-frame checksums     (default on;");
    println!("                       off lets injected corruption poison the tables)");
    println!("  --checkpoint-dir DIR keep recovery checkpoints on disk, written");
    println!("                       crash-consistently with a manifest (default:");
    println!("                       validated in-memory images)");
    println!("  --max-restarts N     supervisor restart budget of the pool (default 3)");
    println!("  --oracle on|off      also run a fault-free shadow reference and");
    println!("                       check per-key divergence        (default off)");
    println!("serving flags (serve):");
    println!("  --checkpoint-dir DIR serve the newest valid checkpoint from a");
    println!("                       manifest store (alternative to --checkpoint)");
    println!("  --shards N      entity-table shards                  (default 4)");
    println!("  --threads N     closed-loop client threads           (default 2)");
    println!("  --queries N     timed queries per thread             (default 10000)");
    println!("  --warmup N      untimed warmup queries per thread    (default 2000)");
    println!("  --topk K        k for top-k queries                  (default 10)");
    println!("  --topk-share F  fraction of queries that are top-k   (default 0.02)");
    println!("  --zipf S        workload skew exponent (0 = uniform) (default 1.0)");
    println!("  --cache-rows N  hot-row cache budget (0 = minimum)   (default entities/4)");
    println!("  --warm on|off   pre-admit rows by training-data hotness; needs");
    println!("                  --data/--synthetic                   (default off)");
    println!("  --think-us N    per-query client think time, us      (default 0)");
    println!("  --reload-ms N   poll --checkpoint-dir for newer checkpoints and");
    println!("                  hot-swap without stalling readers (0 = off)");
    println!("  --report PATH   write the full ServeReport JSON here");
}

/// Flags that stand alone (no value follows them).
const BARE_FLAGS: &[&str] = &["no-overlap"];

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::UnexpectedArg(arg.clone()));
        };
        if BARE_FLAGS.contains(&name) {
            flags.insert(name.to_string(), String::new());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(CliError::MissingValue(name.to_string()));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str, default: &'a str) -> &'a str {
    flags.get(name).map(String::as_str).unwrap_or(default)
}

/// Flags every command accepts (data selection + seed).
const COMMON_FLAGS: &[&str] = &["data", "synthetic", "seed"];

/// Reject flags the command does not understand — a typo'd flag must fail
/// loudly, not silently train with defaults.
fn check_flags(
    command: &'static str,
    flags: &HashMap<String, String>,
    allowed: &[&str],
) -> Result<(), CliError> {
    for k in flags.keys() {
        if !COMMON_FLAGS.contains(&k.as_str()) && !allowed.contains(&k.as_str()) {
            return Err(CliError::UnknownFlag {
                command,
                flag: k.clone(),
            });
        }
    }
    Ok(())
}

/// Parse an integer flag that must be ≥ 1.
fn positive(
    flags: &HashMap<String, String>,
    name: &'static str,
    default: usize,
) -> Result<usize, CliError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(n) => Err(CliError::BadFlag {
                flag: name,
                message: format!("must be at least 1, got {n}"),
            }),
            Err(_) => Err(CliError::BadFlag {
                flag: name,
                message: format!("{v:?} is not an integer"),
            }),
        },
    }
}

/// Parse an integer flag that may be 0.
fn non_negative(
    flags: &HashMap<String, String>,
    name: &'static str,
    default: usize,
) -> Result<usize, CliError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse::<usize>().map_err(|_| CliError::BadFlag {
            flag: name,
            message: format!("{v:?} is not an integer"),
        }),
    }
}

/// Parse a finite, non-negative float flag.
fn fraction(
    flags: &HashMap<String, String>,
    name: &'static str,
    default: f64,
) -> Result<f64, CliError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => match v.parse::<f64>() {
            Ok(f) if f.is_finite() && f >= 0.0 => Ok(f),
            _ => Err(CliError::BadFlag {
                flag: name,
                message: format!("{v:?} is not a non-negative number"),
            }),
        },
    }
}

/// Parse an `on|off` flag (also accepts `true|false`).
fn switch(
    flags: &HashMap<String, String>,
    name: &'static str,
    default: bool,
) -> Result<bool, CliError> {
    match flags.get(name).map(String::as_str) {
        None => Ok(default),
        Some("on") | Some("true") => Ok(true),
        Some("off") | Some("false") => Ok(false),
        Some(v) => Err(CliError::BadFlag {
            flag: name,
            message: format!("expected on or off, got {v:?}"),
        }),
    }
}

fn parse_seed(flags: &HashMap<String, String>) -> Result<u64, CliError> {
    flag(flags, "seed", "42")
        .parse()
        .map_err(|_| CliError::BadFlag {
            flag: "seed",
            message: "must be an unsigned integer".into(),
        })
}

/// The loaded dataset: graph plus train/valid/test.
struct Data {
    kg: KnowledgeGraph,
    train: Vec<Triple>,
    _valid: Vec<Triple>,
    test: Vec<Triple>,
}

fn load_data(flags: &HashMap<String, String>) -> Result<Data, CliError> {
    let seed = parse_seed(flags)?;
    if let Some(dir) = flags.get("data") {
        let bench = load_benchmark(&PathBuf::from(dir))
            .map_err(|e| CliError::Data(format!("loading {dir}: {e}")))?;
        return Ok(Data {
            kg: bench.graph,
            train: bench.train,
            _valid: bench.valid,
            test: bench.test,
        });
    }
    let name = flags
        .get("synthetic")
        .ok_or_else(|| CliError::Data("pass --data DIR or --synthetic NAME".into()))?;
    let generator = match name.as_str() {
        "fb15k" => datasets::fb15k_like().scale(0.05),
        "wn18" => datasets::wn18_like().scale(0.10),
        "freebase86m" => datasets::freebase86m_like().scale(0.01),
        other => {
            return Err(CliError::BadFlag {
                flag: "synthetic",
                message: format!("unknown dataset {other:?} (fb15k | wn18 | freebase86m)"),
            })
        }
    };
    let kg = generator.build(seed);
    let split = Split::ninety_five_five(&kg, seed);
    Ok(Data {
        kg,
        train: split.train,
        _valid: split.valid,
        test: split.test,
    })
}

fn parse_model(name: &str) -> Result<ModelKind, CliError> {
    Ok(match name.to_lowercase().as_str() {
        "transe" | "transe-l2" => ModelKind::TransEL2,
        "transe-l1" => ModelKind::TransEL1,
        "transh" => ModelKind::TransH,
        "transr" => ModelKind::TransR,
        "transd" => ModelKind::TransD,
        "distmult" => ModelKind::DistMult,
        "complex" => ModelKind::ComplEx,
        "rescal" => ModelKind::Rescal,
        "hole" => ModelKind::HolE,
        other => {
            return Err(CliError::BadFlag {
                flag: "model",
                message: format!("unknown model {other:?}"),
            })
        }
    })
}

fn parse_system(name: &str) -> Result<SystemKind, CliError> {
    Ok(match name.to_lowercase().as_str() {
        "hetkg-c" | "hetkg-cps" => SystemKind::HetKgCps,
        "hetkg-d" | "hetkg-dps" => SystemKind::HetKgDps,
        "dglke" | "dgl-ke" => SystemKind::DglKe,
        "pbg" => SystemKind::Pbg,
        other => {
            return Err(CliError::BadFlag {
                flag: "system",
                message: format!("unknown system {other:?} (hetkg-c | hetkg-d | dglke | pbg)"),
            })
        }
    })
}

/// Resolve `--fault-profile`: a named preset or a JSON [`FaultPlan`] file.
fn parse_fault_profile(value: &str, seed: u64) -> Result<Option<FaultPlan>, CliError> {
    match value {
        "none" => Ok(None),
        "lossy" => Ok(Some(FaultPlan::lossy(seed, 0.02))),
        "corrupt" => Ok(Some(FaultPlan::corrupting(seed, 0.01))),
        "outage" => Ok(Some(FaultPlan::shard_outage(seed, 1, 0.050, 0.150))),
        "overload" => Ok(Some(FaultPlan::overload(seed))),
        "chaos" => Ok(Some(FaultPlan::chaos(seed))),
        "failover" => Ok(Some(FaultPlan::failover(seed))),
        path => {
            let raw = std::fs::read_to_string(path).map_err(|e| CliError::BadFlag {
                flag: "fault-profile",
                message: format!(
                    "not a preset (none | lossy | corrupt | outage | overload | chaos | failover) and reading {path:?} failed: {e}"
                ),
            })?;
            let plan: FaultPlan = serde_json::from_str(&raw).map_err(|e| CliError::BadFlag {
                flag: "fault-profile",
                message: format!("{path:?} is not a valid FaultPlan: {e}"),
            })?;
            Ok(Some(plan))
        }
    }
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), CliError> {
    check_flags("stats", flags, &[])?;
    let data = load_data(flags)?;
    let kg = &data.kg;
    println!(
        "entities {} | relations {} | triples {} (train {} / valid {} / test {})",
        kg.num_entities(),
        kg.num_relations(),
        kg.num_triples(),
        data.train.len(),
        data._valid.len(),
        data.test.len()
    );
    println!("avg entity degree {:.2}", kg.avg_degree());
    let mut counter = AccessCounter::new(kg.key_space());
    counter.record_batch(kg.triples());
    println!(
        "top-1% entity share {:.1}% | top-1% relation share {:.1}% | relation/entity heat {:.1}x",
        100.0 * counter.entity_top_share(0.01),
        100.0 * counter.relation_top_share(0.01),
        counter.heterogeneity_factor()
    );
    println!(
        "gini: entities {:.3}, relations {:.3}",
        het_kg::kgraph::stats::gini(&counter.counts()[..kg.num_entities()]),
        het_kg::kgraph::stats::gini(&counter.counts()[kg.num_entities()..])
    );
    Ok(())
}

fn cmd_partition(flags: &HashMap<String, String>) -> Result<(), CliError> {
    check_flags("partition", flags, &["parts"])?;
    let data = load_data(flags)?;
    let parts = positive(flags, "parts", 4)?;
    let seed = parse_seed(flags)?;
    println!("{:<12} {:>10} {:>9}", "partitioner", "edge cut", "balance");
    for (name, p) in [
        (
            "metis-like",
            MetisLike::new(seed).partition(&data.kg, parts),
        ),
        (
            "random",
            RandomPartitioner::new(seed).partition(&data.kg, parts),
        ),
    ] {
        println!(
            "{:<12} {:>9.1}% {:>9.2}",
            name,
            100.0 * quality::cut_fraction(&data.kg, &p),
            quality::balance(&p)
        );
    }
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), CliError> {
    check_flags(
        "train",
        flags,
        &[
            "system",
            "model",
            "dim",
            "epochs",
            "machines",
            "out",
            "fault-profile",
            "checkpoint-every",
            "integrity",
            "checkpoint-dir",
            "max-restarts",
            "oracle",
            "no-overlap",
            "replication",
            "compress",
            "transport",
            "report",
        ],
    )?;
    let data = load_data(flags)?;
    let mut cfg = TrainConfig::small(parse_system(flag(flags, "system", "hetkg-d"))?);
    cfg.model = parse_model(flag(flags, "model", "transe"))?;
    cfg.dim = positive(flags, "dim", 64)?;
    cfg.epochs = positive(flags, "epochs", 10)?;
    cfg.machines = positive(flags, "machines", 4)?;
    cfg.seed = parse_seed(flags)?;
    cfg.eval_candidates = None;
    let profile = flag(flags, "fault-profile", "none");
    cfg.faults = parse_fault_profile(profile, cfg.seed)?;
    // The failover profile permanently kills a primary, so it defaults
    // replication on; a kill with no backup to promote would abort the run.
    cfg.replication = match flags.get("replication") {
        Some(_) => positive(flags, "replication", 1)?,
        None if profile == "failover" => 2,
        None => 1,
    };
    if profile == "failover" && cfg.replication < 2 {
        return Err(CliError::BadFlag {
            flag: "replication",
            message: "the failover profile permanently kills a primary; it needs \
                      --replication 2 or more (a backup to promote)"
                .into(),
        });
    }
    cfg.checkpoint_every = non_negative(flags, "checkpoint-every", 0)?;
    cfg.integrity = switch(flags, "integrity", true)?;
    cfg.checkpoint_dir = flags.get("checkpoint-dir").cloned();
    cfg.supervisor.max_restarts =
        non_negative(flags, "max-restarts", cfg.supervisor.max_restarts as usize)? as u32;
    cfg.overlap = !flags.contains_key("no-overlap");
    let compress = flag(flags, "compress", "off");
    cfg.compression =
        het_kg::netsim::CompressionMode::parse(compress).ok_or_else(|| CliError::BadFlag {
            flag: "compress",
            message: format!("unknown mode {compress:?} (off | int8 | int4 | topk | adaptive)"),
        })?;
    cfg.transport = match flag(flags, "transport", "sim") {
        "sim" => TransportKind::Sim,
        "tcp" => TransportKind::Tcp,
        "uds" => TransportKind::Uds,
        other => {
            return Err(CliError::BadFlag {
                flag: "transport",
                message: format!("unknown transport {other:?} (sim | tcp | uds)"),
            })
        }
    };
    if cfg.transport.is_socket() {
        // Refusing the combination up front beats the trainer's panic.
        cfg.check_socket_transport().map_err(|refused| {
            let what = match refused {
                SocketRefusal::FaultInjection => {
                    "fault injection is sim-only; drop --fault-profile"
                }
                SocketRefusal::Replication => "shard replication is sim-only; drop --replication",
            };
            CliError::BadFlag {
                flag: "transport",
                message: format!("{what} or use --transport sim (got {})", cfg.transport),
            }
        })?;
        let exe = std::env::current_exe().map_err(|e| CliError::BadFlag {
            flag: "transport",
            message: format!("cannot locate the hetkg binary to spawn ps-server shards: {e}"),
        })?;
        cfg.ps_server_bin = Some(exe.to_string_lossy().into_owned());
    }
    let oracle_on = switch(flags, "oracle", false)?;

    println!(
        "training {} / {} (d={}) on {} machines, {} epochs...",
        cfg.system, cfg.model, cfg.dim, cfg.machines, cfg.epochs
    );
    if let Some(plan) = &cfg.faults {
        let crashes = plan.crash_epochs();
        println!(
            "fault plan: drop {:.1}% | corrupt {:.1}% ({}) | {} outage window(s) | {} overload window(s) | {} straggler episode(s) | crashes {} | shard kills {}",
            100.0 * plan.drop_probability,
            100.0 * plan.corrupt_probability,
            if cfg.integrity { "checksums on" } else { "checksums OFF" },
            plan.outages.len(),
            plan.overloads.len(),
            plan.slow_episodes.len(),
            if crashes.is_empty() { "none".to_string() } else { format!("epochs {crashes:?}") },
            if plan.kills.is_empty() {
                "none".to_string()
            } else if cfg.replication > 1 {
                format!("{} (armed)", plan.kills.len())
            } else {
                format!("{} (masked: replication off)", plan.kills.len())
            },
        );
    }
    if cfg.faults.as_ref().is_some_and(OverloadControl::arms) {
        println!("overload protection: retry budget on | breakers on");
    }
    if cfg.replication > 1 {
        println!(
            "replication: k={} ({} backup replica(s) per PS shard)",
            cfg.replication,
            cfg.replication - 1
        );
    }
    if cfg.transport.is_socket() {
        println!(
            "transport: {} (one ps-server process per shard)",
            cfg.transport
        );
    }
    let (report, store) = if oracle_on {
        let (verdict, store) = oracle::shadow_check_with_store(
            &data.kg,
            &data.train,
            &cfg,
            oracle::OracleConfig::default(),
        );
        println!(
            "oracle: {} | max per-key divergence {:.3e} (mean {:.3e}, bound {}) over {} keys | staleness ok: {}",
            if verdict.within_bound && verdict.staleness_ok { "PASS" } else { "FAIL" },
            verdict.max_divergence,
            verdict.mean_divergence,
            if verdict.exact { "exact".to_string() } else { format!("{:.3e}", verdict.bound) },
            verdict.keys_compared,
            verdict.staleness_ok,
        );
        (verdict.report, store)
    } else {
        trainer::train_with_store(&data.kg, &data.train, &[], &cfg)
    };
    for e in &report.epochs {
        println!(
            "epoch {:>3}: loss {:.4} | compute {:.2}s comm {:.2}s | cache hit {:.1}%",
            e.epoch,
            e.loss,
            e.compute_secs,
            e.comm_secs,
            100.0 * e.cache.hit_ratio()
        );
    }
    println!(
        "total {:.2}s simulated ({:.0}% communication), {:.1} MB moved",
        report.total_secs(),
        100.0 * report.comm_fraction(),
        report.total_traffic().total_bytes() as f64 / 1e6
    );
    let by_cause = report.total_traffic().by_cause;
    let causes: Vec<String> = het_kg::netsim::Cause::ALL
        .iter()
        .map(|&c| (c, by_cause.get(c)))
        .filter(|(_, b)| b.remote + b.local > 0)
        .map(|(c, b)| {
            format!(
                "{} {:.1}/{:.1}",
                c.name(),
                b.remote as f64 / 1e6,
                b.local as f64 / 1e6
            )
        })
        .collect();
    println!("bytes by cause (remote/local MB): {}", causes.join(" | "));
    let table = report.total_table();
    if table.rebuilds > 0 {
        println!(
            "hot table: {:.1}% occupied (mean over {} rebuilds) | {:.1} fresh rows per rebuild | staged miss keys {} early / {} late | {} rows written back for {} gradients (x{:.2}, rho {:.2}), {} of them ({:.0}%) before their window's last push",
            100.0 * table.occupancy(),
            table.rebuilds,
            table.fresh_rows_per_rebuild(),
            table.staged_early,
            table.staged_late,
            table.written_back_rows,
            table.coalesced_grads,
            table.coalescing_factor(),
            table.mean_rho(),
            table.written_back_early,
            100.0 * table.early_share(),
        );
    } else if table.staged_early + table.staged_late > 0 {
        println!(
            "pipeline: staged pull keys {} early / {} late",
            table.staged_early, table.staged_late
        );
    }
    if let Some(c) = &report.compression {
        println!(
            "compression: mode={} | push lane {:.1} KB raw -> {:.1} KB wire ({:.2}x) over {} rows in {} frames | {} residual folds | ladder +{}/-{}",
            c.mode,
            c.raw_bytes as f64 / 1e3,
            c.wire_bytes as f64 / 1e3,
            c.ratio(),
            c.rows,
            c.frames,
            c.residual_folds,
            c.level_ups,
            c.level_downs,
        );
    }
    let overlapped = report.total_overlap_secs();
    if table.staged_early + table.staged_late > 0 {
        println!(
            "pipelining hid {:.2}s of communication behind compute ({:.2}s sequential -> {:.2}s critical path)",
            overlapped,
            report.total_compute_secs() + report.total_comm_secs(),
            report.total_secs(),
        );
    }
    if let Some(fr) = &report.faults {
        println!(
            "faults: {} drops ({} retries, {:.1} KB retransmitted) | {} outage refusals | {} slow messages (+{:.4}s latency, {:.4}s backoff)",
            fr.drops,
            fr.retries,
            fr.retransmitted_bytes as f64 / 1e3,
            fr.outage_refusals,
            fr.slow_messages,
            fr.extra_latency_secs,
            fr.backoff_secs,
        );
        println!(
            "degraded cache: {} stale hits, {} deferred pushes, {} backlog flushes | recovery: {} checkpoints, {} restarts",
            fr.degraded_hits, fr.deferred_pushes, fr.backlog_flushes, fr.checkpoints, fr.recoveries,
        );
        if fr.overload_sheds > 0
            || fr.overload_throttled > 0
            || fr.retries_denied > 0
            || fr.breaker_opens > 0
            || fr.breaker_fast_fails > 0
        {
            println!(
                "overload: {} sheds, {} throttled (+{:.4}s service latency) | retries denied: {}",
                fr.overload_sheds, fr.overload_throttled, fr.overload_extra_secs, fr.retries_denied,
            );
            println!(
                "breakers: {} open(s), {} half-open probe(s), {} close(s), {} fast-fail(s) | brownout: {} stale serves, {} shed pushes, {:.4}s browned out",
                fr.breaker_opens,
                fr.breaker_half_opens,
                fr.breaker_closes,
                fr.breaker_fast_fails,
                fr.brownout_stale_serves,
                fr.shed_pushes,
                fr.brownout_secs,
            );
        }
        if fr.corrupt_frames > 0 {
            println!(
                "integrity: {} corrupt frames injected | {} detected and re-pulled | {} silently ingested",
                fr.corrupt_frames, fr.corrupt_detected, fr.corrupt_ingested,
            );
        }
        if fr.promotions > 0 || fr.hedged_pulls > 0 {
            println!(
                "failover: {} promotion(s), {} catch-up record(s) ({:.1} KB replayed) | hedged pulls: {} issued, {} won, {} lost",
                fr.promotions,
                fr.catch_up_frames,
                fr.catch_up_bytes as f64 / 1e3,
                fr.hedged_pulls,
                fr.hedged_wins,
                fr.hedged_losses,
            );
        }
        let rep = report.total_traffic();
        if rep.replication_bytes > 0 {
            println!(
                "replication traffic: {:.1} KB in {} message(s) (own lane; excluded from worker byte totals)",
                rep.replication_bytes as f64 / 1e3,
                rep.replication_messages,
            );
        }
    }
    if let Some(sup) = &report.supervisor {
        println!(
            "supervisor: {} missed-heartbeat detections, {} restarts ({:.4}s backoff), {} torn checkpoint(s) skipped{}",
            sup.detections,
            sup.restarts,
            sup.restart_backoff_secs,
            sup.torn_checkpoints_skipped,
            if sup.gave_up { " — restart budget exhausted, run abandoned" } else { "" },
        );
    }

    let out = PathBuf::from(flag(flags, "out", "hetkg-model.bin"));
    let ck = trainer::checkpoint(&store, data.kg.key_space());
    ck.save(&out)
        .map_err(|e| CliError::Checkpoint(format!("saving checkpoint: {e}")))?;
    println!("checkpoint written to {}", out.display());
    if let Some(path) = flags.get("report") {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::Data(format!("serializing the train report: {e}")))?;
        std::fs::write(path, json)
            .map_err(|e| CliError::Data(format!("writing report {path}: {e}")))?;
        println!("report written to {path}");
    }
    Ok(())
}

/// Run one PS shard process: load the serialized [`ShardServerConfig`],
/// bind the requested listener, print the readiness handshake on stdout
/// (the spawning trainer blocks on it), then serve until a shutdown frame
/// arrives on the wire.
fn cmd_ps_server(flags: &HashMap<String, String>) -> Result<(), CliError> {
    check_flags("ps-server", flags, &["config", "shard", "listen"])?;
    let path = flags.get("config").ok_or(CliError::MissingFlag("config"))?;
    let raw = std::fs::read_to_string(path)
        .map_err(|e| CliError::Data(format!("reading shard config {path}: {e}")))?;
    let config: ShardServerConfig = serde_json::from_str(&raw)
        .map_err(|e| CliError::Data(format!("{path} is not a valid shard config: {e}")))?;
    let shard: usize = flags
        .get("shard")
        .ok_or(CliError::MissingFlag("shard"))?
        .parse()
        .map_err(|_| CliError::BadFlag {
            flag: "shard",
            message: "must be an unsigned integer".into(),
        })?;
    if shard >= config.num_shards {
        return Err(CliError::BadFlag {
            flag: "shard",
            message: format!(
                "shard {shard} out of range (config has {})",
                config.num_shards
            ),
        });
    }
    let listen = flags.get("listen").ok_or(CliError::MissingFlag("listen"))?;
    let listener = het_kg::ps::ShardListener::bind(listen)
        .map_err(|e| CliError::Data(format!("binding {listen}: {e}")))?;
    let spec = listener
        .local_spec()
        .map_err(|e| CliError::Data(format!("resolving listen address: {e}")))?;
    // The handshake line must hit the pipe before the trainer's read, so
    // flush past stdout's buffering explicitly.
    println!("{}{spec}", het_kg::ps::server::READY_PREFIX);
    std::io::Write::flush(&mut std::io::stdout())
        .map_err(|e| CliError::Data(format!("flushing readiness handshake: {e}")))?;
    het_kg::ps::serve(&config, shard, &listener)
        .map_err(|e| CliError::Data(format!("ps-server shard {shard}: {e}")))
}

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), CliError> {
    check_flags(
        "eval",
        flags,
        &["checkpoint", "model", "dim", "candidates", "eval-threads"],
    )?;
    let data = load_data(flags)?;
    let path = flags
        .get("checkpoint")
        .ok_or(CliError::MissingFlag("checkpoint"))?;
    let ck = Checkpoint::load(&PathBuf::from(path))
        .map_err(|e| CliError::Checkpoint(format!("loading checkpoint: {e}")))?;
    let model = parse_model(flag(flags, "model", "transe"))?;
    let dim = positive(flags, "dim", 64)?;
    let candidates = positive(flags, "candidates", 500)?;
    let model = model.build(dim);
    if ck.entities.dim() != model.entity_dim() || ck.relations.dim() != model.relation_dim() {
        return Err(CliError::Checkpoint(format!(
            "checkpoint widths (e{}, r{}) do not match {} at d={dim} (e{}, r{})",
            ck.entities.dim(),
            ck.relations.dim(),
            model.name(),
            model.entity_dim(),
            model.relation_dim()
        )));
    }
    let eval_threads = positive(flags, "eval-threads", 1)?;
    let snapshot = EmbeddingSnapshot::new(ck.entities, ck.relations);
    // Metrics are bit-identical for any thread count (ranks land in fixed
    // slots; aggregation replays them in protocol order on one thread).
    let breakdown = evaluate_breakdown_threaded(
        model.as_ref(),
        &snapshot,
        &data.test,
        data.kg.triples(),
        &EvalConfig {
            filtered: true,
            max_candidates: Some(candidates.min(data.kg.num_entities())),
            seed: 0,
        },
        eval_threads,
    );
    println!("overall:   {}", breakdown.overall);
    println!("head-side: {}", breakdown.head_side);
    println!("tail-side: {}", breakdown.tail_side);
    let hardest = breakdown.hardest_relations();
    println!("\nhardest relations (lowest MRR first):");
    for (r, mrr) in hardest.iter().take(5) {
        println!("  {r}: MRR {mrr:.3}");
    }
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    check_flags(
        "serve",
        flags,
        &[
            "checkpoint",
            "checkpoint-dir",
            "model",
            "dim",
            "shards",
            "threads",
            "queries",
            "warmup",
            "topk",
            "topk-share",
            "zipf",
            "cache-rows",
            "warm",
            "think-us",
            "reload-ms",
            "report",
        ],
    )?;
    let model = parse_model(flag(flags, "model", "transe"))?.build(positive(flags, "dim", 64)?);
    let dim = model.base_dim();
    let shards = positive(flags, "shards", 4)?;
    let snapshot = match (flags.get("checkpoint"), flags.get("checkpoint-dir")) {
        (Some(_), Some(_)) => {
            return Err(CliError::BadFlag {
                flag: "checkpoint",
                message: "pass either --checkpoint or --checkpoint-dir, not both".into(),
            })
        }
        (Some(path), None) => {
            let ck = Checkpoint::load(&PathBuf::from(path))
                .map_err(|e| CliError::Checkpoint(format!("loading checkpoint: {e}")))?;
            ServingSnapshot::from_checkpoint(&ck, 0, 0, shards)
        }
        (None, Some(dir)) => ServingSnapshot::load_latest(&PathBuf::from(dir), shards)
            .map_err(|e| CliError::Checkpoint(e.to_string()))?,
        (None, None) => return Err(CliError::MissingFlag("checkpoint")),
    };
    if snapshot.entities.dim() != model.entity_dim()
        || snapshot.relations.dim() != model.relation_dim()
    {
        return Err(CliError::Checkpoint(format!(
            "checkpoint widths (e{}, r{}) do not match {} at d={dim} (e{}, r{})",
            snapshot.entities.dim(),
            snapshot.relations.dim(),
            model.name(),
            model.entity_dim(),
            model.relation_dim()
        )));
    }
    let (entities, relations) = (snapshot.entities.rows(), snapshot.relations.rows());
    let (snap_seq, snap_epoch) = (snapshot.seq, snapshot.epoch);
    if entities == 0 || relations == 0 {
        return Err(CliError::Checkpoint(
            "checkpoint has no entities or no relations to serve".into(),
        ));
    }
    let cache_rows = non_negative(flags, "cache-rows", (entities / 4).max(8))?;
    let model_name = model.name();
    let cell = std::sync::Arc::new(SnapshotCell::new(snapshot));
    let engine = ServeEngine::new(cell.clone(), model, cache_rows)
        .map_err(|e| CliError::Checkpoint(e.to_string()))?;

    if switch(flags, "warm", false)? {
        // Pre-admit by *training-data* hotness — the same statistic the
        // training cache builds its hot set from. Needs the dataset.
        let data = load_data(flags)?;
        let mut counter = AccessCounter::new(data.kg.key_space());
        counter.record_batch(data.kg.triples());
        let counts = &counter.counts()[..data.kg.num_entities().min(entities)];
        let snap = engine.snapshot();
        engine.cache().warm(counts, snap.seq, |id| {
            snap.entities.row(id as usize).to_vec()
        });
        println!(
            "warmed {} rows from training-data hotness",
            engine.cache().admits()
        );
    }

    let reload_ms = non_negative(flags, "reload-ms", 0)?;
    let reloader = match (flags.get("checkpoint-dir"), reload_ms) {
        (Some(dir), ms) if ms > 0 => Some(SnapshotReloader::spawn(
            cell.clone(),
            PathBuf::from(dir),
            shards,
            std::time::Duration::from_millis(ms as u64),
        )),
        (None, ms) if ms > 0 => {
            return Err(CliError::BadFlag {
                flag: "reload-ms",
                message: "hot reload needs --checkpoint-dir (a manifest store to poll)".into(),
            })
        }
        _ => None,
    };

    let cfg = LoadGenConfig {
        threads: positive(flags, "threads", 2)?,
        queries_per_thread: positive(flags, "queries", 10_000)?,
        warmup_per_thread: non_negative(flags, "warmup", 2_000)?,
        topk_share: {
            let s = fraction(flags, "topk-share", 0.02)?;
            if s > 1.0 {
                return Err(CliError::BadFlag {
                    flag: "topk-share",
                    message: format!("must be in [0, 1], got {s}"),
                });
            }
            s
        },
        k: positive(flags, "topk", 10)?,
        zipf_exponent: fraction(flags, "zipf", 1.0)?,
        seed: parse_seed(flags)?,
        think_us: non_negative(flags, "think-us", 0)? as u64,
    };

    println!(
        "serving {model_name} d={dim}: {entities} entities, {relations} relations, \
         {shards} shard(s), cache {} rows (snapshot seq {snap_seq}, epoch {snap_epoch})",
        engine.cache().capacity(),
    );
    println!(
        "workload: zipf({}) | topk share {:.1}% (k={}) | {} thread(s) x {} queries \
         (+{} warmup) | think {}us",
        cfg.zipf_exponent,
        100.0 * cfg.topk_share,
        cfg.k,
        cfg.threads,
        cfg.queries_per_thread,
        cfg.warmup_per_thread,
        cfg.think_us,
    );

    let run = run_load(&engine, &cfg);

    println!(
        "qps {:.0} | queries {} | errors {} | wall {:.3}s",
        run.qps, run.queries, run.errors, run.wall_secs
    );
    println!(
        "latency us: p50 {:.1} | p95 {:.1} | p99 {:.1} | p99.9 {:.1} | max {:.1} | mean {:.1}",
        run.latency.p50_us,
        run.latency.p95_us,
        run.latency.p99_us,
        run.latency.p999_us,
        run.latency.max_us,
        run.latency.mean_us,
    );
    println!(
        "cache: hit rate {:.1}% ({} hits / {} accesses) | admits {}",
        100.0 * run.cache.hit_ratio(),
        run.cache.hits,
        run.cache.total(),
        engine.cache().admits(),
    );
    println!("digest {:016x}", run.digest);

    if let Some(r) = reloader {
        let reloads = r.stop();
        if reloads > 0 {
            println!(
                "hot-swapped {reloads} snapshot(s) mid-run (now at seq {})",
                engine.snapshot().seq
            );
        }
    }

    if let Some(path) = flags.get("report") {
        let report = ServeReport::new(
            model_name,
            dim,
            entities,
            relations,
            shards,
            snap_seq,
            snap_epoch,
            engine.cache().capacity(),
            &cfg,
            &run,
        );
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::Data(format!("writing report {path}: {e}")))?;
        println!("report written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_fault_profile_error_names_every_preset() {
        let presets = [
            "none", "lossy", "corrupt", "outage", "overload", "chaos", "failover",
        ];
        for name in presets {
            assert!(parse_fault_profile(name, 11).is_ok(), "{name} is a preset");
        }
        let err = parse_fault_profile("no-such-profile", 11).unwrap_err();
        let message = err.to_string();
        for name in presets {
            assert!(message.contains(name), "{name} missing from: {message}");
        }
    }

    #[test]
    fn overload_switches_are_unknown_train_flags() {
        for switch in ["retry-budget", "breaker"] {
            let line = format!("train --synthetic wn18 --fault-profile overload --{switch} off");
            match run(args(&line)) {
                Err(CliError::UnknownFlag { command, flag }) => {
                    assert_eq!((command, flag.as_str()), ("train", switch));
                }
                other => panic!("--{switch} was not refused: {other:?}"),
            }
        }
    }
}

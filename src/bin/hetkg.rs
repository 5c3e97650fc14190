//! `hetkg` — the command-line face of the library; `hetkg --help` lists its
//! commands and flags.

use het_kg::embed::checkpoint::Checkpoint;
use het_kg::embed::KgeModel;
use het_kg::eval::breakdown::evaluate_breakdown_threaded;
use het_kg::eval::link_prediction::EmbeddingSnapshot;
use het_kg::kgraph::io::{load_benchmark, Benchmark, Dictionary};
use het_kg::kgraph::stats::AccessCounter;
use het_kg::netsim::faults::PRESETS;
use het_kg::partition::quality;
use het_kg::prelude::*;
use het_kg::ps::{OverloadControl, ShardServerConfig};
use het_kg::train_sys::config::SocketRefusal;
use het_kg::train_sys::oracle;
use het_kg::train_sys::trainer;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;

/// Everything that can go wrong before or during a command. Usage errors
/// (bad flags, unknown commands) exit with status 2, and all come before
/// anything loads; runtime errors (loading data or a checkpoint, I/O) with
/// status 1.
#[derive(Debug)]
enum CliError {
    UnknownCommand(String),
    UnexpectedArg(String),
    MissingValue(&'static str),
    UnknownFlag { command: &'static str, flag: String },
    BadFlag { flag: &'static str, message: String },
    MissingFlag(&'static str),
    Runtime(String),
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
            CliError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Runtime(_) => 1,
            _ => 2,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if let Err(e) = run(args) {
        eprintln!("error: {e}");
        exit(e.exit_code());
    }
}

type Command = fn(&Flags) -> Result<(), CliError>;

/// Every command and what runs it.
const COMMANDS: [(&str, Command); 6] = [
    ("stats", cmd_stats),
    ("partition", cmd_partition),
    ("train", cmd_train),
    ("eval", cmd_eval),
    ("serve", cmd_serve),
    ("ps-server", cmd_ps_server),
];

fn run(mut args: Vec<String>) -> Result<(), CliError> {
    let command = args.remove(0);
    let Some(&(name, cmd)) = COMMANDS.iter().find(|(name, _)| *name == command) else {
        return Err(CliError::UnknownCommand(command));
    };
    cmd(&parse_flags(name, &args)?)
}

/// Prose, not a list generated from [`FLAGS`]; a test holds the flags it
/// names equal to the table's.
const USAGE: &str = r"hetkg — knowledge graph embedding training with a hotness-aware cache

commands:
  stats      dataset statistics and access-frequency skew
  partition  compare METIS-like vs random partitioning quality
  train      distributed training (simulated cluster); saves a checkpoint
  eval       filtered link prediction from a checkpoint, with breakdown
  serve      online serving benchmark from a checkpoint: Zipf lookups +
             top-k link prediction on real worker threads
  ps-server  one parameter-server shard process (spawned by train
             when --transport is tcp or uds; not normally run by hand)

data selection (all commands but ps-server):
  --data DIR        FB15k-format train.txt/valid.txt/test.txt
  --synthetic NAME  fb15k | wn18 | freebase86m (harness scale)

training flags:
  --system S      hetkg-c | hetkg-d | dglke | pbg      (default hetkg-d)
  --model M       transe | distmult | complex | ...    (default transe)
  --dim D         embedding dimension                  (default 64)
  --epochs E      training epochs                      (default 10)
  --machines N    simulated machines                   (default 4)
  --parts N       partitions for `partition`           (default 4)
  --candidates K  eval candidate subsample             (default 500)
  --eval-threads N rank test triples on N threads; metrics are
                  bit-identical for any N               (default 1)
  --out PATH      checkpoint output                    (default hetkg-model.bin)
  --checkpoint P  checkpoint input for `eval` / `serve`
  --seed N        master seed                          (default 42)
  --no-overlap    disable comm/compute pipelining: stage nothing ahead and
                  run each operation in turn; epoch time is that
                  sequential schedule's, on the same timeline
  --compress C    push-path gradient compression        (default off)
                  off: dense f32 rows, bit-identical to pre-compression
                  int8 | int4: per-row scaled quantization
                  topk: top-k sparsification (k = dim/4)
                  adaptive: starts at int8, tightens to top-k only
                  while the comm lane is the bottleneck; error-
                  feedback residuals stay client-side in every mode
  --report PATH   write the full TrainReport JSON here (per-epoch
                  traffic with its split by cause, cache, loss)
  --transport T   sim | tcp | uds                       (default sim)
                  sim: in-process cost-model cluster, bit-identical
                       to every earlier release
                  tcp | uds: each PS shard is a real OS process
                       (spawned `hetkg ps-server`) reached over
                       TCP or Unix sockets; same loss trajectory
                       and metered bytes as sim. Incompatible with
                       --fault-profile and --replication > 1
                       (sim-only)
fault injection (train):
  --fault-profile P    none | lossy | corrupt | outage | overload | chaos
                       | failover, or a JSON FaultPlan file (default none)
                       lossy: 2% remote-message loss with retry/backoff
                       corrupt: 1% payload bit-flips, caught by the
                                wire-frame checksum and re-pulled
                       outage: PS shard 1 down mid-run; HET-KG serves
                               stale hits and defers pushes meanwhile
                       overload: a flash crowd saturates shard 1 — it
                                 sheds and throttles arrivals; budget +
                                 breaker + cache brownout ride it out
                       chaos: loss + outage + straggler + worker crash
                              recovered from a checkpoint (+ a shard
                              kill, armed only when replication is on)
                       failover: loss + straggler + a permanent primary
                                 kill survived by backup promotion
  --replication K      backup replicas per PS shard: K-1 (default 1 =
                       off; failover profile defaults to 2)
  --checkpoint-every N recovery checkpoint every N epochs (0 = off;
                       forced on when the profile schedules a crash)
integrity & supervision (train):
  --integrity on|off   verify wire-frame checksums     (default on;
                       off lets injected corruption poison the tables)
  --checkpoint-dir DIR keep recovery checkpoints on disk, written
                       crash-consistently with a manifest (default:
                       validated in-memory images)
  --max-restarts N     supervisor restart budget of the pool (default 3)
  --oracle on|off      also run a fault-free shadow reference and
                       check per-key divergence        (default off)
serving flags (serve):
  --checkpoint-dir DIR serve the newest valid checkpoint from a
                       manifest store (alternative to --checkpoint)
  --shards N      entity-table shards                  (default 4)
  --threads N     closed-loop client threads           (default 2)
  --queries N     timed queries per thread             (default 10000)
  --warmup N      untimed warmup queries per thread    (default 2000)
  --topk K        k for top-k queries                  (default 10)
  --topk-share F  fraction of queries that are top-k   (default 0.02)
  --zipf S        workload skew exponent (0 = uniform) (default 1.0)
  --cache-rows N  hot-row cache budget (0 = minimum)   (default entities/4)
  --warm on|off   pre-admit rows by training-data hotness; needs
                  --data/--synthetic                   (default off)
  --think-us N    per-query client think time, us      (default 0)
  --reload-ms N   poll --checkpoint-dir for newer checkpoints and
                  hot-swap without stalling readers (0 = off)
  --report PATH   write the full ServeReport JSON here
";

/// What a flag's value must be.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Stands alone: no value follows it.
    Bare,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A finite number in `[0, max]`.
    Num(f64),
    /// `on` or `off` (also `true` or `false`).
    Switch,
    /// Text, checked where it is used.
    Text,
}

use Kind::{Bare, Int, Num, Switch, Text};

impl Kind {
    /// `value` as `str::parse` reads it (`on` is `true`) if it is one of
    /// this kind's; else why not.
    fn check(self, value: &str) -> Result<String, String> {
        match self {
            Bare | Text => Ok(value.to_string()),
            Int(min, max) => match value.parse::<u64>() {
                Err(_) => Err(format!("{value:?} is not an integer")),
                Ok(n) if n < min => Err(format!("must be at least {min}, got {n}")),
                Ok(n) if n > max => Err(format!("must be at most {max}, got {n}")),
                Ok(_) => Ok(value.to_string()),
            },
            Num(max) => match value.parse::<f64>() {
                Ok(x) if (0.0..=max).contains(&x) => Ok(value.to_string()),
                Ok(x) if x.is_finite() && x > max => Err(format!("must be in [0, {max}], got {x}")),
                _ => Err(format!("{value:?} is not a non-negative number")),
            },
            Switch => match value {
                "on" | "true" => Ok("true".into()),
                "off" | "false" => Ok("false".into()),
                _ => Err(format!("expected on or off, got {value:?}")),
            },
        }
    }
}

/// One flag: its name, the commands that take it, what its value must be
/// and its default when that is a constant.
type Flag = (
    &'static str,
    &'static [&'static str],
    Kind,
    Option<&'static str>,
);

/// The most threads `serve --threads` or `eval --eval-threads` may start:
/// more is a usage error, not a panic in a thread scope when the OS refuses
/// one.
const MAX_THREADS: u64 = 256;

/// No bound but the width of the `usize` a count is read as.
const ANY: u64 = usize::MAX as u64;
/// The commands that read a dataset: all but `ps-server`, whose shard comes
/// from its `--config`.
const DATA: &[&str] = &["stats", "partition", "train", "eval", "serve"];
const MODELS: &[&str] = &["train", "eval", "serve"];

/// Every flag of every command.
const FLAGS: &[Flag] = &[
    ("data", DATA, Text, None),
    ("synthetic", DATA, Text, None),
    ("seed", DATA, Int(0, u64::MAX), Some("42")),
    ("parts", &["partition"], Int(1, ANY), Some("4")),
    ("system", &["train"], Text, Some("hetkg-d")),
    ("model", MODELS, Text, Some("transe")),
    ("dim", MODELS, Int(1, ANY), Some("64")),
    ("epochs", &["train"], Int(1, ANY), Some("10")),
    ("machines", &["train"], Int(1, ANY), Some("4")),
    ("out", &["train"], Text, Some("hetkg-model.bin")),
    ("no-overlap", &["train"], Bare, None),
    ("compress", &["train"], Text, Some("off")),
    ("report", &["train", "serve"], Text, None),
    ("transport", &["train"], Text, Some("sim")),
    ("fault-profile", &["train"], Text, Some("none")),
    ("replication", &["train"], Int(1, ANY), None),
    ("checkpoint-every", &["train"], Int(0, ANY), Some("0")),
    ("integrity", &["train"], Switch, Some("on")),
    ("checkpoint-dir", &["train", "serve"], Text, None),
    ("max-restarts", &["train"], Int(0, u32::MAX as u64), None),
    ("oracle", &["train"], Switch, Some("off")),
    ("checkpoint", &["eval", "serve"], Text, None),
    ("candidates", &["eval"], Int(1, ANY), Some("500")),
    ("eval-threads", &["eval"], Int(1, MAX_THREADS), Some("1")),
    ("shards", &["serve"], Int(1, ANY), Some("4")),
    ("threads", &["serve"], Int(1, MAX_THREADS), Some("2")),
    ("queries", &["serve"], Int(1, ANY), Some("10000")),
    ("warmup", &["serve"], Int(0, ANY), Some("2000")),
    ("topk", &["serve"], Int(1, ANY), Some("10")),
    ("topk-share", &["serve"], Num(1.0), Some("0.02")),
    ("zipf", &["serve"], Num(f64::MAX), Some("1.0")),
    ("cache-rows", &["serve"], Int(0, ANY), None),
    ("warm", &["serve"], Switch, Some("off")),
    ("think-us", &["serve"], Int(0, ANY), Some("0")),
    ("reload-ms", &["serve"], Int(0, ANY), Some("0")),
    ("config", &["ps-server"], Text, None),
    ("shard", &["ps-server"], Int(0, ANY), None),
    ("listen", &["ps-server"], Text, None),
];

/// A command's flags, each one it takes with a value its kind allows.
struct Flags(HashMap<&'static str, String>);

/// Check `args` against [`FLAGS`] — a typo'd flag must fail loudly, not
/// silently train with defaults — before anything loads.
fn parse_flags(command: &'static str, args: &[String]) -> Result<Flags, CliError> {
    let mut values = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(CliError::UnexpectedArg(arg.clone()));
        };
        let taken = |(n, commands, ..): &&Flag| *n == name && commands.contains(&command);
        let Some(&(name, _, kind, _)) = FLAGS.iter().find(taken) else {
            return Err(CliError::UnknownFlag {
                command,
                flag: name.to_string(),
            });
        };
        let value = match kind {
            Bare => String::new(),
            kind => {
                let value = it.next().ok_or(CliError::MissingValue(name))?;
                let bad = |message| CliError::BadFlag {
                    flag: name,
                    message,
                };
                kind.check(value).map_err(bad)?;
                value.clone()
            }
        };
        values.insert(name, value);
    }
    Ok(Flags(values))
}

impl Flags {
    /// `--name`'s value if it was given, as a `T`.
    fn given<T: FromStr>(&self, name: &str) -> Option<T> {
        self.0.get(name).map(|value| read(name, value))
    }

    /// `--name`'s value, or its default from [`FLAGS`], as a `T`.
    fn get<T: FromStr>(&self, name: &str) -> T {
        let value = self.0.get(name).map(String::as_str).or(spec(name).3);
        read(name, value.expect("a flag read with `get` has a default"))
    }

    /// `--name`'s value as a `T`; a usage error if it was not given.
    fn required<T: FromStr>(&self, name: &'static str) -> Result<T, CliError> {
        self.given(name).ok_or(CliError::MissingFlag(name))
    }
}

/// `--name`'s entry of [`FLAGS`].
fn spec(name: &str) -> &'static Flag {
    let flag = FLAGS.iter().find(|(n, ..)| *n == name);
    flag.unwrap_or_else(|| panic!("--{name} is not in FLAGS"))
}

/// `value`, a checked value of `--name`, as a `T`.
fn read<T: FromStr>(name: &str, value: &str) -> T {
    let value = spec(name).2.check(value).ok().and_then(|v| v.parse().ok());
    value.unwrap_or_else(|| panic!("--{name}: a value not of the type it is read as"))
}

/// Where a command's dataset comes from, checked before anything loads.
enum Source {
    /// `--data DIR`: FB15k-format files.
    Dir(String),
    /// `--synthetic NAME`: a harness-scale generator.
    Synthetic(SyntheticKg),
}

fn source(flags: &Flags) -> Result<Source, CliError> {
    match (flags.given("data"), flags.given::<String>("synthetic")) {
        (Some(dir), None) => Ok(Source::Dir(dir)),
        (None, Some(name)) => datasets::harness(&name)
            .map(Source::Synthetic)
            .ok_or_else(|| CliError::BadFlag {
                flag: "synthetic",
                message: format!("unknown dataset {name:?} (fb15k | wn18 | freebase86m)"),
            }),
        (data, _) => Err(CliError::BadFlag {
            flag: "data",
            message: format!(
                "pass --data DIR or --synthetic NAME{}",
                if data.is_some() { ", not both" } else { "" }
            ),
        }),
    }
}

impl Source {
    /// Load the files, or build the graph at `seed` and split it 90/5/5.
    fn load(self, seed: u64) -> Result<Benchmark, CliError> {
        match self {
            Source::Dir(dir) => load_benchmark(Path::new(&dir))
                .map_err(|e| CliError::Runtime(format!("loading {dir}: {e}"))),
            Source::Synthetic(generator) => {
                let graph = generator.build(seed);
                let Split { train, valid, test } = Split::ninety_five_five(&graph, seed);
                let dict = Dictionary::default();
                Ok(Benchmark {
                    graph,
                    train,
                    valid,
                    test,
                    dict,
                })
            }
        }
    }
}

/// A model by the lower-cased name it displays as; `transe` is TransE-L2.
fn parse_model(name: &str) -> Result<ModelKind, CliError> {
    let name = name.to_lowercase();
    let wanted = if name == "transe" { "transe-l2" } else { &name };
    let found = ModelKind::all()
        .into_iter()
        .find(|m| m.to_string().to_lowercase() == wanted);
    found.ok_or_else(|| CliError::BadFlag {
        flag: "model",
        message: format!("unknown model {name:?}"),
    })
}

/// Refuse a checkpoint whose row widths are not `model`'s.
fn check_widths(model: &dyn KgeModel, (e, r): (usize, usize)) -> Result<(), CliError> {
    if (e, r) == (model.entity_dim(), model.relation_dim()) {
        return Ok(());
    }
    Err(CliError::Runtime(format!(
        "checkpoint widths (e{e}, r{r}) do not match {} at d={} (e{}, r{})",
        model.name(),
        model.base_dim(),
        model.entity_dim(),
        model.relation_dim()
    )))
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
    if value == "none" {
        return Ok(None);
    }
    if let Some(plan) = FaultPlan::preset(value, seed) {
        return Ok(Some(plan));
    }
    let raw = std::fs::read_to_string(value).map_err(|e| CliError::BadFlag {
        flag: "fault-profile",
        message: format!(
            "not a preset (none | {}) and reading {value:?} failed: {e}",
            PRESETS.join(" | ")
        ),
    })?;
    let plan: FaultPlan = serde_json::from_str(&raw).map_err(|e| CliError::BadFlag {
        flag: "fault-profile",
        message: format!("{value:?} is not a valid FaultPlan: {e}"),
    })?;
    Ok(Some(plan))
}

fn cmd_stats(flags: &Flags) -> Result<(), CliError> {
    let data = source(flags)?.load(flags.get("seed"))?;
    let kg = &data.graph;
    println!(
        "entities {} | relations {} | triples {} (train {} / valid {} / test {})",
        kg.num_entities(),
        kg.num_relations(),
        kg.num_triples(),
        data.train.len(),
        data.valid.len(),
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

fn cmd_partition(flags: &Flags) -> Result<(), CliError> {
    let (parts, seed) = (flags.get("parts"), flags.get("seed"));
    let data = source(flags)?.load(seed)?;
    println!("{:<12} {:>10} {:>9}", "partitioner", "edge cut", "balance");
    let metis = MetisLike::new(seed).partition(&data.graph, parts);
    let random = RandomPartitioner::new(seed).partition(&data.graph, parts);
    for (name, p) in [("metis-like", metis), ("random", random)] {
        println!(
            "{:<12} {:>9.1}% {:>9.2}",
            name,
            100.0 * quality::cut_fraction(&data.graph, &p),
            quality::balance(&p)
        );
    }
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), CliError> {
    let source = source(flags)?;
    let mut cfg = TrainConfig::small(parse_system(&flags.get::<String>("system"))?);
    cfg.model = parse_model(&flags.get::<String>("model"))?;
    cfg.dim = flags.get("dim");
    cfg.epochs = flags.get("epochs");
    cfg.machines = flags.get("machines");
    cfg.seed = flags.get("seed");
    cfg.eval_candidates = None;
    let profile: String = flags.get("fault-profile");
    cfg.faults = parse_fault_profile(&profile, cfg.seed)?;
    // The failover profile permanently kills a primary, so it defaults
    // replication on; a kill with no backup to promote would abort the run.
    let failover = profile == "failover";
    cfg.replication = flags
        .given("replication")
        .unwrap_or(if failover { 2 } else { 1 });
    if failover && cfg.replication < 2 {
        return Err(CliError::BadFlag {
            flag: "replication",
            message: "the failover profile permanently kills a primary; it needs \
                      --replication 2 or more (a backup to promote)"
                .into(),
        });
    }
    cfg.checkpoint_every = flags.get("checkpoint-every");
    cfg.integrity = flags.get("integrity");
    if let Some(dir) = flags.given::<String>("checkpoint-dir") {
        // The trainer opens the same store before its first epoch and
        // panics if it cannot; refuse the flag here instead.
        CheckpointStore::open(&dir, 1).map_err(|e| CliError::BadFlag {
            flag: "checkpoint-dir",
            message: format!("cannot keep recovery checkpoints in {dir:?}: {e}"),
        })?;
        cfg.checkpoint_dir = Some(dir);
    }
    if let Some(budget) = flags.given("max-restarts") {
        cfg.supervisor.max_restarts = budget;
    }
    cfg.overlap = flags.given::<String>("no-overlap").is_none();
    let compress: String = flags.get("compress");
    cfg.compression =
        het_kg::netsim::CompressionMode::parse(&compress).ok_or_else(|| CliError::BadFlag {
            flag: "compress",
            message: format!("unknown mode {compress:?} (off | int8 | int4 | topk | adaptive)"),
        })?;
    let transport: String = flags.get("transport");
    let transports = [TransportKind::Sim, TransportKind::Tcp, TransportKind::Uds];
    let named = transports.into_iter().find(|t| t.to_string() == transport);
    cfg.transport = named.ok_or_else(|| CliError::BadFlag {
        flag: "transport",
        message: format!("unknown transport {transport:?} (sim | tcp | uds)"),
    })?;
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
    let oracle_on = flags.get("oracle");
    let data = source.load(cfg.seed)?;

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
        let (verdict, store) = oracle::shadow_check_with_store(&data.graph, &data.train, &cfg);
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
        trainer::train_with_store(&data.graph, &data.train, &[], &cfg)
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

    let out: PathBuf = flags.get("out");
    let ck = trainer::checkpoint(&store, data.graph.key_space());
    ck.save(&out)
        .map_err(|e| CliError::Runtime(format!("saving checkpoint: {e}")))?;
    println!("checkpoint written to {}", out.display());
    if let Some(path) = flags.given::<String>("report") {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::Runtime(format!("serializing the train report: {e}")))?;
        std::fs::write(&path, json)
            .map_err(|e| CliError::Runtime(format!("writing report {path}: {e}")))?;
        println!("report written to {path}");
    }
    Ok(())
}

/// Run one PS shard process: load the serialized [`ShardServerConfig`],
/// bind the requested listener, print the readiness handshake on stdout
/// (the spawning trainer blocks on it), then serve until a shutdown frame
/// arrives on the wire.
fn cmd_ps_server(flags: &Flags) -> Result<(), CliError> {
    let path: String = flags.required("config")?;
    let shard: usize = flags.required("shard")?;
    let listen: String = flags.required("listen")?;
    let raw = std::fs::read_to_string(&path)
        .map_err(|e| CliError::Runtime(format!("reading shard config {path}: {e}")))?;
    let config: ShardServerConfig = serde_json::from_str(&raw)
        .map_err(|e| CliError::Runtime(format!("{path} is not a valid shard config: {e}")))?;
    let shards = config.num_shards;
    if shard >= shards {
        return Err(CliError::BadFlag {
            flag: "shard",
            message: format!("shard {shard} out of range (config has {shards})"),
        });
    }
    let listener = het_kg::ps::ShardListener::bind(&listen)
        .map_err(|e| CliError::Runtime(format!("binding {listen}: {e}")))?;
    let spec = listener
        .local_spec()
        .map_err(|e| CliError::Runtime(format!("resolving listen address: {e}")))?;
    // The handshake line must hit the pipe before the trainer's read, so
    // flush past stdout's buffering explicitly.
    println!("{}{spec}", het_kg::ps::server::READY_PREFIX);
    std::io::Write::flush(&mut std::io::stdout())
        .map_err(|e| CliError::Runtime(format!("flushing readiness handshake: {e}")))?;
    het_kg::ps::serve(&config, shard, &listener)
        .map_err(|e| CliError::Runtime(format!("ps-server shard {shard}: {e}")))
}

fn cmd_eval(flags: &Flags) -> Result<(), CliError> {
    let source = source(flags)?;
    let path: PathBuf = flags.required("checkpoint")?;
    let model = parse_model(&flags.get::<String>("model"))?.build(flags.get("dim"));
    let candidates: usize = flags.get("candidates");
    let data = source.load(flags.get("seed"))?;
    let ck = Checkpoint::load(&path)
        .map_err(|e| CliError::Runtime(format!("loading checkpoint: {e}")))?;
    check_widths(model.as_ref(), (ck.entities.dim(), ck.relations.dim()))?;
    let snapshot = EmbeddingSnapshot::new(ck.entities, ck.relations);
    // Metrics are bit-identical for any thread count (ranks land in fixed
    // slots; aggregation replays them in protocol order on one thread).
    let breakdown = evaluate_breakdown_threaded(
        model.as_ref(),
        &snapshot,
        &data.test,
        data.graph.triples(),
        &EvalConfig {
            filtered: true,
            max_candidates: Some(candidates.min(data.graph.num_entities())),
            seed: 0,
        },
        flags.get("eval-threads"),
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

fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let model = parse_model(&flags.get::<String>("model"))?.build(flags.get("dim"));
    let dim = model.base_dim();
    let shards = flags.get("shards");
    let dir = flags.given::<PathBuf>("checkpoint-dir");
    let path = match (flags.given::<PathBuf>("checkpoint"), &dir) {
        (Some(_), Some(_)) => {
            return Err(CliError::BadFlag {
                flag: "checkpoint",
                message: "pass either --checkpoint or --checkpoint-dir, not both".into(),
            })
        }
        (None, None) => return Err(CliError::MissingFlag("checkpoint")),
        (path, _) => path,
    };
    let reload_ms: u64 = flags.get("reload-ms");
    if reload_ms > 0 && dir.is_none() {
        return Err(CliError::BadFlag {
            flag: "reload-ms",
            message: "hot reload needs --checkpoint-dir (a manifest store to poll)".into(),
        });
    }
    // Warming pre-admits by *training-data* hotness — the same statistic
    // the training cache builds its hot set from — so it needs the dataset.
    let warm_from = flags
        .get::<bool>("warm")
        .then(|| source(flags))
        .transpose()?;
    let cfg = LoadGenConfig {
        threads: flags.get("threads"),
        queries_per_thread: flags.get("queries"),
        warmup_per_thread: flags.get("warmup"),
        topk_share: flags.get("topk-share"),
        k: flags.get("topk"),
        zipf_exponent: flags.get("zipf"),
        seed: flags.get("seed"),
        think_us: flags.get("think-us"),
    };

    let snapshot = match (path, &dir) {
        (Some(path), _) => {
            let ck = Checkpoint::load(&path)
                .map_err(|e| CliError::Runtime(format!("loading checkpoint: {e}")))?;
            ServingSnapshot::from_checkpoint(&ck, 0, 0, shards)
        }
        (None, Some(dir)) => ServingSnapshot::load_latest(dir, shards)
            .map_err(|e| CliError::Runtime(e.to_string()))?,
        (None, None) => unreachable!("one of the two, checked above"),
    };
    let widths = (snapshot.entities.dim(), snapshot.relations.dim());
    check_widths(model.as_ref(), widths)?;
    let (entities, relations) = (snapshot.entities.rows(), snapshot.relations.rows());
    let (snap_seq, snap_epoch) = (snapshot.seq, snapshot.epoch);
    if entities == 0 || relations == 0 {
        return Err(CliError::Runtime(
            "checkpoint has no entities or no relations to serve".into(),
        ));
    }
    let cache_rows = flags.given("cache-rows").unwrap_or((entities / 4).max(8));
    let model_name = model.name();
    let cell = std::sync::Arc::new(SnapshotCell::new(snapshot));
    let engine = ServeEngine::new(cell.clone(), model, cache_rows)
        .map_err(|e| CliError::Runtime(e.to_string()))?;

    if let Some(source) = warm_from {
        let data = source.load(cfg.seed)?;
        let mut counter = AccessCounter::new(data.graph.key_space());
        counter.record_batch(data.graph.triples());
        let counts = &counter.counts()[..data.graph.num_entities().min(entities)];
        let snap = engine.snapshot();
        engine.cache().warm(counts, snap.seq, |id| {
            snap.entities.row(id as usize).to_vec()
        });
        println!(
            "warmed {} rows from training-data hotness",
            engine.cache().admits()
        );
    }

    let reloader = dir.filter(|_| reload_ms > 0).map(|dir| {
        let every = std::time::Duration::from_millis(reload_ms);
        SnapshotReloader::spawn(cell.clone(), dir, shards, every)
    });

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
    // Deterministic per (seed, snapshot, thread count): CI pins it across runs.
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

    if let Some(path) = flags.given::<String>("report") {
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
        std::fs::write(&path, report.to_json())
            .map_err(|e| CliError::Runtime(format!("writing report {path}: {e}")))?;
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
    fn an_uncreatable_checkpoint_dir_is_a_bad_flag_not_a_panic() {
        // A directory below a regular file cannot be created.
        let file = std::env::temp_dir().join(format!("hetkg-ck-file-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let dir = file.join("ck");
        let line = format!("train --synthetic wn18 --checkpoint-dir {}", dir.display());
        let result = run(args(&line));
        std::fs::remove_file(&file).unwrap();
        match result {
            Err(
                err @ CliError::BadFlag {
                    flag: "checkpoint-dir",
                    ..
                },
            ) => {
                assert_eq!(err.exit_code(), 2);
                assert!(err.to_string().starts_with("--checkpoint-dir: "), "{err}");
            }
            other => panic!("an uncreatable --checkpoint-dir was not refused: {other:?}"),
        }
    }

    /// `run(line)`'s error, which must be a usage error (exit 2) naming `flag`.
    fn refused_flag(line: &str) -> &'static str {
        match run(args(line)) {
            Err(err @ CliError::BadFlag { flag, .. }) => {
                assert_eq!(err.exit_code(), 2, "{line}: {err}");
                flag
            }
            other => panic!("{line}: not refused as a bad flag: {other:?}"),
        }
    }

    #[test]
    fn no_dataset_or_two_of_them_is_a_usage_error() {
        assert_eq!(refused_flag("train --epochs 1"), "data");
        assert_eq!(refused_flag("eval --checkpoint ck.bin"), "data");
        let both = "train --synthetic wn18 --data no-such-dir --epochs 1";
        assert_eq!(refused_flag(both), "data");
        // `serve` needs a dataset only to warm its cache from, and says so
        // before it loads the checkpoint, which does not exist.
        assert_eq!(
            refused_flag("serve --checkpoint no-such.bin --warm on"),
            "data"
        );
        // A shard reads no dataset: its `--config` says what it serves.
        match run(args("ps-server --synthetic fb15k")) {
            Err(CliError::UnknownFlag { flag, .. }) => assert_eq!(flag, "synthetic"),
            other => panic!("ps-server took a dataset: {other:?}"),
        }
    }

    #[test]
    fn a_thread_count_above_the_ceiling_is_refused_before_anything_loads() {
        // Neither the checkpoint nor a dataset exists: a refusal of the
        // thread count is the proof that nothing was loaded or spawned.
        let n = MAX_THREADS + 1;
        let serve = format!("serve --checkpoint no-such.bin --threads {n}");
        assert_eq!(refused_flag(&serve), "threads");
        let eval = format!("eval --checkpoint no-such.bin --eval-threads {n}");
        assert_eq!(refused_flag(&eval), "eval-threads");
        let at_ceiling = format!("serve --checkpoint no-such.bin --threads {MAX_THREADS}");
        assert!(matches!(run(args(&at_ceiling)), Err(CliError::Runtime(_))));
    }

    #[test]
    fn a_restart_budget_above_u32_is_refused_not_truncated() {
        // Cast to u32, 2^32 was a budget of 0 and 2^32 + 3 one of 3.
        for n in ["4294967296", "4294967299"] {
            let line = format!("train --data no-such-dir --max-restarts {n}");
            assert_eq!(refused_flag(&line), "max-restarts");
        }
        let at_ceiling = "train --data no-such-dir --max-restarts 4294967295";
        assert!(matches!(run(args(at_ceiling)), Err(CliError::Runtime(_))));
    }

    /// The inputs of a line that must be refused before it loads anything:
    /// none of them exists.
    fn missing_inputs(command: &str) -> &'static str {
        match command {
            "eval" | "serve" => "--data no-such-dir --checkpoint no-such.bin",
            "ps-server" => "--config no-such.json",
            _ => "--data no-such-dir",
        }
    }

    #[test]
    fn every_checked_flag_refuses_bad_values_before_anything_loads() {
        for &(name, commands, kind, _) in FLAGS {
            // Values each command must refuse, and bounded maxima it must
            // accept (then fail on the missing input, exit 1).
            let (bad, edge): (Vec<String>, Vec<String>) = match kind {
                Int(min, max) => (
                    vec![
                        "x".into(),
                        "1.5".into(),
                        min.checked_sub(1).map_or("-1".into(), |n| n.to_string()),
                        (u128::from(max) + 1).to_string(),
                    ],
                    (max < ANY).then(|| max.to_string()).into_iter().collect(),
                ),
                Num(max) => (
                    vec![
                        "x".into(),
                        "-1".into(),
                        "NaN".into(),
                        (2.0 * max).to_string(),
                    ],
                    (max < f64::MAX)
                        .then(|| max.to_string())
                        .into_iter()
                        .collect(),
                ),
                Switch => (vec!["maybe".into(), "1".into()], vec![]),
                Bare | Text => continue,
            };
            for command in commands {
                let inputs = missing_inputs(command);
                for value in &bad {
                    let line = format!("{command} {inputs} --{name} {value}");
                    assert_eq!(refused_flag(&line), name, "{line}");
                }
                for value in &edge {
                    let line = format!("{command} {inputs} --{name} {value}");
                    assert!(
                        matches!(run(args(&line)), Err(CliError::Runtime(_))),
                        "{line}"
                    );
                }
            }
        }
        // Names checked in code, also before anything loads.
        for (command, name) in [
            ("train", "system"),
            ("train", "model"),
            ("eval", "model"),
            ("serve", "model"),
            ("train", "compress"),
            ("train", "transport"),
            ("train", "fault-profile"),
        ] {
            let line = format!(
                "{command} {} --{name} no-such-word",
                missing_inputs(command)
            );
            assert_eq!(refused_flag(&line), name, "{line}");
        }
        assert_eq!(refused_flag("stats --synthetic no-such-word"), "synthetic");
    }

    #[test]
    fn every_default_is_a_value_of_its_flag_and_commands_exist() {
        for &(name, commands, kind, default) in FLAGS {
            if let Some(default) = default {
                assert!(kind.check(default).is_ok(), "--{}: {default}", name);
            }
            for command in commands {
                assert!(
                    COMMANDS.iter().any(|(name, _)| name == command),
                    "{command}"
                );
            }
        }
    }

    #[test]
    fn usage_names_the_flags_of_the_table() {
        let mut named: Vec<&str> = USAGE
            .split("--")
            .skip(1)
            .map(|rest| {
                let end = rest.find(|c: char| !(c.is_ascii_lowercase() || c == '-'));
                &rest[..end.unwrap_or(rest.len())]
            })
            .collect();
        named.sort_unstable();
        named.dedup();
        // `ps-server`'s flags are the spawning trainer's hand-off, not help.
        let hand_off = ["config", "shard", "listen"];
        let mut table: Vec<&str> = FLAGS
            .iter()
            .map(|f| f.0)
            .filter(|n| !hand_off.contains(n))
            .collect();
        table.sort_unstable();
        assert_eq!(named, table);
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

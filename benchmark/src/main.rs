//! The repo's wall-clock benchmark: four long single-threaded workloads,
//! timed from outside through public functions only (see `api.rs`).
//!
//! ```text
//! hetkg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Prints every metric by name with its unit, the output checks, one
//! `record {json}` line for `repeat.sh`, and as the last line the JSON object
//! the driver reads. Exits non-zero if any check fails. See README.md.

mod api;
mod host;
mod probes;
mod report;
mod serve;
mod trace;
mod train;

use report::{Record, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 4] = [
    "train-hetkg-skew",
    "train-dglke-skew",
    "train-uds-flat",
    "serve-zipf-reload",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// 1/20-scale smoke run: every code path and check, no numbers.
    pub quick: bool,
}

impl Args {
    /// Divisor applied to graph, table and request-array sizes.
    pub fn scale(&self) -> usize {
        if self.quick {
            20
        } else {
            1
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 20,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            // Two busy client threads on this host's two shared vCPUs
            // repeated to ±3 %, one to ±0.5 %: no scaling number is emitted.
            "--threads" if number()? != 1 => {
                return Err("--threads: load comes from one client thread; \
                            this benchmark reports no thread-scaling number"
                    .into())
            }
            "--threads" => {}
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Where the benchmark may write: checkpoints, traces, last-run notes.
pub fn out_dir() -> PathBuf {
    std::env::var_os("HETKG_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// The root package's `hetkg` binary, whose `ps-server` subcommand the
/// socket transport spawns (`run.sh` builds it and sets `HETKG_BIN`).
pub fn ps_server_bin() -> String {
    std::env::var("HETKG_BIN").unwrap_or_else(|_| "target/release/hetkg".into())
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

/// The spans whose duration an end-to-end metric is computed from.
const TIMED_PHASES: [&str; 4] = [
    "train.call",
    "serve.phase_l",
    "serve.phase_k",
    "serve.phase_r",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hetkg-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!(
            "hetkg-benchmark: cannot create {}: {e}",
            out_dir().display()
        );
        return ExitCode::from(2);
    }
    println!(
        "# hetkg-benchmark workload={} seed={} seconds={} trace={} quick={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.quick
    );

    let mut rec = Record::default();
    rec.fact("workload", &args.workload);
    rec.fact("seed", args.seed);
    rec.fact("seconds", args.seconds);
    rec.fact("traced", args.trace);
    rec.fact("host_parallelism", host::parallelism());
    rec.fact("cpu_model", host::cpu_model());
    rec.fact("rustc", env_or_unknown("HETKG_BENCH_RUSTC"));
    rec.fact("git_commit", env_or_unknown("HETKG_BENCH_COMMIT"));
    rec.fact(
        "profile",
        "release, lto=thin (copied from the root manifest)",
    );
    rec.fact("client_threads", 1);

    let mut tr = Tracer::new(args.trace);
    match args.workload.as_str() {
        "train-hetkg-skew" => train::run(&train::HETKG_SKEW, &args, &mut tr, &mut rec),
        "train-dglke-skew" => train::run(&train::DGLKE_SKEW, &args, &mut tr, &mut rec),
        "train-uds-flat" => train::run(&train::UDS_FLAT, &args, &mut tr, &mut rec),
        _ => serve::run(&args, &mut tr, &mut rec),
    }
    let complete = rec.end_to_end_complete();
    rec.check(
        "end_to_end_complete",
        complete.is_ok(),
        complete
            .err()
            .unwrap_or_else(|| "every metric measured or n/a".into()),
    );

    if args.trace {
        // Traced and untraced runs execute the same code except that a
        // traced `begin`/`end` keeps a span. So the traced-minus-untraced
        // wall of the timed phases is the spans recorded inside them times
        // what keeping one costs, and both factors are measured in this
        // invocation; two whole runs differ by several per cent of noise,
        // which would bury it.
        let (spans, timed_s) = tr.inside(&TIMED_PHASES);
        rec.set(
            "trace.overhead_frac",
            if timed_s > 0.0 {
                spans as f64 * Tracer::span_cost_s() / timed_s
            } else {
                0.0
            },
        );
        rec.fact("spans", tr.len());
        rec.fact("spans_in_timed_phases", spans);
        let path = out_dir().join(format!("trace-{}.json", args.workload));
        match std::fs::write(&path, tr.chrome_json(&args.workload, args.seed)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => rec.check("trace_written", false, e.to_string()),
        }
    }

    let correct = rec.correct();
    if args.quick {
        // A smoke run says only whether every path ran and every check held.
        rec.print_checks();
        println!(
            "quick {} {}",
            args.workload,
            if correct { "ok" } else { "FAILED" }
        );
    } else {
        rec.print();
        println!("record {}", rec.json());
        println!(
            "{}",
            rec.driver_json(if args.trace { PER_LAYER } else { END_TO_END })
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

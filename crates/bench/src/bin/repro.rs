//! `repro` — regenerate every table and figure of the HET-KG paper.
//!
//! ```text
//! repro <experiment-id> [--full] [--quick] [--seed N]
//! repro all [--quick]            # run everything, in paper order
//! repro --list                   # list experiment ids
//! ```
//!
//! Results print as text tables and are also saved as JSON under
//! `experiments/` for EXPERIMENTS.md. `ledger` is not a paper experiment:
//! it records fixed runs bit for bit, whatever the flags (see
//! `experiments::ledger`).

use hetkg_bench::experiments::{self, ExpCtx, ALL};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _) in ALL {
            println!("{id}");
        }
        return;
    }
    let mut ctx = ExpCtx::default();
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => ctx.full = true,
            "--quick" => ctx.quick = true,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--seed needs a value");
                    std::process::exit(2);
                });
                ctx.seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed needs an integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL.iter().map(|(id, _)| id.to_string()).collect();
    }
    if ids.is_empty() {
        usage();
        std::process::exit(2);
    }
    let mut failed = false;
    for id in &ids {
        match experiments::run(id, ctx) {
            Some(record) => {
                experiments::print_record(&record);
                match record.save() {
                    Ok(path) => println!("saved {}\n", path.display()),
                    Err(e) => eprintln!("could not save record for {id}: {e}"),
                }
            }
            None => {
                eprintln!("unknown experiment {id:?}; try --list");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn usage() {
    println!("repro — regenerate the HET-KG paper's tables and figures\n");
    println!("usage: repro <experiment-id>... [--full] [--quick] [--seed N]");
    println!("       repro all [--quick]");
    println!("       repro --list\n");
    println!("experiments (paper order, then the behaviour ledger):");
    for (id, _) in ALL {
        println!("  {id}");
    }
    println!("\nflags:");
    println!("  --full   published dataset sizes (slow; Freebase stays 1/86-scaled)");
    println!("  --quick  clamp epochs to 2 for smoke runs");
    println!("  --seed N master seed (default 42)");
    println!("(the ledger's runs are fixed: no flag changes them)");
}

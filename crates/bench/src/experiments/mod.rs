//! One function per table/figure of the paper's evaluation section.
//!
//! Every experiment prints a rendered table and returns an
//! [`ExperimentRecord`](crate::record::ExperimentRecord) the binary saves to
//! `experiments/<id>.json`. Absolute numbers differ from the paper (the
//! substrate is a simulator at harness scale); each record carries the
//! *shape expectation* that should hold.

pub mod ablations;
pub mod accuracy;
pub mod cache;
pub mod efficiency;
pub mod motivation;

use crate::record::ExperimentRecord;

/// Shared experiment context.
#[derive(Debug, Clone, Copy)]
pub struct ExpCtx {
    /// Use published dataset sizes instead of harness scale (slow).
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Shrink epoch counts for smoke runs.
    pub quick: bool,
}

impl Default for ExpCtx {
    fn default() -> Self {
        Self {
            full: false,
            seed: 42,
            quick: false,
        }
    }
}

impl ExpCtx {
    /// Epoch count: the experiment's default, clamped for `--quick` runs.
    pub fn epochs(&self, default: usize) -> usize {
        if self.quick {
            default.min(2)
        } else {
            default
        }
    }
}

/// All experiment ids, in paper order (used by `repro all` and `--list`).
pub const ALL: &[&str] = &[
    "table1",
    "fig2",
    "table3",
    "table4",
    "table5",
    "fig5",
    "fig6",
    "fig7",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig9",
    "table6",
    "table7",
    "partition-ablation",
    "negsample-ablation",
    "divergence",
    "bandwidth-sweep",
    "compression-ablation",
    "dps-admission",
    "pipeline-split",
    "write-back",
];

/// Run one experiment by id.
pub fn run(id: &str, ctx: ExpCtx) -> Option<ExperimentRecord> {
    let record = match id {
        "table1" => motivation::table1(ctx),
        "fig2" => motivation::fig2(ctx),
        "table3" => accuracy::table3(ctx),
        "table4" => accuracy::table4(ctx),
        "table5" => accuracy::table5(ctx),
        "fig5" => efficiency::fig5(ctx),
        "fig6" => efficiency::fig6(ctx),
        "fig7" => efficiency::fig7(ctx),
        "fig8a" => cache::fig8a(ctx),
        "fig8b" => cache::fig8b(ctx),
        "fig8c" => cache::fig8c(ctx),
        "fig9" => cache::fig9(ctx),
        "table6" => cache::table6(ctx),
        "table7" => cache::table7(ctx),
        "partition-ablation" => ablations::partition(ctx),
        "negsample-ablation" => ablations::negsample(ctx),
        "divergence" => cache::divergence(ctx),
        "bandwidth-sweep" => ablations::bandwidth(ctx),
        "compression-ablation" => ablations::compression(ctx),
        "dps-admission" => cache::dps_admission(ctx),
        "pipeline-split" => efficiency::pipeline_split(ctx),
        "write-back" => efficiency::write_back(ctx),
        _ => return None,
    };
    Some(record)
}

/// Print a record's table and shape note to stdout.
pub fn print_record(r: &ExperimentRecord) {
    println!("== {} — {} ==", r.id, r.title);
    if !r.params.is_empty() {
        println!("{}", r.params);
    }
    println!();
    print!("{}", crate::render::table(&r.columns, &r.rows));
    println!("\nshape: {}\n", r.shape_expectation);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_returns_none() {
        assert!(run("not-an-experiment", ExpCtx::default()).is_none());
    }

    #[test]
    fn quick_clamps_epochs() {
        let ctx = ExpCtx {
            quick: true,
            ..Default::default()
        };
        assert_eq!(ctx.epochs(30), 2);
        let ctx = ExpCtx::default();
        assert_eq!(ctx.epochs(30), 30);
    }

    #[test]
    fn all_ids_are_known() {
        // Dispatch must recognize every listed id (run with quick to keep
        // this cheap is NOT done here — we only check the match arms exist
        // by name, which `run` does before executing; instead just assert
        // the list is non-empty and unique).
        let mut ids: Vec<&&str> = ALL.iter().collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
    }
}

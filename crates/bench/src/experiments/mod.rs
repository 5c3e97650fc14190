//! One function per table/figure of the paper's evaluation section.
//!
//! Every experiment prints a rendered table and returns an
//! [`ExperimentRecord`] the binary saves to
//! `experiments/<id>.json`. Absolute numbers differ from the paper (the
//! substrate is a simulator at harness scale); each record carries the
//! *shape expectation* that should hold.

pub mod ablations;
pub mod accuracy;
pub mod cache;
pub mod efficiency;
pub mod ledger;
pub mod motivation;

use crate::record::ExperimentRecord;
use hetkg_train::{SystemKind, TrainConfig};

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

    /// The smoke-run context the experiments' tests use.
    #[cfg(test)]
    pub(crate) const QUICK: Self = Self {
        full: false,
        seed: 42,
        quick: true,
    };

    /// `system` as most experiments train it: [`TrainConfig::small`] on 4
    /// machines at dimension `dim` for `epochs`, seeded by `--seed`.
    pub(crate) fn config(&self, system: SystemKind, dim: usize, epochs: usize) -> TrainConfig {
        let mut cfg = TrainConfig::small(system);
        (cfg.machines, cfg.dim, cfg.epochs, cfg.seed) = (4, dim, epochs, self.seed);
        cfg
    }
}

/// What runs one experiment.
pub type Experiment = fn(ExpCtx) -> ExperimentRecord;

/// Every experiment's id and the function that runs it, in paper order
/// (used by `repro all` and `--list`), then the behaviour ledger.
pub const ALL: &[(&str, Experiment)] = &[
    ("table1", motivation::table1),
    ("fig2", motivation::fig2),
    ("table3", accuracy::table3),
    ("table4", accuracy::table4),
    ("table5", accuracy::table5),
    ("fig5", efficiency::fig5),
    ("fig6", efficiency::fig6),
    ("fig7", efficiency::fig7),
    ("fig8a", cache::fig8a),
    ("fig8b", cache::fig8b),
    ("fig8c", cache::fig8c),
    ("fig9", cache::fig9),
    ("table6", cache::table6),
    ("table7", cache::table7),
    ("partition-ablation", ablations::partition),
    ("negsample-ablation", ablations::negsample),
    ("divergence", cache::divergence),
    ("bandwidth-sweep", ablations::bandwidth),
    ("compression-ablation", ablations::compression),
    ("skew-breakdown", efficiency::skew_breakdown),
    ("ledger", ledger::ledger),
];

/// Run one experiment by id.
pub fn run(id: &str, ctx: ExpCtx) -> Option<ExperimentRecord> {
    let &(_, experiment) = ALL.iter().find(|(name, _)| *name == id)?;
    Some(experiment(ctx))
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
        assert_eq!(ExpCtx::QUICK.epochs(30), 2);
        assert_eq!(ExpCtx::default().epochs(30), 30);
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = ALL.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
    }
}

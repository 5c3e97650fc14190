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

/// What runs one entry of [`ALL`]: a record per id the entry names, in order.
pub type Experiment = fn(ExpCtx) -> Vec<ExperimentRecord>;

/// Every experiment's ids and the function that runs it, in paper order
/// (used by `repro all` and `--list`), then the behaviour ledger. An entry
/// names several ids when their records read the same runs.
pub const ALL: &[(&[&str], Experiment)] = &[
    (&["table1"], |c| vec![motivation::table1(c)]),
    (&["fig2"], |c| vec![motivation::fig2(c)]),
    (&["table3"], |c| vec![accuracy::table3(c)]),
    (&["table4"], |c| vec![accuracy::table4(c)]),
    (&["table5", "fig5"], accuracy::table5_and_fig5),
    (&["fig6"], |c| vec![efficiency::fig6(c)]),
    (&["fig7"], |c| vec![efficiency::fig7(c)]),
    (&["fig8a"], |c| vec![cache::fig8a(c)]),
    (&["fig8b"], |c| vec![cache::fig8b(c)]),
    (&["fig8c"], |c| vec![cache::fig8c(c)]),
    (&["fig9"], |c| vec![cache::fig9(c)]),
    (&["table6"], |c| vec![cache::table6(c)]),
    (&["table7"], |c| vec![cache::table7(c)]),
    (&["partition-ablation"], |c| vec![ablations::partition(c)]),
    (&["negsample-ablation"], |c| vec![ablations::negsample(c)]),
    (&["divergence"], |c| vec![cache::divergence(c)]),
    (&["bandwidth-sweep"], |c| vec![ablations::bandwidth(c)]),
    (&["compression-ablation"], |c| {
        vec![ablations::compression(c)]
    }),
    (&["skew-breakdown"], |c| vec![efficiency::skew_breakdown(c)]),
    (&["ledger"], |c| vec![ledger::ledger(c)]),
];

/// Every record id, in [`ALL`]'s order.
pub fn ids() -> impl Iterator<Item = &'static str> {
    ALL.iter().flat_map(|(ids, _)| ids.iter().copied())
}

/// Run the entry of [`ALL`] that makes the record `id`: its records, `id`'s
/// among them.
pub fn run(id: &str, ctx: ExpCtx) -> Option<Vec<ExperimentRecord>> {
    let &(_, experiment) = ALL.iter().find(|(ids, _)| ids.contains(&id))?;
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
        let mut unique: Vec<&str> = ids().collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids().count());
    }
}

//! The DGL-KE baseline: plain co-located PS training (§III-B).
//!
//! Per iteration the worker (1) samples a mini-batch from its local
//! partition and corrupts it, (2) pulls *every* embedding the batch needs
//! from the parameter servers, (3) computes gradients, (4) pushes them all
//! back. No worker-side cache — this is exactly the data path whose
//! communication share Table I measures.
//!
//! With `WorkerCtx::overlap` on the loop pipelines like HET-KG's, on the same
//! `worker::Pipeline`, which states the schedule: the next batch is drawn while
//! the current one computes, every key of it pulled, its consume-time
//! request the plain pull of the keys the batch in flight writes.
//!
//! A unit of work is one iteration. The worker's `WorkerCtx` keeps the
//! epoch's books; the only stat DGL-KE adds is how the pipeline split its
//! staged pulls.

use crate::batch::BatchResult;
use crate::worker::{
    carry_accumulated, pull_late, Pipeline, PushRow, WorkerCtx, WorkerEpochStats, WorkerLoop,
};
use hetkg_core::metrics::TableEconomy;
use hetkg_core::prefetch::{MiniBatch, Prefetcher};
use hetkg_embed::negative::NegativeSampler;

/// Per-worker DGL-KE training state.
pub struct DglKeWorker {
    ctx: WorkerCtx,
    sampler: Prefetcher,
    negatives: NegativeSampler,
    /// Reusable draw buffers; a batch lives on only as its compiled plan.
    batch: MiniBatch,
    /// The staged batch, its pull, and the push in front of it.
    pipeline: Pipeline,
    /// How the pipeline split the staged pulls this epoch (the table
    /// fields stay zero: there is no table).
    economy: TableEconomy,
}

impl DglKeWorker {
    /// Build from a context; sampling seeds derive from `seed` and the
    /// worker id.
    pub fn new(ctx: WorkerCtx, negatives: NegativeSampler, seed: u64) -> Self {
        let sampler = Prefetcher::new(
            ctx.batch_size,
            ctx.key_space,
            seed ^ (ctx.worker_id as u64).wrapping_mul(0x9E37_79B9),
        );
        Self {
            ctx,
            sampler,
            negatives,
            batch: MiniBatch::default(),
            pipeline: Pipeline::default(),
            economy: TableEconomy::default(),
        }
    }

    /// Draw the next batch and stage the pull of every key of it: ahead of
    /// time where the batch in flight allows (`pull_ahead`), or all of it
    /// at consume time.
    fn stage(&mut self, pull_ahead: bool) {
        self.sampler
            .draw_into(&self.ctx.subgraph, &mut self.negatives, &mut self.batch);
        let every_key = |_, _, _| true;
        let economy = Some(&mut self.economy);
        let (ctx, batch) = (&mut self.ctx, &self.batch);
        let fresh = std::iter::empty();
        self.pipeline
            .stage(ctx, batch, pull_ahead, every_key, fresh, economy);
    }

    fn one_iteration_inner(&mut self, may_stage: bool) -> BatchResult {
        if !self.pipeline.is_staged() {
            self.stage(false);
        }
        let pull_end = self.pipeline.consume(
            &mut self.ctx,
            &mut (),
            |_, k, _, _| unreachable!("{k} staged as fresh"),
            |ctx, _, pull, keys| pull_late(ctx, pull, keys),
        );

        if may_stage && self.ctx.overlap {
            self.stage(true);
        }

        let result = self.ctx.compute();
        let compute_end = self.ctx.post_compute(result.work_units, pull_end);
        let (grads, rows) = (&self.ctx.grads, &mut self.pipeline.rows);
        rows.extend(
            grads
                .touched()
                .iter()
                .map(|&s| PushRow::grad(grads.key_at(s), s)),
        );
        self.pipeline
            .push(&mut self.ctx, |_| false, carry_accumulated, compute_end);
        result
    }
}

impl WorkerLoop for DglKeWorker {
    fn ctx(&mut self) -> &mut WorkerCtx {
        &mut self.ctx
    }

    fn unit(&mut self) -> Option<BatchResult> {
        // The last iteration never stages (per-epoch traffic stays
        // attributable to its own epoch). DGL-KE has no degraded mode: a
        // pull during an outage simply retries (the PS client waits the
        // outage out in simulated time).
        let left = self.ctx.iterations_left()?;
        Some(self.one_iteration_inner(left > 0))
    }

    fn begin_system_epoch(&mut self, _epoch: usize) {
        self.economy = TableEconomy::default();
    }

    fn system_stats(&self, stats: &mut WorkerEpochStats) {
        stats.table = self.economy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::assert_same_bytes_more_messages;
    use hetkg_embed::init::Init;
    use hetkg_embed::loss::LossKind;
    use hetkg_embed::negative::{NegConfig, NegStrategy};
    use hetkg_embed::ModelKind;
    use hetkg_kgraph::generator::SyntheticKg;
    use hetkg_netsim::{ClusterTopology, CostModel, TrafficMeter};
    use hetkg_ps::optimizer::AdaGrad;
    use hetkg_ps::{KvStore, PsClient, ShardRouter};
    use std::sync::Arc;

    fn build_worker() -> DglKeWorker {
        build_worker_with_overlap(false)
    }

    fn build_worker_with_overlap(overlap: bool) -> DglKeWorker {
        build_worker_with(overlap, CostModel::gigabit(), 60, 8)
    }

    /// One worker on two shards, training 300 triples over `entities`
    /// entities in batches of 32, rows `dim` wide.
    fn build_worker_with(
        overlap: bool,
        cost: CostModel,
        entities: usize,
        dim: usize,
    ) -> DglKeWorker {
        let g = SyntheticKg {
            num_entities: entities,
            num_relations: 4,
            num_triples: 300,
            ..Default::default()
        }
        .build(5);
        let ks = g.key_space();
        let router = ShardRouter::round_robin(ks, 2);
        let store = Arc::new(KvStore::new(
            router,
            dim,
            dim,
            1,
            Init::Uniform { bound: 0.2 },
            1,
        ));
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, ClusterTopology::new(2, 1), store, meter.clone());
        let ctx = WorkerCtx::new(
            0,
            g.triples().to_vec(),
            ks,
            client,
            meter,
            ModelKind::TransEL2.build(dim).into(),
            LossKind::Logistic,
            Arc::new(AdaGrad::new(0.1)),
            32,
        )
        .with_timing(cost, overlap);
        let negatives = NegativeSampler::new(
            entities,
            NegConfig {
                per_positive: 4,
                strategy: NegStrategy::Independent,
            },
            9,
        );
        DglKeWorker::new(ctx, negatives, 1)
    }

    #[test]
    fn epoch_runs_and_reports() {
        let mut w = build_worker();
        let stats = w.run_epoch(0);
        assert!(stats.loss_terms > 0);
        assert!(stats.loss_sum > 0.0);
        assert!(stats.traffic.total_bytes() > 0);
        assert!(stats.work_units > 0);
        assert!(stats.wall_secs >= 0.0);
        // No cache.
        assert_eq!(stats.cache.total(), 0);
        // Sequential: the epoch is the two lanes' time summed.
        let cost = CostModel::gigabit();
        let lanes = stats.traffic.simulated_time(&cost) + cost.compute_time(stats.work_units);
        assert!((stats.critical_path_secs - lanes).abs() < 1e-9);
    }

    #[test]
    fn loss_decreases_across_epochs() {
        let mut w = build_worker();
        let first = w.run_epoch(0);
        let mut last = first;
        for e in 1..8 {
            last = w.run_epoch(e);
        }
        let first_avg = first.loss_sum / first.loss_terms as f64;
        let last_avg = last.loss_sum / last.loss_terms as f64;
        assert!(
            last_avg < first_avg,
            "training must make progress: {first_avg} -> {last_avg}"
        );
    }

    #[test]
    fn every_iteration_pulls_and_pushes() {
        let mut w = build_worker();
        let stats = w.run_epoch(0);
        // 300 triples / batch 32 = 10 iterations; each produces at least one
        // pull message and one push message per touched shard.
        let msgs = stats.traffic.local_messages + stats.traffic.remote_messages;
        assert!(msgs >= 20, "expected ≥20 coalesced messages, got {msgs}");
    }

    #[test]
    fn pipelining_is_value_preserving_and_bounded() {
        let cost = CostModel::gigabit();
        let mut seq = build_worker_with_overlap(false);
        let mut pipe = build_worker_with_overlap(true);
        for e in 0..3 {
            let a = seq.run_epoch(e);
            let b = pipe.run_epoch(e);
            assert_eq!(
                a.loss_sum.to_bits(),
                b.loss_sum.to_bits(),
                "epoch {e} loss diverged under pipelining"
            );
            assert_eq!(a.work_units, b.work_units);
            // Same bytes; at a staged iteration each of the two shards may
            // be sent two frames for the batch's pull (early and late keys)
            // and two for the push in front of it (hazard part and rest).
            let staged = (pipe.ctx.iterations_per_epoch - 1) as u64;
            assert_same_bytes_more_messages(a.traffic, b.traffic, 2 * 2 * staged, "dgl-ke");
            // The split is reported (60 entities: most keys of a staged
            // batch are also in flight here, but not all).
            assert_eq!(a.table, TableEconomy::default());
            assert!(b.table.staged_early > 0 && b.table.staged_late > 0);
            let seq_lanes = a.traffic.simulated_time(&cost) + cost.compute_time(a.work_units);
            assert!((a.critical_path_secs - seq_lanes).abs() < 1e-9);
            let comm = b.traffic.simulated_time(&cost);
            let compute = cost.compute_time(b.work_units);
            assert!(b.critical_path_secs > 0.0);
            assert!(
                b.critical_path_secs + 1e-9 >= comm.max(compute),
                "epoch {e}: cp {} below max(comm {comm}, compute {compute})",
                b.critical_path_secs
            );
            assert!(
                b.critical_path_secs + 1e-9 < comm + compute,
                "epoch {e}: no overlap achieved (cp {}, comm {comm}, compute {compute})",
                b.critical_path_secs
            );
        }
    }

    /// The adaptive ladder reads the timeline in either schedule: a
    /// sequential run whose comm lane outweighs its compute tightens.
    #[test]
    fn a_comm_bound_sequential_run_tightens_the_adaptive_ladder() {
        let cost = CostModel::gigabit();
        let mut w = build_worker();
        w.ctx
            .ps
            .set_compression(hetkg_netsim::CompressionMode::Adaptive);
        let stats = w.run_epoch(0);
        let (comm, compute) = (
            stats.traffic.simulated_time(&cost),
            cost.compute_time(stats.work_units),
        );
        assert!(comm > 2.0 * compute, "comm {comm} s, compute {compute} s");
        assert_eq!(w.ctx.compression_stats().level_ups, 1);
        w.run_epoch(1);
        assert_eq!(w.ctx.compression_stats().level_ups, 2);
    }

    /// Every row and optimizer-state row of the worker's store, bit for bit.
    fn store_bits(w: &DglKeWorker) -> Vec<(u64, Vec<u32>, Vec<u32>)> {
        let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rows = Vec::new();
        w.ctx
            .client
            .store()
            .for_each_row_with_state(|k, row, state| rows.push((k.0, bits(row), bits(state))));
        rows
    }

    /// One rule, reference kept: the two-part push against the whole push
    /// it replaced. Both parts are carried where the whole push was, so
    /// losses, bytes per cause and the final store are bit-equal on any
    /// cluster; only the timeline moves, by no more than the frames the
    /// split adds cost. Which way depends on what paces: on the gigabit
    /// link these small graphs are latency-bound, and the added frames are
    /// what the split costs; on a link a hundred times narrower with
    /// compute a hundred times slower, the chain from a compute through the
    /// push to the late pull paces, as on the benchmark's graphs, and
    /// taking the rest off it makes no epoch longer.
    #[test]
    fn the_split_push_trains_what_the_whole_push_reference_does() {
        let gigabit = CostModel::gigabit();
        let paced = CostModel {
            remote_bandwidth: gigabit.remote_bandwidth / 100.0,
            local_bandwidth: gigabit.local_bandwidth / 100.0,
            compute_rate: gigabit.compute_rate / 100.0,
            ..gigabit
        };
        for cost in [gigabit, paced] {
            for (entities, dim) in [(60, 8), (2_000, 128)] {
                let what = format!("{entities} entities, {dim} wide");
                let mut split = build_worker_with(true, cost, entities, dim);
                let mut whole = build_worker_with(true, cost, entities, dim);
                whole.pipeline.whole_push_reference = true;
                for e in 0..3 {
                    let (a, b) = (split.run_epoch(e), whole.run_epoch(e));
                    let at = format!("{what}, epoch {e}");
                    assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits(), "{at}");
                    assert_eq!(a.traffic.by_cause, b.traffic.by_cause, "{at}");
                    let (ta, tb) = (a.traffic, b.traffic);
                    let (remote, local) = (
                        ta.remote_messages - tb.remote_messages,
                        ta.local_messages - tb.local_messages,
                    );
                    assert!(remote + local > 0, "{at}: no push split");
                    let frames = cost.remote_time(0, remote) + cost.local_time(0, local);
                    let (cp, whole_cp) = (a.critical_path_secs, b.critical_path_secs);
                    let bound = if cost == paced { 0.0 } else { frames };
                    assert!(
                        cp <= whole_cp + bound + 1e-12,
                        "{at}: {cp} s split, {whole_cp} s whole, {frames} s of frames added"
                    );
                }
                assert_eq!(store_bits(&split), store_bits(&whole), "{what}");
            }
        }
    }
}

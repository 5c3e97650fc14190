//! The metric lists the benchmark is held to, and the run record.
//!
//! `BENCHMARK.json` at the repo root repeats these names; a run prints every
//! metric by name with its unit, its output checks, and — as the last line —
//! the JSON object the driver reads.

use std::fmt::Write as _;

/// End-to-end metrics, reported by the untraced run. The driver wants every
/// one from every workload and none of them 0, so a workload marks the ones
/// it does not have with [`Record::not_applicable`] and they read
/// [`NOT_APPLICABLE`]; the README says which workload has which.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("triples_per_s", "1/s"),
    // Simulated seconds (the cost model's clock), not host seconds.
    ("sim_epoch_s", "sim_s"),
    ("remote_bytes_per_triple", "B"),
    ("final_loss", "loss"),
    ("mrr", "ratio"),
    ("peak_rss_mb", "MB"),
    ("lookup_qps", "1/s"),
    ("reload_qps", "1/s"),
];

/// What an end-to-end metric reads on a workload that does not have it.
pub const NOT_APPLICABLE: f64 = 1.0;

/// Per-layer metrics, reported by the traced run. One that a workload does
/// not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Phase K of the serving workload. Times cannot be end-to-end metrics
    // here: every workload would have to report them, and not as a constant.
    ("topk_p50_us", "us"),
    ("topk_p95_us", "us"),
    ("kgraph.build_s", "s"),
    ("kgraph.split_s", "s"),
    ("partition.metis_s", "s"),
    ("partition.edge_cut_frac", "ratio"),
    ("embed.neg_sample_ns_per_triple", "ns"),
    ("embed.score_ns_per_triple", "ns"),
    ("embed.grad_ns_per_triple", "ns"),
    ("embed.score_block_ns_per_cand", "ns"),
    ("embed.ckpt_encode_mb_per_s", "MB/s"),
    ("embed.ckpt_decode_mb_per_s", "MB/s"),
    ("train.compute_batch_us", "us"),
    ("train.compute.share", "ratio"),
    ("train.iters", "count"),
    ("train.work_units", "count"),
    ("core.table_get_ns", "ns"),
    ("core.table_insert_ns", "ns"),
    ("core.table_refresh_ns", "ns"),
    ("core.prefetch_us_per_batch", "us"),
    ("core.hit_ratio", "ratio"),
    ("core.max_staleness", "count"),
    ("core.share", "ratio"),
    ("netsim.frame_seal_ns_per_row", "ns"),
    ("netsim.frame_verify_ns_per_row", "ns"),
    ("netsim.int8_encode_ns_per_row", "ns"),
    ("netsim.int8_decode_ns_per_row", "ns"),
    ("netsim.stream_write_ns_per_frame", "ns"),
    ("netsim.stream_read_ns_per_frame", "ns"),
    ("netsim.sim_comm_s", "s"),
    ("netsim.sim_compute_s", "s"),
    ("netsim.sim_overlap_s", "s"),
    ("netsim.push_ratio", "ratio"),
    ("ps.store_init_s", "s"),
    ("ps.kv_pull_ns_per_row", "ns"),
    ("ps.kv_push_ns_per_row", "ns"),
    ("ps.client_pull_us_per_batch", "us"),
    ("ps.client_push_us_per_batch", "us"),
    ("ps.client.share", "ratio"),
    ("ps.uds_pull_us_per_batch", "us"),
    ("ps.uds_push_us_per_batch", "us"),
    ("ps.uds.share", "ratio"),
    ("ps.remote_msgs_per_iter", "count"),
    ("ps.remote_bytes_per_iter", "B"),
    ("ps.local_bytes_per_iter", "B"),
    ("ps.server_peak_rss_mb", "MB"),
    ("ps.calib_uds_minus_sim_wall_s", "s"),
    ("ps.calib_model_comm_s", "s"),
    ("ps.calib_measured_over_model", "ratio"),
    ("eval.rank_triples_per_s", "1/s"),
    ("serve.cold_start_ms", "ms"),
    ("serve.cache_hit_ns", "ns"),
    ("serve.cache_miss_admit_ns", "ns"),
    ("serve.hit_ratio_steady", "ratio"),
    ("serve.hit_ratio_reload", "ratio"),
    ("serve.snapshot_build_ms", "ms"),
    ("serve.publish_us", "us"),
    ("serve.publishes", "count"),
    ("serve.topk_p99_us", "us"),
    ("serve.topk_scalar_over_block", "ratio"),
    ("serve.openloop_topk_p50_us", "us"),
    ("serve.openloop_topk_p99_us", "us"),
    ("serve.openloop_lookup_p99_us", "us"),
    ("serve.openloop_max_late_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

#[derive(Default)]
pub struct Record {
    /// `(name, value)` for any metric of either list; the unit comes from
    /// the list.
    metrics: Vec<(&'static str, f64)>,
    /// `(check, passed, what was seen)`.
    checks: Vec<(&'static str, bool, String)>,
    /// Inputs, sample counts and digests: `(field, value)`.
    facts: Vec<(&'static str, String)>,
    /// End-to-end metrics this workload does not have.
    not_applicable: Vec<&'static str>,
    pub attempted: u64,
    pub failed: u64,
}

impl Record {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "{name} is in neither metric list");
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// This workload has no such end-to-end metric: it reads
    /// [`NOT_APPLICABLE`] for the driver and `n/a` for people.
    pub fn not_applicable(&mut self, name: &'static str) {
        debug_assert!(END_TO_END.iter().any(|m| m.0 == name), "{name}");
        self.not_applicable.push(name);
    }

    /// Whether every end-to-end metric was either measured or marked as one
    /// this workload does not have.
    pub fn end_to_end_complete(&self) -> Result<(), String> {
        for (name, _) in END_TO_END {
            let na = self.not_applicable.contains(name);
            match self.get(name) {
                Some(_) if na => return Err(format!("{name} both measured and n/a")),
                Some(v) if !(v > 0.0 && v.is_finite()) => return Err(format!("{name} = {v}")),
                None if !na => return Err(format!("{name} missing")),
                _ => {}
            }
        }
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn check(&mut self, name: &'static str, passed: bool, seen: String) {
        self.checks.push((name, passed, seen));
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    /// The human-readable part: one line per fact, metric and check.
    pub fn print(&self) {
        for (k, v) in &self.facts {
            println!("fact {k} {v}");
        }
        for (name, value) in &self.metrics {
            println!(
                "metric {name} {} {}",
                num(*value),
                unit_of(name).unwrap_or("?")
            );
        }
        for name in &self.not_applicable {
            println!("metric {name} n/a");
        }
        self.print_checks();
        println!("ops attempted {} failed {}", self.attempted, self.failed);
    }

    pub fn print_checks(&self) {
        for (name, ok, seen) in &self.checks {
            println!(
                "check {name} {} ({seen})",
                if *ok { "ok" } else { "FAILED" }
            );
        }
    }

    /// Everything above as one JSON object, for `repeat.sh`.
    pub fn json(&self) -> String {
        let mut s = String::from("{\"facts\":{");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let _ = write!(s, "{}\"{k}\":\"{}\"", sep(i), escape(v));
        }
        s.push_str("},\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let _ = write!(s, "{}\"{k}\":{}", sep(i), num(*v));
        }
        s.push_str("},\"not_applicable\":[");
        for (i, k) in self.not_applicable.iter().enumerate() {
            let _ = write!(s, "{}\"{k}\"", sep(i));
        }
        let _ = write!(
            s,
            "],\"correct\":{},\"attempted\":{},\"failed\":{}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        s
    }

    /// The driver's line: every metric of `list`. An end-to-end metric the
    /// workload does not have reads [`NOT_APPLICABLE`], a per-layer one 0.
    pub fn driver_json(&self, list: &[(&str, &str)]) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let v = self
                .get(name)
                .unwrap_or(if self.not_applicable.contains(name) {
                    NOT_APPLICABLE
                } else {
                    0.0
                });
            let _ = write!(
                s,
                "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                sep(i),
                num(v)
            );
        }
        s.push_str("}}");
        s
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|m| m.1)
}

fn sep(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// A number as measured, with all its digits; non-finite values (which JSON
/// cannot carry) read as 0 and are caught by the checks.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

//! `repro_quick`: the full quick repro, `drc_bench::quick_repro_results()`,
//! at the default harness width (at most the host's CPUs).
//!
//! This is what users run to regenerate the paper, and the only workload
//! that covers the cell-harness fan-out, reliability (table1), failure
//! traces, shuffle contention, the compact block index at 500k blocks, and
//! cells that recycle buffers through bufpool within its cap. The
//! experiments pin their own seed, so the `--seed` argument does not change
//! this workload's inputs.
//!
//! Each round starts with an empty bufpool, as a fresh `repro` process
//! would. Untraced rounds make the one public call; traced rounds call the
//! twelve experiments one by one with the same configurations, under a
//! `core.<experiment>` span each. Both must produce the same results.

use drc_core::experiments::{
    degraded_mr::run_degraded_mr, encoding::run_encoding, failure_trace::run_failure_trace,
    fig3::run_fig3, fig4::run_fig4, fig5::run_fig5, harness, metadata_scale::run_metadata_scale,
    overlap::run_overlap, repair_bandwidth::run_repair_bandwidth,
    repair_pipeline::run_repair_pipeline, shuffle_contention::run_shuffle_contention,
    table1::run_table1, Effort,
};
use drc_core::gf::{bufpool, kernel};
use drc_core::reliability::ReliabilityParams;
use drc_core::DrcError;
use serde_json::Value;

use crate::{fnv1a, Cx, Report, RunStats, Size, Workload, CORE_EXPERIMENTS, FNV_START};

/// The span each experiment's call is recorded under.
const SPANS: [&str; 12] = [
    "core.table1",
    "core.repair_bw",
    "core.fig3",
    "core.fig4",
    "core.fig5",
    "core.encoding",
    "core.degraded_mr",
    "core.overlap",
    "core.shuffle_contention",
    "core.failure_trace",
    "core.metadata_scale",
    "core.repair_pipeline",
];

/// The per-layer metric each experiment's busy time is reported as.
const METRICS: [&str; 12] = [
    "core.table1.wall_s",
    "core.repair_bw.wall_s",
    "core.fig3.wall_s",
    "core.fig4.wall_s",
    "core.fig5.wall_s",
    "core.encoding.wall_s",
    "core.degraded_mr.wall_s",
    "core.overlap.wall_s",
    "core.shuffle_contention.wall_s",
    "core.failure_trace.wall_s",
    "core.metadata_scale.wall_s",
    "core.repair_pipeline.wall_s",
];

/// Result fields that measure host time and legitimately differ between
/// runs; they are left out of the digest.
const WALL_CLOCK_FIELDS: [&str; 4] = [
    "throughput_mb_per_s",
    "elapsed_s",
    "lookups_per_s",
    "repair_scan_blocks_per_s",
];

type Results = Vec<(&'static str, Value)>;

/// Runs experiment `i` of [`CORE_EXPERIMENTS`] with the configuration
/// `drc_bench::quick_repro_results` uses.
fn run_experiment(i: usize) -> Result<Value, DrcError> {
    fn json<T: serde::Serialize>(r: Result<T, DrcError>) -> Result<Value, DrcError> {
        r.map(|v| serde_json::to_value(&v).expect("experiment results are serializable"))
    }
    let effort = Effort::Quick;
    let (ft_block, ft_tasks) = drc_bench::FAILURE_TRACE_QUICK;
    let (rp_block, rp_stripes, rp_chunks) = drc_bench::REPAIR_PIPELINE_QUICK;
    match i {
        0 => json(run_table1(&ReliabilityParams::default())),
        1 => json(run_repair_bandwidth()),
        2 => json(run_fig3(effort)),
        3 => json(run_fig4(effort)),
        4 => json(run_fig5(effort)),
        5 => json(run_encoding(1024 * 1024, 8)),
        6 => json(run_degraded_mr(effort)),
        7 => json(run_overlap(1024 * 1024, 2)),
        8 => json(run_shuffle_contention(1024 * 1024, 100)),
        9 => json(run_failure_trace(ft_block, ft_tasks)),
        10 => json(run_metadata_scale(effort)),
        _ => json(run_repair_pipeline(rp_block, rp_stripes, rp_chunks)),
    }
}

fn strip_wall_clock(v: &mut Value) {
    match v {
        Value::Map(entries) => {
            entries.retain(|(k, _)| !WALL_CLOCK_FIELDS.contains(&k.as_str()));
            for (_, child) in entries {
                strip_wall_clock(child);
            }
        }
        Value::Seq(items) => items.iter_mut().for_each(strip_wall_clock),
        _ => {}
    }
}

/// The quick repro workload.
#[derive(Debug)]
pub struct ReproQuick {
    /// How many experiments a round runs (all twelve, or the cheap first two
    /// at `Size::Tiny`).
    experiments: usize,
    jobs: usize,
}

impl Workload for ReproQuick {
    // A round takes seconds, so the tail is the slowest round.
    const TAIL_PERCENTILE: f64 = 100.0;

    fn setup(size: Size, _seed: u64, _cx: &mut Cx) -> Result<Self, String> {
        // Warm-up: kernel selection, worker pool start-up, the two analytic
        // experiments and the three cheapest cell-parallel ones (fig4, fig5,
        // degraded_mr); then an empty bufpool, as in a fresh process.
        let _ = kernel::active();
        let jobs = harness::current_jobs();
        for i in [0, 1, 3, 4, 6] {
            run_experiment(i).map_err(|e| e.to_string())?;
        }
        bufpool::drain();
        Ok(ReproQuick {
            experiments: match size {
                Size::Full => CORE_EXPERIMENTS.len(),
                Size::Tiny => 2,
            },
            jobs,
        })
    }

    fn round(&mut self, cx: &mut Cx) -> u64 {
        bufpool::drain();
        let whole = self.experiments == CORE_EXPERIMENTS.len() && !cx.tracing();
        let results: Result<Results, DrcError> = cx.op(true, |cx| {
            if whole {
                cx.call("bench.quick_repro_results", drc_bench::quick_repro_results)
            } else {
                (0..self.experiments)
                    .map(|i| {
                        Ok((
                            CORE_EXPERIMENTS[i],
                            cx.call(SPANS[i], || run_experiment(i))?,
                        ))
                    })
                    .collect()
            }
        });
        let mut digest = FNV_START;
        if let Some(results) = cx.attempt("quick repro", results) {
            let names: Vec<&str> = results.iter().map(|(n, _)| *n).collect();
            cx.check(names == CORE_EXPERIMENTS[..self.experiments], || {
                format!("unexpected experiment list {names:?}")
            });
            for (name, mut value) in results {
                strip_wall_clock(&mut value);
                let text = serde_json::to_string(&value).expect("results serialise");
                digest = fnv1a(fnv1a(digest, name.as_bytes()), text.as_bytes());
            }
        }
        digest
    }

    fn report(&self, run: &RunStats, out: &mut Report) {
        for (span, metric) in SPANS.iter().zip(METRICS) {
            out.layers.insert(metric, run.busy_per_round(span));
        }
        out.layers.insert("core.harness.jobs", self.jobs as f64);
        out.note("experiments", self.experiments);
        out.note("seed", "not applicable: the experiments pin DEFAULT_SEED");
    }
}

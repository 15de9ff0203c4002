//! The repository's benchmark: four workloads driven through the public API
//! that `drc_core` re-exports (plus `drc_bench::quick_repro_results`), each
//! measured end to end and, in a separate traced run, layer by layer.
//!
//! Load is one client in a closed loop: the next call is issued only after
//! the previous one returned. Each workload's timed phase repeats a *round*
//! — a fixed amount of work generated from the seed and run on fresh state —
//! until `--seconds` of timed work have been measured (and at least
//! [`MIN_ROUNDS`] rounds). Every round of one run does identical simulated
//! work, so each round's digest of simulated statistics must match the
//! others, and timings are reported as medians over rounds.
//!
//! See `README.md` next to this crate for the workloads, the metric
//! definitions and which layer metric should move which end-to-end metric.

pub mod measure;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

use drc_core::gf::bufpool;

use measure::{median, ProcStat};
use trace::{Span, Stage, Tracer};

/// Every round of a run repeats the same seeded work; at least this many run
/// so the rounds' digests can be compared.
pub const MIN_ROUNDS: usize = 2;

/// How many times set-up runs in one process; `setup_s` is their median and
/// the last one's state is measured.
pub const SETUP_REPEATS: usize = 3;

/// The workloads, by the names the command line and `BENCHMARK.json` use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Write-heavy: many multi-MiB files through `write_file`.
    Ingest,
    /// Read-heavy under permanent node failures, then one repair pass.
    DegradedRead,
    /// Placement-only MapReduce simulation: codes x schedulers.
    MapReduce,
    /// The full quick repro (`drc_bench::quick_repro_results`).
    ReproQuick,
}

impl WorkloadName {
    /// Every workload, in presentation order.
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::Ingest,
        WorkloadName::DegradedRead,
        WorkloadName::MapReduce,
        WorkloadName::ReproQuick,
    ];

    /// The command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::Ingest => "ingest",
            WorkloadName::DegradedRead => "degraded_read",
            WorkloadName::MapReduce => "mapreduce",
            WorkloadName::ReproQuick => "repro_quick",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.as_str() == s)
    }
}

/// Input sizes: `Full` is what the benchmark measures, `Tiny` keeps the same
/// code paths at a size the benchmark's own tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A smoke-test configuration.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: WorkloadName,
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// Timed work to measure, in seconds (at least [`MIN_ROUNDS`] rounds run).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// The end-to-end metrics, `(name, unit)`. Each workload reports the ones
/// that apply to it; units are host time unless the name starts with `sim_`
/// (virtual time of the simulated cluster).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("failed_ops_frac", "ratio"),
    ("throughput_mib_s", "MiB/s"),
    ("sim_tasks_per_s", "1/s"),
    ("sim_job_s", "s"),
    ("sim_locality_pct", "%"),
    ("sim_io_s", "s"),
    ("sim_repair_s", "s"),
    ("network_bytes_per_user_byte", "B/B"),
    ("stored_bytes_per_user_byte", "B/B"),
];

/// The end-to-end metrics of the untraced result line: those every workload
/// has and that are never zero.
pub const RESULT_END_TO_END: &[&str] = &[
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mib",
    "op_p50_ms",
    "op_tail_ms",
];

/// The experiments of the quick repro, in presentation order.
pub const CORE_EXPERIMENTS: [&str; 12] = [
    "table1",
    "repair_bw",
    "fig3",
    "fig4",
    "fig5",
    "encoding",
    "degraded_mr",
    "overlap",
    "shuffle_contention",
    "failure_trace",
    "metadata_scale",
    "repair_pipeline",
];

/// The per-layer metrics of the traced result line, `(name, unit)`. Every
/// workload reports all of them; a layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hdfs.write_file.calls", "count"),
    ("hdfs.write_file.busy_s", "s"),
    ("hdfs.read_file.calls", "count"),
    ("hdfs.read_file.busy_s", "s"),
    ("hdfs.repair_nodes.busy_s", "s"),
    ("hdfs.errors", "count"),
    ("hdfs.stored_bytes", "B"),
    ("hdfs.write_network_bytes", "B"),
    ("hdfs.read_network_bytes", "B"),
    ("hdfs.repair_network_bytes", "B"),
    ("hdfs.degraded_read_bytes", "B"),
    ("hdfs.blocks_restored", "count"),
    ("hdfs.stripes_repaired", "count"),
    ("hdfs.unrecoverable_stripes", "count"),
    ("hdfs.degraded_share", "ratio"),
    ("gf.bufpool.hits", "count"),
    ("gf.bufpool.misses", "count"),
    ("gf.bufpool.hit_ratio", "ratio"),
    ("gf.bufpool.pooled_bytes", "B"),
    ("codes.stripes_encoded", "count"),
    ("codes.parity_bytes", "B"),
    ("cluster.place.busy_s", "s"),
    ("workloads.provision.busy_s", "s"),
    ("mapreduce.run_job.busy_s.delay", "s"),
    ("mapreduce.run_job.busy_s.peeling", "s"),
    ("mapreduce.run_job.busy_s.max_matching", "s"),
    ("mapreduce.run_job_traced.busy_s", "s"),
    ("mapreduce.map_tasks", "count"),
    ("mapreduce.local_map_tasks", "count"),
    ("mapreduce.locality_ratio", "ratio"),
    ("mapreduce.degraded_reads", "count"),
    ("mapreduce.tasks_reexecuted", "count"),
    ("mapreduce.network_traffic_bytes", "B"),
    ("mapreduce.shuffle_wait_s", "s"),
    ("sim.timeline_phases", "count"),
    ("sim.virtual_s_per_host_s", "s/s"),
    ("core.table1.wall_s", "s"),
    ("core.repair_bw.wall_s", "s"),
    ("core.fig3.wall_s", "s"),
    ("core.fig4.wall_s", "s"),
    ("core.fig5.wall_s", "s"),
    ("core.encoding.wall_s", "s"),
    ("core.degraded_mr.wall_s", "s"),
    ("core.overlap.wall_s", "s"),
    ("core.shuffle_contention.wall_s", "s"),
    ("core.failure_trace.wall_s", "s"),
    ("core.metadata_scale.wall_s", "s"),
    ("core.repair_pipeline.wall_s", "s"),
    ("core.harness.jobs", "count"),
    ("process.user_s", "s"),
    ("process.sys_s", "s"),
    ("process.minflt", "count"),
    ("process.majflt", "count"),
    ("self_s.perfbench", "s"),
    ("self_s.hdfs", "s"),
    ("self_s.mapreduce", "s"),
    ("self_s.sim", "s"),
    ("self_s.core", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage_frac", "ratio"),
    ("trace.spans_per_round", "count"),
];

/// The layers whose self time is reported, with their metric names.
const SELF_TIME_LAYERS: [(&str, &str); 5] = [
    ("perfbench", "self_s.perfbench"),
    ("hdfs", "self_s.hdfs"),
    ("mapreduce", "self_s.mapreduce"),
    ("sim", "self_s.sim"),
    ("core", "self_s.core"),
];

/// What one round of the timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct RoundStats {
    /// Whether the round was traced.
    pub traced: bool,
    /// Host time of the round's operations.
    pub wall_s: f64,
    /// Process CPU and faults over the round's operations.
    pub proc: ProcStat,
    /// `drc_gf::bufpool` hits over the round's operations.
    pub pool_hits: u64,
    /// `drc_gf::bufpool` misses over the round's operations.
    pub pool_misses: u64,
    /// The round's digest of simulated statistics.
    pub digest: u64,
}

/// The measurement context handed to workloads: times operations, records
/// spans when tracing, and counts attempted and failed operations.
#[derive(Debug, Default)]
pub struct Cx {
    tracer: Tracer,
    stage: Stage,
    op_seq: u64,
    op: u64,
    round: RoundStats,
    primary_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Cx {
    /// One top-level operation of the timed phase: its host time, CPU and
    /// bufpool traffic count towards the round. `primary` marks the
    /// workload's own operation (`write_file`, `read_file`, a job run, a
    /// quick repro), whose latencies make `op_p50_ms`/`op_tail_ms`; they are
    /// taken from untraced rounds only.
    pub fn op<R>(&mut self, primary: bool, f: impl FnOnce(&mut Cx) -> R) -> R {
        self.op_seq += 1;
        self.op = self.op_seq;
        let (hits, misses) = (bufpool::hits(), bufpool::misses());
        let proc0 = ProcStat::read();
        let t0 = Instant::now();
        let token = self.tracer.open("perfbench.op", self.op, self.stage);
        let out = f(self);
        self.tracer.close(token);
        let wall = t0.elapsed().as_secs_f64();
        self.round.proc.add(ProcStat::read().since(proc0));
        self.round.wall_s += wall;
        self.round.pool_hits += bufpool::hits().saturating_sub(hits);
        self.round.pool_misses += bufpool::misses().saturating_sub(misses);
        if primary && !self.tracer.enabled() {
            self.primary_ms.push(wall * 1e3);
        }
        self.op = 0;
        out
    }

    /// A call into a layer's public function, spanned when tracing.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let token = self.tracer.open(name, self.op, self.stage);
        let out = f();
        self.tracer.close(token);
        out
    }

    /// Counts one attempted operation, failed when `result` is an error.
    pub fn attempt<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one correctness check, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }
}

/// Everything a run measured, handed to the workload's report.
#[derive(Debug)]
pub struct RunStats {
    /// Host time of each set-up.
    pub setup_s: Vec<f64>,
    /// Every round, in order.
    pub rounds: Vec<RoundStats>,
    /// Host latencies of the primary operations of untraced rounds, ms.
    pub primary_ms: Vec<f64>,
    /// Every span recorded (traced runs only).
    pub spans: Vec<Span>,
}

impl RunStats {
    /// Median host time of the untraced rounds.
    pub fn wall_s(&self) -> f64 {
        median(&self.walls(false))
    }

    /// Host times of the traced (or untraced) rounds.
    pub fn walls(&self, traced: bool) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.wall_s)
            .collect()
    }

    /// Number of traced rounds (at least 1 so it can divide).
    pub fn traced_rounds(&self) -> f64 {
        self.rounds.iter().filter(|r| r.traced).count().max(1) as f64
    }

    /// Total duration of the timed-phase spans named `name`, per traced round.
    pub fn busy_per_round(&self, name: &str) -> f64 {
        trace::busy_s(&self.spans, name, |s| matches!(s.stage, Stage::Round(_)))
            / self.traced_rounds()
    }

    /// Number of timed-phase spans named `name`, per traced round.
    pub fn calls_per_round(&self, name: &str) -> f64 {
        trace::calls(&self.spans, name, |s| matches!(s.stage, Stage::Round(_))) as f64
            / self.traced_rounds()
    }

    /// Total duration of the spans named `name` recorded in `stage`.
    pub fn busy_in(&self, name: &str, stage: Stage) -> f64 {
        trace::busy_s(&self.spans, name, |s| s.stage == stage)
    }
}

/// A workload's metrics: end-to-end values, per-layer values and notes
/// (provenance, sizes, checks) printed before the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics by name (see [`END_TO_END`]).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (see [`PER_LAYER`]).
    pub layers: BTreeMap<&'static str, f64>,
    /// `key value` lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a note line.
    pub fn note(&mut self, key: &str, value: impl Display) {
        self.notes.push(format!("{key} {value}"));
    }
}

/// A workload [`run`] can measure.
pub trait Workload: Sized {
    /// The percentile `op_tail_ms` reports. At full size the timed phase
    /// runs until it has enough untraced primary operations for it in each
    /// of the [`Workload::TAIL_WINDOWS`] windows (see
    /// [`measure::samples_for_tail`]).
    const TAIL_PERCENTILE: f64;

    /// How many consecutive windows the untraced primary latencies are cut
    /// into; `op_tail_ms` is the median of the windows' tails (see
    /// [`measure::windowed_tail`]).
    const TAIL_WINDOWS: usize = 1;

    /// Builds the inputs from the seed and warms up. Timed, and repeated
    /// [`SETUP_REPEATS`] times.
    fn setup(size: Size, seed: u64, cx: &mut Cx) -> Result<Self, String>;

    /// One round of the timed phase; returns the round's digest of simulated
    /// statistics, which must be the same for every round of a run.
    fn round(&mut self, cx: &mut Cx) -> u64;

    /// Timed work after the rounds; returns a digest of its simulated
    /// statistics.
    fn finish(&mut self, _cx: &mut Cx) -> u64 {
        0
    }

    /// Workload-specific metrics and notes.
    fn report(&self, run: &RunStats, out: &mut Report);
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// The configuration run.
    pub config: Config,
    /// All end-to-end metrics that apply to the workload.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Every per-layer metric (traced runs; empty otherwise).
    pub layers: BTreeMap<&'static str, f64>,
    /// Note lines.
    pub notes: Vec<String>,
    /// Operations (calls and checks) attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Digest of every simulated statistic of the run.
    pub digest: u64,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics of the result line: [`RESULT_END_TO_END`] untraced,
    /// [`PER_LAYER`] traced, as `(name, value, unit)`.
    pub fn result_metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if self.config.trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            RESULT_END_TO_END
                .iter()
                .map(|&name| {
                    (
                        name,
                        self.e2e.get(name).copied().unwrap_or(0.0),
                        unit_of(name),
                    )
                })
                .collect()
        }
    }

    /// The report printed before the result line: a header, provenance,
    /// notes, every end-to-end metric that applies to the workload and every
    /// per-layer metric (traced runs) as `name value unit`, failures, and the
    /// digest of the simulated statistics.
    pub fn report_lines(&self) -> Vec<String> {
        let c = &self.config;
        let mut lines = vec![
            format!(
                "# perfbench workload={} seed={} seconds={} trace={} loop=closed clients=1",
                c.workload.as_str(),
                c.seed,
                c.seconds,
                u8::from(c.trace)
            ),
            format!("provenance {}", provenance()),
        ];
        lines.extend(self.notes.iter().map(|n| format!("note {n}")));
        lines.extend(
            self.e2e
                .iter()
                .map(|(name, v)| format!("e2e {name} {v} {}", unit_of(name))),
        );
        lines.extend(
            self.layers
                .iter()
                .map(|(name, v)| format!("layer {name} {v} {}", unit_of(name))),
        );
        lines.extend(self.failures.iter().map(|f| format!("failure {f}")));
        lines.push(format!(
            "digest {} {:016x}",
            c.workload.as_str(),
            self.digest
        ));
        lines
    }

    /// The last line of the benchmark's output.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .result_metrics()
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The unit of an end-to-end metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Mixes `salt` into `seed` (splitmix64 finaliser), for independent streams.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills `buf` with bytes generated from `seed` (splitmix64 stream).
pub fn fill_payload(seed: u64, buf: &mut [u8]) {
    let mut state = seed;
    for chunk in buf.chunks_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let word = mix(state, 0).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Runs one configuration end to end.
///
/// # Errors
///
/// Returns a message when set-up fails (the inputs could not be built).
pub fn run(config: &Config) -> Result<Outcome, String> {
    match config.workload {
        WorkloadName::Ingest => drive::<workloads::ingest::Ingest>(config),
        WorkloadName::DegradedRead => drive::<workloads::degraded_read::DegradedRead>(config),
        WorkloadName::MapReduce => drive::<workloads::mapreduce::MapReduce>(config),
        WorkloadName::ReproQuick => drive::<workloads::repro_quick::ReproQuick>(config),
    }
}

fn drive<W: Workload>(config: &Config) -> Result<Outcome, String> {
    let mut cx = Cx::default();

    // Set-up, repeated; only the last (kept) one is traced.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        drop(state.take());
        cx.tracer
            .set_enabled(config.trace && i + 1 == SETUP_REPEATS);
        let t0 = Instant::now();
        state = Some(W::setup(config.size, config.seed, &mut cx)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = state.ok_or("no set-up ran")?;

    // Timed phase. A traced run alternates untraced and traced rounds, so
    // the tracing overhead is measured within one process.
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut timed = 0.0;
    let tail_samples = match config.size {
        Size::Full => W::TAIL_WINDOWS * measure::samples_for_tail(W::TAIL_PERCENTILE),
        Size::Tiny => 0,
    };
    while rounds.len() < MIN_ROUNDS || timed < config.seconds || cx.primary_ms.len() < tail_samples
    {
        let traced = config.trace && rounds.len() % 2 == 1;
        cx.tracer.set_enabled(traced);
        cx.stage = Stage::Round(rounds.len() as u32);
        cx.round = RoundStats {
            traced,
            ..RoundStats::default()
        };
        let digest = w.round(&mut cx);
        let mut round = std::mem::take(&mut cx.round);
        round.digest = digest;
        timed += round.wall_s;
        rounds.push(round);
    }
    cx.tracer.set_enabled(config.trace);
    cx.stage = Stage::Finish;
    let finish_digest = w.finish(&mut cx);

    let first = rounds[0].digest;
    let mismatched = rounds.iter().filter(|r| r.digest != first).count();
    cx.check(mismatched == 0, || {
        format!(
            "{mismatched} of {} rounds produced a different digest",
            rounds.len()
        )
    });
    let digest = fnv1a(
        fnv1a(FNV_START, &first.to_le_bytes()),
        &finish_digest.to_le_bytes(),
    );

    let run = RunStats {
        setup_s,
        rounds,
        primary_ms: std::mem::take(&mut cx.primary_ms),
        spans: cx.tracer.take_spans(),
    };
    let mut report = Report::default();
    common_metrics(&run, W::TAIL_PERCENTILE, W::TAIL_WINDOWS, &mut report);
    w.report(&run, &mut report);
    if config.trace {
        for (name, _) in PER_LAYER {
            report.layers.entry(name).or_insert(0.0);
        }
    } else {
        report.layers.clear();
    }
    for name in report.e2e.keys().chain(report.layers.keys()) {
        cx.check(!unit_of(name).is_empty(), || {
            format!("metric {name} is not declared")
        });
    }
    for (name, value) in report.e2e.iter().chain(&report.layers) {
        cx.check(value.is_finite(), || {
            format!("metric {name} is not finite: {value}")
        });
    }
    report.e2e.insert(
        "failed_ops_frac",
        cx.failed as f64 / cx.attempted.max(1) as f64,
    );
    Ok(Outcome {
        config: *config,
        e2e: report.e2e,
        layers: report.layers,
        notes: report.notes,
        attempted: cx.attempted,
        failed: cx.failed,
        failures: cx.failures,
        digest,
        spans: run.spans,
    })
}

/// The metrics every workload has.
fn common_metrics(run: &RunStats, tail_percentile: f64, tail_windows: usize, out: &mut Report) {
    let untraced: Vec<&RoundStats> = run.rounds.iter().filter(|r| !r.traced).collect();
    let n = untraced.len().max(1) as f64;
    let mut proc = ProcStat::default();
    for r in &untraced {
        proc.add(r.proc);
    }
    out.e2e.insert("setup_s", median(&run.setup_s));
    out.e2e.insert("wall_s", run.wall_s());
    out.e2e.insert("cpu_s", (proc.user_s() + proc.sys_s()) / n);
    out.e2e.insert("peak_rss_mib", measure::peak_rss_mib());
    out.e2e.insert("op_p50_ms", median(&run.primary_ms));
    if let Some(t) = measure::windowed_tail(&run.primary_ms, tail_percentile, tail_windows) {
        out.e2e.insert("op_tail_ms", t.value);
        out.note(
            "op_tail",
            if t.windows == 1 {
                format!("p{} of {} samples", t.percentile, t.samples)
            } else {
                format!(
                    "median of {} windows' p{}, at least {} samples each",
                    t.windows, t.percentile, t.samples
                )
            },
        );
    }
    out.note(
        "rounds",
        format!(
            "{} untraced, {} traced",
            untraced.len(),
            run.rounds.len() - untraced.len()
        ),
    );
    let mut walls = run.walls(false);
    walls.sort_by(f64::total_cmp);
    if let (Some(first), Some(last)) = (walls.first(), walls.last()) {
        out.note(
            "round_wall_s",
            format!(
                "min {first:.6} q1 {:.6} median {:.6} q3 {:.6} max {last:.6}",
                walls[walls.len() / 4],
                median(&walls),
                walls[walls.len() * 3 / 4]
            ),
        );
    }

    // Per-layer: process and bufpool counters per round, over all rounds.
    let all = run.rounds.len().max(1) as f64;
    let mut all_proc = ProcStat::default();
    let (mut hits, mut misses) = (0u64, 0u64);
    for r in &run.rounds {
        all_proc.add(r.proc);
        hits += r.pool_hits;
        misses += r.pool_misses;
    }
    let l = &mut out.layers;
    l.insert("process.user_s", all_proc.user_s() / all);
    l.insert("process.sys_s", all_proc.sys_s() / all);
    l.insert("process.minflt", all_proc.minflt as f64 / all);
    l.insert("process.majflt", all_proc.majflt as f64 / all);
    l.insert("gf.bufpool.hits", hits as f64 / all);
    l.insert("gf.bufpool.misses", misses as f64 / all);
    l.insert(
        "gf.bufpool.hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    l.insert("gf.bufpool.pooled_bytes", bufpool::pooled_bytes() as f64);

    // Self time and coverage over the traced rounds' spans.
    let in_rounds = |s: &Span| matches!(s.stage, Stage::Round(_));
    let by_layer = trace::self_time_by_layer(&run.spans, in_rounds);
    let per_round = run.traced_rounds();
    for (layer, name) in SELF_TIME_LAYERS {
        l.insert(
            name,
            by_layer.get(layer).copied().unwrap_or(0.0) / per_round,
        );
    }
    let traced_wall: f64 = run.walls(true).iter().sum();
    let layer_s: f64 = by_layer
        .iter()
        .filter(|(layer, _)| **layer != "perfbench")
        .map(|(_, s)| s)
        .sum();
    l.insert(
        "trace.coverage_frac",
        if traced_wall > 0.0 {
            layer_s / traced_wall
        } else {
            0.0
        },
    );
    l.insert(
        "trace.overhead_s",
        median(&run.walls(true)) - median(&run.walls(false)),
    );
    l.insert(
        "trace.spans_per_round",
        run.spans.iter().filter(|s| in_rounds(s)).count() as f64 / per_round,
    );
}

/// Provenance stamped on every result: git SHA (when run from a git
/// checkout), GF kernel, pool and harness widths, host CPUs.
pub fn provenance() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let sha = if std::path::Path::new(root).join(".git").exists() {
        std::process::Command::new("git")
            .args(["-C", root, "rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    } else {
        "unknown".to_string()
    };
    format!(
        "git_sha={sha} gf_kernel={} pool_threads={} harness_jobs={} host_cpus={}",
        drc_core::gf::kernel::active().name(),
        rayon::current_num_threads(),
        drc_core::experiments::harness::current_jobs(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

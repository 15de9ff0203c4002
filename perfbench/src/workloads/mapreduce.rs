//! `mapreduce`: the placement-only MapReduce simulator, the paper's own
//! metrics (job time and data locality).
//!
//! Set-up provisions one Terasort job per paper code with
//! `provision_workload` on `ClusterSpec::datacenter(400)` at 100% load (one
//! map task per map slot, 1600 tasks), and draws a seeded failure trace per
//! code. A round runs every job under every scheduler, plus each code's job
//! under its failure trace through `run_job_traced` (with the peeling
//! scheduler), so re-execution and degraded-read planning run too. Delay
//! scheduling costs about three times the host time of the other two, so a
//! traced delay job would make half of a round's job runs slow and put the
//! median job latency on the edge between the two groups. All the work is in the scheduler, the
//! engine, the sim resources and the cluster placement; gf, codes and
//! bufpool do nothing, which makes this the bypass workload for any
//! data-path change.

use std::sync::Arc;

use drc_core::cluster::{
    Cluster, ClusterSpec, FailureEvent, FailureEventKind, FailureTrace, PlacementMap,
    PlacementPolicy,
};
use drc_core::codes::{CodeKind, ErasureCode};
use drc_core::hdfs::DEFAULT_DETECTION_TIMEOUT;
use drc_core::mapreduce::{
    run_job, run_job_traced, FailureModel, JobMetrics, JobSite, SchedulerKind,
};
use drc_core::sim::{ClusterNet, SimTime};
use drc_core::workloads::{provision_workload, ProvisionedWorkload, WorkloadKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::measure::{mean, median};
use crate::trace::Stage;
use crate::{fnv1a, mix, Cx, Report, RunStats, Size, Workload, FNV_START};

/// The paper's codes.
pub const CODES: [CodeKind; 4] = [
    CodeKind::TWO_REP,
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
];

/// The schedulers, with the span each one's job runs are recorded under and
/// the metric their busy time is reported as.
const SCHEDULERS: [(SchedulerKind, &str, &str); 3] = [
    (
        SchedulerKind::Delay,
        "mapreduce.run_job.delay",
        "mapreduce.run_job.busy_s.delay",
    ),
    (
        SchedulerKind::Peeling,
        "mapreduce.run_job.peeling",
        "mapreduce.run_job.busy_s.peeling",
    ),
    (
        SchedulerKind::MaxMatching,
        "mapreduce.run_job.max_matching",
        "mapreduce.run_job.busy_s.max_matching",
    ),
];

/// Load, in percent of the cluster's map slots.
const LOAD_PERCENT: f64 = 100.0;

/// One code's provisioned job and failure trace.
#[derive(Debug)]
struct CodeJob {
    code: Arc<dyn ErasureCode>,
    work: ProvisionedWorkload,
    trace: FailureTrace,
}

/// The MapReduce workload: provisioned jobs on a datacenter cluster.
#[derive(Debug)]
pub struct MapReduce {
    cluster: Cluster,
    jobs: Vec<CodeJob>,
    seed: u64,
    last: Vec<JobMetrics>,
}

fn nodes(size: Size) -> usize {
    match size {
        Size::Full => 400,
        Size::Tiny => 40,
    }
}

/// A seeded failure trace inside the job's map phase: as many fail-stop
/// node failures as the code tolerates (at most two), at uniform instants.
/// The count is fixed so every seed re-executes about the same work.
fn failure_trace(cluster: &Cluster, tolerance: usize, horizon_s: f64, seed: u64) -> FailureTrace {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut up = cluster.up_nodes();
    let events = (0..tolerance.min(2).min(up.len()))
        .map(|_| {
            let node = up.swap_remove(rng.gen_range(0..up.len()));
            let at_s = rng.gen::<f64>() * horizon_s;
            FailureEvent::at_secs(at_s, FailureEventKind::NodeDown { node })
        })
        .collect();
    FailureTrace::from_events(events)
}

impl Workload for MapReduce {
    // 100 job runs: 7 rounds.
    const TAIL_PERCENTILE: f64 = 90.0;

    fn setup(size: Size, seed: u64, cx: &mut Cx) -> Result<Self, String> {
        let cluster = Cluster::new(ClusterSpec::datacenter(nodes(size)));
        let mut jobs = Vec::with_capacity(CODES.len());
        for (i, kind) in CODES.into_iter().enumerate() {
            let code = kind.build().map_err(|e| e.to_string())?;
            let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 20 + i as u64));
            // `provision_workload` places the input internally; when tracing,
            // replay the same placement from the same generator state to time
            // the cluster layer on its own.
            let replayed = if cx.tracing() {
                let mut replay = rng.clone();
                let tasks = cluster.spec().tasks_for_load(LOAD_PERCENT).max(1);
                let stripes = tasks.div_ceil(code.data_blocks());
                let placed = cx.call("cluster.place", || {
                    PlacementMap::place(
                        code.as_ref(),
                        &cluster,
                        stripes,
                        PlacementPolicy::Random,
                        &mut replay,
                    )
                });
                cx.attempt("cluster.place", placed)
            } else {
                None
            };
            let work = cx.call("workloads.provision", || {
                provision_workload(
                    WorkloadKind::Terasort,
                    kind,
                    &cluster,
                    LOAD_PERCENT,
                    &mut rng,
                )
            });
            let work = work.map_err(|e| e.to_string())?;
            if let Some(placed) = replayed {
                cx.check(placed == work.placement, || {
                    "replayed placement differs from the provisioned one".into()
                });
            }
            // Warm-up, and the horizon the failure trace is drawn over: the
            // map phase of the untraced delay-scheduled job.
            let baseline = run_job(
                &work.job,
                code.as_ref(),
                &work.placement,
                &cluster,
                SchedulerKind::Delay.build().as_ref(),
                &mut ChaCha8Rng::seed_from_u64(mix(seed, 30 + i as u64)),
            )
            .map_err(|e| e.to_string())?;
            let trace = failure_trace(
                &cluster,
                code.fault_tolerance(),
                baseline.map_phase_s,
                mix(seed, 40 + i as u64),
            );
            jobs.push(CodeJob { code, work, trace });
        }
        Ok(MapReduce {
            cluster,
            jobs,
            seed,
            last: Vec::new(),
        })
    }

    fn round(&mut self, cx: &mut Cx) -> u64 {
        let mut results = Vec::with_capacity(self.jobs.len() * (SCHEDULERS.len() + 1));
        let cluster = &self.cluster;
        for (i, job) in self.jobs.iter().enumerate() {
            let (spec, code, placement) = (&job.work.job, job.code.as_ref(), &job.work.placement);
            for (s, (kind, span, _)) in SCHEDULERS.into_iter().enumerate() {
                let seed = mix(self.seed, 100 + (i * SCHEDULERS.len() + s) as u64);
                let run = cx.op(true, |cx| {
                    cx.call(span, || {
                        run_job(
                            spec,
                            code,
                            placement,
                            cluster,
                            kind.build().as_ref(),
                            &mut ChaCha8Rng::seed_from_u64(seed),
                        )
                    })
                });
                results.push(cx.attempt(span, run));
            }
            let seed = mix(self.seed, 200 + i as u64);
            let run = cx.op(true, |cx| {
                let net = cx.call("sim.cluster_net", || ClusterNet::new(cluster.spec()));
                cx.call("mapreduce.run_job_traced", || {
                    run_job_traced(
                        spec,
                        code,
                        placement,
                        cluster,
                        SchedulerKind::Peeling.build().as_ref(),
                        &mut ChaCha8Rng::seed_from_u64(seed),
                        JobSite {
                            net: &net,
                            start: SimTime::ZERO,
                        },
                        FailureModel::new(&job.trace, DEFAULT_DETECTION_TIMEOUT),
                    )
                })
            });
            results.push(cx.attempt("mapreduce.run_job_traced", run));
        }

        let mut digest = FNV_START;
        self.last.clear();
        for (n, m) in results.into_iter().enumerate() {
            let Some(m) = m else {
                digest = fnv1a(digest, b"error");
                continue;
            };
            let expected = self.jobs[n / (SCHEDULERS.len() + 1)]
                .work
                .job
                .map_tasks()
                .len();
            cx.check(
                m.map_tasks == expected
                    && m.local_map_tasks <= m.map_tasks
                    && m.job_time_s.is_finite()
                    && m.job_time_s > 0.0,
                || format!("job {n}: implausible metrics {m:?}"),
            );
            digest = fnv1a(digest, job_digest(&m).as_bytes());
            self.last.push(m);
        }
        digest
    }

    fn report(&self, run: &RunStats, out: &mut Report) {
        let jobs = &self.last;
        let wall = run.wall_s();
        let block = self.cluster.spec().block_size_bytes();
        let tasks: usize = jobs.iter().map(|m| m.map_tasks).sum();
        let local: usize = jobs.iter().map(|m| m.local_map_tasks).sum();
        let traffic: u64 = jobs.iter().map(|m| m.network_traffic_bytes).sum();
        let job_s: Vec<f64> = jobs.iter().map(|m| m.job_time_s).collect();
        out.e2e.insert("sim_tasks_per_s", tasks as f64 / wall);
        out.e2e.insert("sim_job_s", median(&job_s));
        out.e2e.insert(
            "sim_locality_pct",
            mean(
                &jobs
                    .iter()
                    .map(JobMetrics::data_locality_percent)
                    .collect::<Vec<_>>(),
            ),
        );
        out.e2e.insert(
            "network_bytes_per_user_byte",
            traffic as f64 / (tasks as f64 * block as f64),
        );

        let l = &mut out.layers;
        for (_, span, metric) in SCHEDULERS {
            l.insert(metric, run.busy_per_round(span));
        }
        l.insert(
            "mapreduce.run_job_traced.busy_s",
            run.busy_per_round("mapreduce.run_job_traced"),
        );
        l.insert("mapreduce.map_tasks", tasks as f64);
        l.insert("mapreduce.local_map_tasks", local as f64);
        l.insert(
            "mapreduce.locality_ratio",
            if tasks == 0 {
                0.0
            } else {
                local as f64 / tasks as f64
            },
        );
        l.insert(
            "mapreduce.degraded_reads",
            jobs.iter().map(|m| m.degraded_reads).sum::<usize>() as f64,
        );
        l.insert(
            "mapreduce.tasks_reexecuted",
            jobs.iter().map(|m| m.tasks_reexecuted).sum::<usize>() as f64,
        );
        l.insert("mapreduce.network_traffic_bytes", traffic as f64);
        l.insert(
            "mapreduce.shuffle_wait_s",
            jobs.iter().map(|m| m.shuffle_contention.total_s()).sum(),
        );
        l.insert(
            "sim.timeline_phases",
            jobs.iter().map(|m| m.timeline.phases.len()).sum::<usize>() as f64,
        );
        l.insert("sim.virtual_s_per_host_s", job_s.iter().sum::<f64>() / wall);
        l.insert(
            "cluster.place.busy_s",
            run.busy_in("cluster.place", Stage::Setup),
        );
        l.insert(
            "workloads.provision.busy_s",
            run.busy_in("workloads.provision", Stage::Setup),
        );

        out.note("jobs_per_round", jobs.len());
        out.note(
            "map_tasks_per_job",
            self.jobs
                .first()
                .map_or(0, |j| j.work.job.map_tasks().len()),
        );
        out.note(
            "failure_traces",
            format!(
                "{:?}",
                self.jobs.iter().map(|j| j.trace.len()).collect::<Vec<_>>()
            ),
        );
    }
}

/// Every simulated statistic of one job, as text (floats by their bits).
fn job_digest(m: &JobMetrics) -> String {
    let c = &m.shuffle_contention;
    let mut s = format!(
        "{}|{}|{:x}|{:x}|{:x}|{}|{}|{}|{}|{}|{}|{}|{}|{:x}|{:x}|{:x}",
        m.job,
        m.code,
        m.job_time_s.to_bits(),
        m.map_phase_s.to_bits(),
        m.reduce_phase_s.to_bits(),
        m.network_traffic_bytes,
        m.remote_input_bytes,
        m.degraded_read_bytes,
        m.shuffle_bytes,
        m.map_tasks,
        m.local_map_tasks,
        m.degraded_reads,
        m.tasks_reexecuted,
        c.source_nic_wait_s.to_bits(),
        c.dest_nic_wait_s.to_bits(),
        c.fabric_wait_s.to_bits(),
    );
    for p in &m.timeline.phases {
        s.push_str(&format!(
            "|{}:{}:{}:{}",
            p.label, p.start.0, p.end.0, p.bytes
        ));
    }
    s
}

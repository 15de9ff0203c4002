//! Tests of the benchmark itself: tiny runs of every workload report every
//! named metric with its unit and repeat their digests, self time is exact on
//! a hand-built span tree, and a corrupted read-back counts as a failure.

use bytes::Bytes;
use drc_core::codes::CodeKind;
use drc_core::hdfs::{BlockKey, DistributedFileSystem};
use perfbench::trace::{self_time_by_layer, self_times_ns, Span, Stage};
use perfbench::workloads::{ingest, verify_read_back};
use perfbench::{
    run, unit_of, Config, Cx, Outcome, Size, WorkloadName, END_TO_END, PER_LAYER, RESULT_END_TO_END,
};

fn tiny(workload: WorkloadName, seed: u64, trace: bool) -> Outcome {
    run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Tiny,
    })
    .expect("tiny set-up succeeds")
}

/// The end-to-end metrics each workload must report besides the common ones.
fn specific(workload: WorkloadName) -> &'static [&'static str] {
    match workload {
        WorkloadName::Ingest => &[
            "throughput_mib_s",
            "sim_io_s",
            "network_bytes_per_user_byte",
            "stored_bytes_per_user_byte",
        ],
        WorkloadName::DegradedRead => &[
            "throughput_mib_s",
            "sim_io_s",
            "sim_repair_s",
            "network_bytes_per_user_byte",
        ],
        WorkloadName::MapReduce => &[
            "sim_tasks_per_s",
            "sim_job_s",
            "sim_locality_pct",
            "network_bytes_per_user_byte",
        ],
        WorkloadName::ReproQuick => &[],
    }
}

#[test]
fn tiny_runs_print_every_named_metric_with_its_unit() {
    for workload in WorkloadName::ALL {
        for trace in [false, true] {
            let out = tiny(workload, 7, trace);
            let name = workload.as_str();
            assert!(out.correct(), "{name}: {:?}", out.failures);
            let lines = out.report_lines();
            let common = RESULT_END_TO_END.iter().chain(["failed_ops_frac"].iter());
            for metric in common.chain(specific(workload)) {
                let unit = unit_of(metric);
                assert!(!unit.is_empty(), "{metric} has a unit");
                assert!(
                    lines
                        .iter()
                        .any(|l| l.starts_with(&format!("e2e {metric} ")) && l.ends_with(unit)),
                    "{name}: e2e {metric} printed with {unit}"
                );
            }
            // The result line carries exactly the contract's metric set.
            let result = out.result_line();
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|(n, _)| *n).collect()
            } else {
                RESULT_END_TO_END.to_vec()
            };
            assert_eq!(out.result_metrics().len(), expected.len());
            for metric in expected {
                let needle = format!("\"{metric}\": {{\"value\": ");
                assert!(result.contains(&needle), "{name}: {metric} in {result}");
                assert!(result.contains(&format!("\"unit\": \"{}\"", unit_of(metric))));
                if trace {
                    assert!(
                        lines
                            .iter()
                            .any(|l| l.starts_with(&format!("layer {metric} "))),
                        "{name}: layer {metric} printed"
                    );
                }
            }
            if !trace {
                // CPU time counts 10 ms ticks, which a tiny round can miss.
                for (metric, value, _) in out.result_metrics() {
                    assert!(
                        value > 0.0 || metric == "cpu_s",
                        "{name}: {metric} is {value}, must be non-zero"
                    );
                }
            }
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn every_metric_name_is_declared_once() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    let before = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), before);
    for name in RESULT_END_TO_END {
        assert!(END_TO_END.iter().any(|(n, _)| n == name));
    }
}

#[test]
fn digests_repeat_at_one_seed_and_follow_the_seed() {
    for workload in [
        WorkloadName::Ingest,
        WorkloadName::DegradedRead,
        WorkloadName::MapReduce,
    ] {
        let a = tiny(workload, 11, false);
        let b = tiny(workload, 11, false);
        let c = tiny(workload, 12, false);
        assert_eq!(a.digest, b.digest, "{}", workload.as_str());
        // More rounds (a longer run) must not change the digest either.
        let longer = run(&Config {
            workload,
            seed: 11,
            seconds: 0.3,
            trace: false,
            size: Size::Tiny,
        })
        .expect("tiny set-up succeeds");
        assert_eq!(a.digest, longer.digest, "{}", workload.as_str());
        assert_ne!(a.digest, c.digest, "{}", workload.as_str());
        // Simulated metrics repeat exactly; `sim_tasks_per_s` is per host
        // second.
        for metric in specific(workload)
            .iter()
            .filter(|m| **m != "throughput_mib_s" && **m != "sim_tasks_per_s")
        {
            assert_eq!(a.e2e[metric], b.e2e[metric], "{metric}");
        }
    }
    // The traced run does the same simulated work as the untraced one.
    let plain = tiny(WorkloadName::ReproQuick, 1, false);
    let traced = tiny(WorkloadName::ReproQuick, 1, true);
    assert_eq!(plain.digest, traced.digest);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 1,
        stage: Stage::Round(0),
        pool_hits: 0,
        pool_misses: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let spans = vec![
        // 0: root [0, 100)
        span("perfbench.op", 0, 100, None),
        // 1, 2: overlapping children [10, 40) and [30, 60) cover [10, 60).
        span("hdfs.read_file", 10, 40, Some(0)),
        span("hdfs.sync", 30, 60, Some(0)),
        // 3: a child nested inside the first, [15, 25).
        span("sim.cluster_net", 15, 25, Some(1)),
        // 4: a child sticking out past its parent's end is clipped: [90, 120).
        span("mapreduce.run_job_traced", 90, 120, Some(0)),
        // 5: a child fully inside a sibling's interval adds nothing.
        span("hdfs.sync", 35, 38, Some(0)),
    ];
    // Root: 100 - |[10, 60) U [90, 100)| = 100 - 60 = 40.
    assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10, 30, 3]);
    let by_layer = self_time_by_layer(&spans, |_| true);
    let ns = |layer: &str| (by_layer[layer] * 1e9).round() as u64;
    assert_eq!(ns("perfbench"), 40);
    assert_eq!(ns("hdfs"), 53);
    assert_eq!(ns("sim"), 10);
    assert_eq!(ns("mapreduce"), 30);
}

#[test]
fn a_corrupted_read_back_counts_as_a_failed_operation() {
    let mut fs = DistributedFileSystem::new(ingest::cluster_spec(), 5);
    let data: Vec<u8> = (0..3 * 1024 * 1024 + 17)
        .map(|i| (i * 7 + 3) as u8)
        .collect();
    let id = fs
        .write_file("/f", &data, CodeKind::Pentagon)
        .expect("write");

    let mut cx = Cx::default();
    assert!(verify_read_back(&mut cx, "/f", fs.read_file(id), &data));
    assert_eq!((cx.attempted(), cx.failed()), (2, 0));

    // Flip one byte of the first block on every replica.
    let meta = fs.namenode().file(id).expect("meta").clone();
    let key = BlockKey::new(id, 0, 0);
    for &node in &meta.block_locations(0, 0).expect("locations") {
        let dn = fs.datanode(node).expect("datanode");
        let mut block = dn.read(&key).expect("block").to_vec();
        block[123] ^= 0x40;
        dn.store(key, Bytes::from(block));
    }
    assert!(!verify_read_back(&mut cx, "/f", fs.read_file(id), &data));
    assert_eq!((cx.attempted(), cx.failed()), (4, 1));

    // A read error is a failed operation too.
    let missing: Result<Vec<u8>, String> = Err("unavailable".into());
    assert!(!verify_read_back(&mut cx, "/f", missing, &data));
    assert_eq!((cx.attempted(), cx.failed()), (5, 2));
}

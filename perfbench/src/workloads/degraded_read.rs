//! `degraded_read`: repeated whole-file reads under permanent node failures,
//! then one RaidNode repair pass and a verified re-read.
//!
//! Set-up writes erasure-coded files (pentagon, heptagon, heptagon-local;
//! 2-rep is left out because two failures can take both of its replicas)
//! and permanently fails three nodes, chosen under the seeded placement so
//! that reads must reconstruct about the same amount for every seed while
//! every stripe stays within its code's tolerance. A round reads every file
//! once and checks it byte for byte. It exercises the same hdfs layer as
//! `ingest`, from the read, reconstruct and repair side.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use drc_core::cluster::NodeId;
use drc_core::codes::{CodeKind, ErasureCode};
use drc_core::hdfs::{DistributedFileSystem, FileId, RepairReport};

use super::ingest::cluster_spec;
use super::{code_shapes, plan_files, verify_read_back, FilePlan, Sizing, MIB};
use crate::trace::Stage;
use crate::{fill_payload, fnv1a, mix, Cx, Report, RunStats, Size, Workload, FNV_START};

/// The erasure codes written.
pub const CODES: [CodeKind; 3] = [
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
];

/// Timeline prefix of the phases a degraded read records.
const DEGRADED_PREFIX: &str = "degraded-read:";

/// User bytes per code, rounded to whole stripes of one-stripe files:
/// 6 pentagon (9 MiB), 7 heptagon (20 MiB) and 4 heptagon-local (40 MiB)
/// files, 354 MiB. The median read is then a heptagon file, most of which
/// need no reconstruction whichever nodes fail, so `op_p50_ms` does not sit
/// on the edge between plain and degraded reads and move with the seed.
fn bytes_per_code(size: Size, code: CodeKind) -> usize {
    match (size, code) {
        (Size::Tiny, _) => 1,
        (Size::Full, CodeKind::Pentagon) => 54 * MIB,
        (Size::Full, CodeKind::Heptagon) => 140 * MIB,
        (Size::Full, _) => 160 * MIB,
    }
}

fn sizing(size: Size) -> Sizing {
    match size {
        Size::Full => Sizing {
            payload_bytes: 64 * MIB,
            min_file: MIB,
            max_file: MIB,
        },
        Size::Tiny => Sizing {
            payload_bytes: 48 * MIB,
            min_file: MIB,
            max_file: MIB,
        },
    }
}

/// One read pass over every file, in simulated terms.
#[derive(Debug, Clone, Copy, Default)]
struct Pass {
    virtual_s: f64,
    read_bytes: u64,
    degraded_bytes: u64,
    phases: usize,
    errors: u64,
}

/// The degraded-read workload: a file system with failed nodes.
#[derive(Debug)]
pub struct DegradedRead {
    fs: DistributedFileSystem,
    payload: Vec<u8>,
    files: Vec<(FilePlan, FileId)>,
    failed: Vec<NodeId>,
    user_bytes: u64,
    last: Pass,
    repair: RepairReport,
}

impl DegradedRead {
    /// Reads every file once inside timed operations, verifying each.
    fn read_pass(&mut self, cx: &mut Cx, primary: bool) -> Pass {
        let start = self.fs.now();
        let read0 = self.fs.stats().read_network_bytes;
        let degraded0 = self.fs.timeline().bytes_with_prefix(DEGRADED_PREFIX);
        let phases0 = self.fs.timeline().phases.len();
        let mut pass = Pass::default();
        for (f, id) in &self.files {
            let fs = &mut self.fs;
            let read = cx.op(primary, |cx| {
                cx.call("hdfs.read_file", || fs.read_file(*id))
            });
            pass.errors += u64::from(read.is_err());
            verify_read_back(cx, &f.name, read, &self.payload[f.offset..f.offset + f.len]);
        }
        let fs = &mut self.fs;
        let end = cx.op(false, |cx| cx.call("hdfs.sync", || fs.sync()));
        pass.virtual_s = end.since(start).as_secs_f64();
        pass.read_bytes = self.fs.stats().read_network_bytes - read0;
        pass.degraded_bytes = self.fs.timeline().bytes_with_prefix(DEGRADED_PREFIX) - degraded0;
        pass.phases = self.fs.timeline().phases.len() - phases0;
        pass
    }
}

/// The degraded-read traffic a failure set aims at, in blocks fetched per
/// data block read: a degraded share of about 0.25 / 1.25 = 20% of the
/// bytes a read pass moves.
const TARGET_DEGRADED_PER_BLOCK: f64 = 0.25;

/// Chooses the three permanently failed nodes.
///
/// A data block must be reconstructed when both its replicas are on failed
/// nodes; its read plan says how many blocks that fetches. Of the node
/// triples that keep every stripe within its code's fault tolerance, the one
/// whose reconstruction traffic per read pass is closest to
/// [`TARGET_DEGRADED_PER_BLOCK`] per data block is chosen (ties: the lowest
/// triple), so the degraded share is about the same for every seed's
/// placement.
fn choose_failures(fs: &DistributedFileSystem, ids: &[FileId]) -> Result<Vec<NodeId>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // Per stripe: its hosts, code and tolerance.
    let mut stripes: Vec<(Vec<NodeId>, Arc<dyn ErasureCode>, usize)> = Vec::new();
    // Per node pair: the data blocks (stripe index, block) it holds both
    // replicas of.
    let mut pair_blocks: BTreeMap<(NodeId, NodeId), Vec<(usize, usize)>> = BTreeMap::new();
    let mut data_blocks = 0usize;
    for &id in ids {
        let meta = fs.namenode().file(id).map_err(|e| err(&e))?;
        let code = meta.code.build().map_err(|e| err(&e))?;
        let tolerance = code.fault_tolerance();
        let first = stripes.len();
        for stripe in 0..meta.stripes {
            let hosts = meta.placement.stripe_hosts(stripe).map_err(|e| err(&e))?;
            stripes.push((hosts.to_vec(), Arc::clone(&code), tolerance));
        }
        for key in meta.content_block_keys() {
            data_blocks += 1;
            let nodes = meta
                .block_locations(key.stripe, key.block)
                .map_err(|e| err(&e))?;
            if let [a, b] = nodes[..] {
                pair_blocks
                    .entry((a.min(b), a.max(b)))
                    .or_default()
                    .push((first + key.stripe, key.block));
            }
        }
    }
    let within_tolerance = |set: &[NodeId]| {
        stripes
            .iter()
            .all(|(hosts, _, tol)| hosts.iter().filter(|n| set.contains(n)).count() <= *tol)
    };
    // Blocks fetched by the degraded reads of one pass, `None` if a block
    // could not be read at all.
    let degraded_blocks = |set: &[NodeId]| -> Option<usize> {
        let mut fetched = 0;
        for (i, &a) in set.iter().enumerate() {
            for &b in &set[i + 1..] {
                for &(stripe, block) in pair_blocks.get(&(a.min(b), a.max(b))).into_iter().flatten()
                {
                    let (hosts, code, _) = &stripes[stripe];
                    let down: BTreeSet<usize> = (0..hosts.len())
                        .filter(|&l| set.contains(&hosts[l]))
                        .collect();
                    fetched += code.degraded_read_plan(block, &down).ok()?.network_blocks;
                }
            }
        }
        Some(fetched)
    };
    let target = TARGET_DEGRADED_PER_BLOCK * data_blocks as f64;
    let nodes: Vec<NodeId> = fs.cluster().nodes().collect();
    let shares_blocks = |a: NodeId, b: NodeId| pair_blocks.contains_key(&(a.min(b), a.max(b)));
    let mut best: Option<(f64, Vec<NodeId>)> = None;
    for (i, &a) in nodes.iter().enumerate() {
        for (j, &b) in nodes.iter().enumerate().skip(i + 1) {
            for &c in nodes.iter().skip(j + 1) {
                let set = [a, b, c];
                if !(shares_blocks(a, b) || shares_blocks(a, c) || shares_blocks(b, c))
                    || !within_tolerance(&set)
                {
                    continue;
                }
                let Some(fetched) = degraded_blocks(&set) else {
                    continue;
                };
                let distance = (fetched as f64 - target).abs();
                if best.as_ref().is_none_or(|(d, _)| distance < *d) {
                    best = Some((distance, set.to_vec()));
                }
            }
        }
    }
    best.map(|(_, set)| set)
        .ok_or_else(|| "no failure set needs reconstruction within tolerance".to_string())
}

impl Workload for DegradedRead {
    // Three windows of at least 400 reads (about 24 rounds each). The
    // slowest file of a round is 6% of the reads, so p97.5 falls inside its
    // latencies rather than on the edge of a size class.
    const TAIL_PERCENTILE: f64 = 97.5;
    const TAIL_WINDOWS: usize = 3;

    fn setup(size: Size, seed: u64, _cx: &mut Cx) -> Result<Self, String> {
        let sizing = sizing(size);
        let mut payload = vec![0u8; sizing.payload_bytes];
        fill_payload(mix(seed, 11), &mut payload);
        let block = cluster_spec().block_size_bytes() as usize;
        let plans = plan_files(
            "/degraded",
            &code_shapes(&CODES.map(|c| (c, bytes_per_code(size, c))))?,
            block,
            sizing,
            mix(seed, 12),
        );
        let mut fs = DistributedFileSystem::new(cluster_spec(), mix(seed, 13));
        let mut files = Vec::with_capacity(plans.len());
        for f in plans {
            let id = fs
                .write_file(&f.name, &payload[f.offset..f.offset + f.len], f.code)
                .map_err(|e| e.to_string())?;
            files.push((f, id));
        }
        fs.sync();
        let ids: Vec<FileId> = files.iter().map(|(_, id)| *id).collect();
        let failed = choose_failures(&fs, &ids)?;
        for &node in &failed {
            fs.fail_node_permanently(node);
        }
        fs.sync();
        Ok(DegradedRead {
            user_bytes: files.iter().map(|(f, _)| f.len as u64).sum(),
            fs,
            payload,
            files,
            failed,
            last: Pass::default(),
            repair: RepairReport::default(),
        })
    }

    fn round(&mut self, cx: &mut Cx) -> u64 {
        let pass = self.read_pass(cx, true);
        self.last = pass;
        let mut digest = FNV_START;
        for v in [
            pass.virtual_s.to_bits(),
            pass.read_bytes,
            pass.degraded_bytes,
            pass.phases as u64,
            pass.errors,
        ] {
            digest = fnv1a(digest, &v.to_le_bytes());
        }
        digest
    }

    fn finish(&mut self, cx: &mut Cx) -> u64 {
        let (fs, failed) = (&mut self.fs, &self.failed);
        let repaired = cx.op(false, |cx| {
            cx.call("hdfs.repair_nodes", || fs.repair_nodes(failed))
        });
        let fs = &mut self.fs;
        cx.op(false, |cx| cx.call("hdfs.sync", || fs.sync()));
        if let Some(report) = cx.attempt("repair_nodes", repaired) {
            cx.check(report.unrecoverable_stripes == 0, || {
                format!(
                    "{} stripes were unrecoverable",
                    report.unrecoverable_stripes
                )
            });
            cx.check(report.blocks_restored > 0, || {
                "the repair restored no block".into()
            });
            self.repair = report;
        }
        // The verified re-read: after the repair no read may be degraded.
        let reread = self.read_pass(cx, false);
        cx.check(reread.degraded_bytes == 0, || {
            format!(
                "{} bytes still read degraded after the repair",
                reread.degraded_bytes
            )
        });
        let r = &self.repair;
        let mut digest = FNV_START;
        for v in [
            r.stripes_repaired as u64,
            r.blocks_restored as u64,
            r.network_bytes,
            r.unrecoverable_stripes as u64,
            // The pass's duration, not its instants: those move with the
            // number of rounds run before it.
            r.completed_at.since(r.issued_at).0,
            reread.read_bytes,
            reread.virtual_s.to_bits(),
        ] {
            digest = fnv1a(digest, &v.to_le_bytes());
        }
        digest
    }

    fn report(&self, run: &RunStats, out: &mut Report) {
        let p = &self.last;
        let user = self.user_bytes as f64;
        let wall = run.wall_s();
        let repair_s = self
            .repair
            .completed_at
            .since(self.repair.issued_at)
            .as_secs_f64();
        out.e2e.insert("throughput_mib_s", user / MIB as f64 / wall);
        out.e2e.insert("sim_io_s", p.virtual_s);
        out.e2e.insert("sim_repair_s", repair_s);
        out.e2e.insert(
            "network_bytes_per_user_byte",
            (p.read_bytes + self.repair.network_bytes) as f64 / user,
        );

        let stats = self.fs.stats();
        let degraded_share = if p.read_bytes == 0 {
            0.0
        } else {
            p.degraded_bytes as f64 / p.read_bytes as f64
        };
        let l = &mut out.layers;
        l.insert(
            "hdfs.read_file.calls",
            run.calls_per_round("hdfs.read_file"),
        );
        l.insert(
            "hdfs.read_file.busy_s",
            run.busy_per_round("hdfs.read_file"),
        );
        l.insert(
            "hdfs.repair_nodes.busy_s",
            run.busy_in("hdfs.repair_nodes", Stage::Finish),
        );
        l.insert("hdfs.errors", p.errors as f64);
        l.insert("hdfs.stored_bytes", stats.stored_bytes as f64);
        l.insert("hdfs.read_network_bytes", p.read_bytes as f64);
        l.insert(
            "hdfs.repair_network_bytes",
            stats.repair_network_bytes as f64,
        );
        l.insert("hdfs.degraded_read_bytes", p.degraded_bytes as f64);
        l.insert("hdfs.blocks_restored", self.repair.blocks_restored as f64);
        l.insert("hdfs.stripes_repaired", self.repair.stripes_repaired as f64);
        l.insert(
            "hdfs.unrecoverable_stripes",
            self.repair.unrecoverable_stripes as f64,
        );
        l.insert("hdfs.degraded_share", degraded_share);
        l.insert("sim.timeline_phases", p.phases as f64);
        l.insert("sim.virtual_s_per_host_s", p.virtual_s / wall);

        out.note("files", self.files.len());
        out.note("user_bytes_per_round", self.user_bytes);
        out.note("stored_bytes", stats.stored_bytes);
        out.note(
            "failed_nodes",
            format!("{:?}", self.failed.iter().map(|n| n.0).collect::<Vec<_>>()),
        );
        out.note("degraded_share", degraded_share);
    }
}

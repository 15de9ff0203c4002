//! `ingest`: one client writes many multi-MiB files through
//! `DistributedFileSystem::write_file`, rotating through the paper's codes.
//!
//! It drives the write path: hdfs write → codes encode → gf kernels →
//! bufpool allocation. A round drops the previous round's file system and
//! writes every planned file into a fresh one (1 MiB blocks on the 25-node
//! simulation cluster). The distinct block buffers live in a round exceed
//! `drc_gf::bufpool`'s 512 MiB cap, so this is the workload larger than the
//! program's own buffer cache. After the timed phase every file of the last
//! round is read back and compared with the seeded original.

use std::collections::BTreeMap;

use drc_core::cluster::ClusterSpec;
use drc_core::codes::CodeKind;
use drc_core::hdfs::{DistributedFileSystem, FileId, FsStats};

use super::{code_shapes, plan_files, verify_read_back, FilePlan, Sizing, MIB};
use crate::{fill_payload, fnv1a, mix, Cx, Report, RunStats, Size, Workload, FNV_START};

/// The paper's codes, in rotation order.
pub const CODES: [CodeKind; 4] = [
    CodeKind::TWO_REP,
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
];

/// User bytes per code and round, rounded to whole stripes.
fn bytes_per_code(size: Size) -> usize {
    match size {
        // 588 MiB of user data in 45 files per round.
        Size::Full => 144 * MIB,
        // One stripe per code.
        Size::Tiny => 1,
    }
}

fn sizing(size: Size) -> Sizing {
    match size {
        Size::Full => Sizing {
            payload_bytes: 64 * MIB,
            min_file: 4 * MIB,
            max_file: 12 * MIB,
        },
        Size::Tiny => Sizing {
            payload_bytes: 48 * MIB,
            min_file: MIB,
            max_file: MIB,
        },
    }
}

/// The 25-node simulation cluster with 1 MiB blocks.
pub fn cluster_spec() -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = 1;
    spec
}

/// What a round's file system held once its writes landed.
#[derive(Debug, Clone, Copy, Default)]
struct RoundRecord {
    stats: FsStats,
    sim_io_s: f64,
    phases: usize,
    stripes: usize,
    parity_bytes: u64,
    errors: u64,
}

/// The ingest workload's inputs and last round.
#[derive(Debug)]
pub struct Ingest {
    fs_seed: u64,
    payload: Vec<u8>,
    files: Vec<FilePlan>,
    /// `(data blocks, distinct blocks)` per stripe of each code.
    shapes: BTreeMap<CodeKind, (usize, usize)>,
    user_bytes: u64,
    last: RoundRecord,
    /// The last round's file system and file ids, verified by `finish`.
    written: Option<(DistributedFileSystem, Vec<Option<FileId>>)>,
}

impl Workload for Ingest {
    // Five windows of at least 400 writes (about 9 rounds each). The four
    // heaviest files of a round are 9% of the writes, so p97.5 falls well
    // inside their latencies rather than on the edge of a size class.
    const TAIL_PERCENTILE: f64 = 97.5;
    const TAIL_WINDOWS: usize = 5;

    fn setup(size: Size, seed: u64, _cx: &mut Cx) -> Result<Self, String> {
        let sizing = sizing(size);
        let mut payload = vec![0u8; sizing.payload_bytes];
        fill_payload(mix(seed, 1), &mut payload);
        let block = cluster_spec().block_size_bytes() as usize;
        let files = plan_files(
            "/ingest",
            &code_shapes(&CODES.map(|c| (c, bytes_per_code(size))))?,
            block,
            sizing,
            mix(seed, 2),
        );
        let mut shapes = BTreeMap::new();
        for code in CODES {
            let built = code.build().map_err(|e| e.to_string())?;
            shapes.insert(code, (built.data_blocks(), built.distinct_blocks()));
        }
        let w = Ingest {
            fs_seed: mix(seed, 3),
            user_bytes: files.iter().map(|f| f.len as u64).sum(),
            payload,
            files,
            shapes,
            last: RoundRecord::default(),
            written: None,
        };
        // Warm-up: one file per code through a throwaway file system.
        let mut fs = DistributedFileSystem::new(cluster_spec(), w.fs_seed);
        for f in w.files.iter().take(CODES.len()) {
            let data = &w.payload[f.offset..f.offset + f.len];
            let id = fs
                .write_file(&f.name, data, f.code)
                .map_err(|e| e.to_string())?;
            if fs.read_file(id).map_err(|e| e.to_string())? != data {
                return Err(format!("warm-up read-back of {} differs", f.name));
            }
        }
        Ok(w)
    }

    fn round(&mut self, cx: &mut Cx) -> u64 {
        if let Some(previous) = self.written.take() {
            cx.op(false, |cx| cx.call("hdfs.drop", || drop(previous)));
        }
        let fs_seed = self.fs_seed;
        let mut fs = cx.op(false, |cx| {
            cx.call("hdfs.new", || {
                DistributedFileSystem::new(cluster_spec(), fs_seed)
            })
        });
        let mut rec = RoundRecord::default();
        let mut ids: Vec<Option<FileId>> = Vec::with_capacity(self.files.len());
        for f in &self.files {
            let data = &self.payload[f.offset..f.offset + f.len];
            let written = cx.op(true, |cx| {
                let id = cx.call("hdfs.write_file", || fs.write_file(&f.name, data, f.code));
                // Closed loop in virtual time too: the next write starts
                // once this one has landed.
                cx.call("hdfs.sync", || fs.sync());
                id
            });
            let id = cx.attempt(&f.name, written);
            rec.errors += u64::from(id.is_none());
            ids.push(id);
        }

        rec.stats = fs.stats();
        rec.sim_io_s = fs.now().as_secs_f64();
        rec.phases = fs.timeline().phases.len();
        let block = cluster_spec().block_size_bytes();
        let mut digest = FNV_START;
        for (f, id) in self.files.iter().zip(&ids) {
            let Some(meta) = id.and_then(|id| fs.namenode().file(id).ok()) else {
                digest = fnv1a(digest, b"error");
                continue;
            };
            let (data_blocks, distinct) = self.shapes[&f.code];
            rec.stripes += meta.stripes;
            rec.parity_bytes += (meta.stripes * (distinct - data_blocks)) as u64 * block;
            for v in [meta.id.0, meta.stripes as u64, meta.created_at.0] {
                digest = fnv1a(digest, &v.to_le_bytes());
            }
            for key in meta.content_block_keys() {
                if let Ok(nodes) = meta.block_locations(key.stripe, key.block) {
                    for node in nodes.iter() {
                        digest = fnv1a(digest, &node.0.to_le_bytes());
                    }
                }
            }
        }
        for v in [
            rec.stats.files as u64,
            rec.stats.stored_blocks as u64,
            rec.stats.stored_bytes,
            rec.stats.write_network_bytes,
            fs.now().0,
            rec.phases as u64,
        ] {
            digest = fnv1a(digest, &v.to_le_bytes());
        }
        self.last = rec;
        self.written = Some((fs, ids));
        digest
    }

    fn finish(&mut self, cx: &mut Cx) -> u64 {
        let Some((mut fs, ids)) = self.written.take() else {
            return 0;
        };
        // Untimed: every file of the last round read back and compared
        // with the seeded original.
        for (f, id) in self.files.iter().zip(&ids) {
            if let Some(id) = id {
                let data = &self.payload[f.offset..f.offset + f.len];
                verify_read_back(cx, &f.name, fs.read_file(*id), data);
            }
        }
        cx.op(false, |cx| cx.call("hdfs.drop", || drop(fs)));
        0
    }

    fn report(&self, run: &RunStats, out: &mut Report) {
        let r = &self.last;
        let user = self.user_bytes as f64;
        let wall = run.wall_s();
        out.e2e.insert("throughput_mib_s", user / MIB as f64 / wall);
        out.e2e.insert("sim_io_s", r.sim_io_s);
        out.e2e.insert(
            "network_bytes_per_user_byte",
            r.stats.write_network_bytes as f64 / user,
        );
        out.e2e.insert(
            "stored_bytes_per_user_byte",
            r.stats.stored_bytes as f64 / user,
        );

        let l = &mut out.layers;
        l.insert(
            "hdfs.write_file.calls",
            run.calls_per_round("hdfs.write_file"),
        );
        l.insert(
            "hdfs.write_file.busy_s",
            run.busy_per_round("hdfs.write_file"),
        );
        l.insert("hdfs.errors", r.errors as f64);
        l.insert("hdfs.stored_bytes", r.stats.stored_bytes as f64);
        l.insert(
            "hdfs.write_network_bytes",
            r.stats.write_network_bytes as f64,
        );
        l.insert("codes.stripes_encoded", r.stripes as f64);
        l.insert("codes.parity_bytes", r.parity_bytes as f64);
        l.insert("sim.timeline_phases", r.phases as f64);
        l.insert("sim.virtual_s_per_host_s", r.sim_io_s / wall);

        out.note("files_per_round", self.files.len());
        out.note("user_bytes_per_round", self.user_bytes);
        out.note("stored_bytes_per_round", r.stats.stored_bytes);
        out.note("bufpool_cap_bytes", drc_core::gf::bufpool::MAX_POOLED_BYTES);
    }
}

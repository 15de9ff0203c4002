//! The four workloads and the input generation they share.

pub mod degraded_read;
pub mod ingest;
pub mod mapreduce;
pub mod repro_quick;

use drc_core::codes::CodeKind;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::Cx;

const MIB: usize = 1024 * 1024;

/// One file a workload writes: a slice of the seeded payload buffer.
#[derive(Debug, Clone)]
pub struct FilePlan {
    /// HDFS path.
    pub name: String,
    /// Start of the file's bytes in the payload buffer.
    pub offset: usize,
    /// File length in bytes.
    pub len: usize,
    /// The code protecting the file.
    pub code: CodeKind,
}

/// How large a workload's files are.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Seeded payload buffer the files are sliced from (at least the
    /// largest file).
    pub payload_bytes: usize,
    /// Files span `ceil(min_file / stripe)` up to `floor(max_file / stripe)`
    /// stripes (at least one).
    pub min_file: usize,
    /// See `min_file`.
    pub max_file: usize,
}

/// Plans the files of a round. Each `(code, data blocks, bytes)` entry gets
/// `bytes` of user data rounded to whole stripes (`data blocks` x `block`
/// bytes each), split into files whose stripe counts cycle through a fixed
/// range, so every seed
/// writes the same number of stripes in files of the same stripe counts:
/// the work is the same for every seed. The seed picks where each file's
/// bytes come from in the payload and trims up to half a block off its end,
/// so short tail blocks are exercised without changing the stripe count.
/// The files of the codes are interleaved round-robin.
pub fn plan_files(
    prefix: &str,
    codes: &[(CodeKind, usize, usize)],
    block: usize,
    sizing: Sizing,
    seed: u64,
) -> Vec<FilePlan> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut per_code: Vec<Vec<FilePlan>> = Vec::new();
    for &(code, data_blocks, bytes) in codes {
        let stripe = data_blocks * block;
        let lo = sizing.min_file.div_ceil(stripe).max(1);
        let hi = (sizing.max_file / stripe).max(lo);
        let mut stripes_left = (bytes as f64 / stripe as f64).round().max(1.0) as usize;
        let mut files = Vec::new();
        for stripes in (lo..=hi).cycle() {
            if stripes_left == 0 {
                break;
            }
            let stripes = stripes.min(stripes_left);
            stripes_left -= stripes;
            let len = stripes * stripe - rng.gen_range(0..block / 2);
            let offset = rng.gen_range(0..=sizing.payload_bytes - len);
            files.push(FilePlan {
                name: String::new(),
                offset,
                len,
                code,
            });
        }
        per_code.push(files);
    }
    let mut plans = Vec::new();
    let longest = per_code.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for files in &per_code {
            if let Some(f) = files.get(i) {
                plans.push(FilePlan {
                    name: format!("{prefix}/{:04}", plans.len()),
                    ..f.clone()
                });
            }
        }
    }
    plans
}

/// Each code with its data blocks per stripe and its user bytes, as
/// [`plan_files`] takes them.
pub fn code_shapes(codes: &[(CodeKind, usize)]) -> Result<Vec<(CodeKind, usize, usize)>, String> {
    codes
        .iter()
        .map(|&(c, bytes)| {
            let k = c.build().map_err(|e| e.to_string())?.data_blocks();
            Ok((c, k, bytes))
        })
        .collect()
}

/// Checks a read-back against the bytes originally written: one operation,
/// failed on a read error or on any differing byte.
pub fn verify_read_back<E: std::fmt::Display>(
    cx: &mut Cx,
    name: &str,
    read: Result<Vec<u8>, E>,
    expected: &[u8],
) -> bool {
    match cx.attempt(name, read) {
        Some(got) => cx.check(got == expected, || {
            let at = got
                .iter()
                .zip(expected)
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(expected.len()));
            format!(
                "{name}: read-back differs from the written bytes at offset {at} \
                 ({} bytes read, {} written)",
                got.len(),
                expected.len()
            )
        }),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_the_same_stripes_for_every_seed() {
        let codes = [
            (CodeKind::TWO_REP, 1, 40 * MIB),
            (CodeKind::Pentagon, 9, 40 * MIB),
        ];
        let sizing = Sizing {
            payload_bytes: 64 * MIB,
            min_file: 4 * MIB,
            max_file: 12 * MIB,
        };
        let stripes = |plans: &[FilePlan]| -> Vec<(CodeKind, usize)> {
            plans
                .iter()
                .map(|p| {
                    let k = if p.code == CodeKind::TWO_REP { 1 } else { 9 };
                    (p.code, p.len.div_ceil(k * MIB))
                })
                .collect()
        };
        let a = plan_files("/t", &codes, MIB, sizing, 1);
        let b = plan_files("/t", &codes, MIB, sizing, 2);
        assert_eq!(stripes(&a), stripes(&b));
        assert_ne!(
            a.iter().map(|p| p.offset).collect::<Vec<_>>(),
            b.iter().map(|p| p.offset).collect::<Vec<_>>()
        );
        // 2-rep: 40 one-block stripes in files of 4..=12; pentagon: 4 files
        // of one 9-block stripe (40 MiB rounds to 4 stripes).
        let per = |code| {
            stripes(&a)
                .iter()
                .filter(|(c, _)| *c == code)
                .map(|(_, s)| *s)
                .collect::<Vec<_>>()
        };
        assert_eq!(per(CodeKind::TWO_REP), vec![4, 5, 6, 7, 8, 9, 1]);
        assert_eq!(per(CodeKind::Pentagon), vec![1, 1, 1, 1]);
        assert_eq!(a[0].code, CodeKind::TWO_REP);
        assert_eq!(a[1].code, CodeKind::Pentagon);
        assert!(a.iter().all(|p| p.offset + p.len <= sizing.payload_bytes));
        assert!(a
            .iter()
            .all(|p| p.len > 0 && p.len % MIB >= MIB / 2 || p.len % MIB == 0));
    }
}

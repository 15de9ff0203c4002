//! The decoder oracle: every code's one reconstruction engine checked
//! against the original data, never against a second decoder.
//!
//! For every evaluated code and every node-failure pattern up to its fault
//! tolerance, `ErasureCode::decode` must return the data that was encoded,
//! and every fully-lost distinct block — data or parity — rebuilt by
//! `StripeReconstructor` must equal the encoded block. One failure beyond
//! the tolerance, `decode` succeeds exactly when `can_recover` says so.

use std::collections::{BTreeMap, BTreeSet};

use drc_codes::{CodeError, CodeKind, ErasureCode, StripeReconstructor};
use drc_gf::slice;
use proptest::prelude::*;

/// Every code kind of the property tests, plus the RS(6,3) baseline.
const ORACLE_KINDS: [CodeKind; 9] = [
    CodeKind::TWO_REP,
    CodeKind::THREE_REP,
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
    CodeKind::RAID_M_10_9,
    CodeKind::RAID_M_12_11,
    CodeKind::ReedSolomon {
        data: 10,
        parity: 4,
    },
    CodeKind::ReedSolomon { data: 6, parity: 3 },
];

/// Every subset of `0..n` with exactly `size` elements, in lexicographic
/// order.
fn subsets(n: usize, size: usize) -> Vec<BTreeSet<usize>> {
    if size > n {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut subset: Vec<usize> = (0..size).collect();
    loop {
        out.push(subset.iter().copied().collect());
        let mut i = size;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if subset[i] != i + n - size {
                subset[i] += 1;
                for j in i + 1..size {
                    subset[j] = subset[j - 1] + 1;
                }
                break;
            }
        }
    }
}

fn block(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + salt * 131 + 7) as u8).collect()
}

/// The distinct blocks that survive `failed`, with their encoded payloads.
fn surviving(
    code: &dyn ErasureCode,
    coded: &[Vec<u8>],
    failed: &BTreeSet<usize>,
) -> BTreeMap<usize, Vec<u8>> {
    code.structure()
        .layout
        .surviving_blocks(failed)
        .into_iter()
        .map(|b| (b, coded[b].clone()))
        .collect()
}

/// Rebuilds `targets` from `available` with one reconstructor.
fn rebuild(
    code: &dyn ErasureCode,
    available: &BTreeMap<usize, Vec<u8>>,
    targets: &[usize],
    len: usize,
) -> Result<Vec<Vec<u8>>, CodeError> {
    let keys: BTreeSet<usize> = available.keys().copied().collect();
    let rec = StripeReconstructor::plan(code.structure(), &keys, targets)?;
    let sources: Vec<&[u8]> = rec
        .sources()
        .iter()
        .map(|b| available[b].as_slice())
        .collect();
    let mut outs = vec![vec![0xeeu8; len]; targets.len()];
    rec.reconstruct_into(&sources, &mut outs);
    Ok(outs)
}

#[test]
fn every_code_recovers_the_original_data_from_every_tolerated_pattern() {
    let len = 67;
    for kind in ORACLE_KINDS {
        let code = kind.build().expect("code builds");
        let code = code.as_ref();
        let data: Vec<Vec<u8>> = (0..code.data_blocks()).map(|b| block(len, b)).collect();
        let coded = code.encode(&data).expect("encodes");
        let tolerance = code.fault_tolerance();
        for size in 0..=tolerance {
            for failed in subsets(code.node_count(), size) {
                let available = surviving(code, &coded, &failed);
                let decoded = code
                    .decode(&available, len)
                    .unwrap_or_else(|e| panic!("{kind}: decode after {failed:?}: {e}"));
                assert_eq!(decoded, data, "{kind}: decode after {failed:?}");
                let lost: Vec<usize> = code
                    .structure()
                    .layout
                    .fully_lost_blocks(&failed)
                    .into_iter()
                    .collect();
                let rebuilt = rebuild(code, &available, &lost, len)
                    .unwrap_or_else(|e| panic!("{kind}: rebuild after {failed:?}: {e}"));
                for (b, bytes) in lost.iter().zip(&rebuilt) {
                    assert_eq!(bytes, &coded[*b], "{kind}: block {b} after {failed:?}");
                }
            }
        }
        // One failure past the tolerance: decode and can_recover agree.
        for failed in subsets(code.node_count(), tolerance + 1) {
            let available = surviving(code, &coded, &failed);
            let decoded = code.decode(&available, len);
            assert_eq!(
                decoded.is_ok(),
                code.can_recover(&failed),
                "{kind}: {failed:?}"
            );
            match decoded {
                Ok(decoded) => assert_eq!(decoded, data, "{kind}: decode after {failed:?}"),
                Err(e) => assert!(
                    matches!(e, CodeError::Unrecoverable { .. }),
                    "{kind}: {failed:?}: {e}"
                ),
            }
        }
    }
}

#[test]
fn reconstruct_from_every_possible_loss_pattern() {
    // RS(5,3): every pattern of up to three lost blocks rebuilds every lost
    // block, data and parity.
    let code = CodeKind::ReedSolomon { data: 5, parity: 3 }
        .build()
        .expect("code builds");
    let code = code.as_ref();
    let len = 24;
    let data: Vec<Vec<u8>> = (0..5).map(|b| block(len, b)).collect();
    let coded = code.encode(&data).expect("encodes");
    for size in 0..=3 {
        for failed in subsets(8, size) {
            let available = surviving(code, &coded, &failed);
            let lost: Vec<usize> = failed.iter().copied().collect();
            let rebuilt = rebuild(code, &available, &lost, len).expect("rebuilds");
            for (b, bytes) in lost.iter().zip(&rebuilt) {
                assert_eq!(bytes, &coded[*b], "block {b} after losing {failed:?}");
            }
            assert_eq!(code.decode(&available, len).expect("decodes"), data);
        }
    }
}

#[test]
fn reconstruct_fails_with_too_few_shards() {
    // RS(4,2) with only three of six blocks left: a typed Unrecoverable
    // error from both the planner and decode, never wrong bytes.
    let code = CodeKind::ReedSolomon { data: 4, parity: 2 }
        .build()
        .expect("code builds");
    let code = code.as_ref();
    let data: Vec<Vec<u8>> = (0..4).map(|b| block(8, b)).collect();
    let coded = code.encode(&data).expect("encodes");
    let available: BTreeMap<usize, Vec<u8>> = (0..3).map(|b| (b, coded[b].clone())).collect();
    let err = rebuild(code, &available, &[3], 8).expect_err("three shards cannot span RS(4,2)");
    assert!(matches!(err, CodeError::Unrecoverable { .. }), "{err}");
    let err = code.decode(&available, 8).expect_err("decode must fail");
    assert!(matches!(err, CodeError::Unrecoverable { .. }), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exactly `m` pseudo-randomly chosen blocks of an RS(k, m) stripe are
    /// lost; every one of them rebuilds to its encoded bytes.
    #[test]
    fn rs_reconstructs_random_losses(
        k in 2usize..8,
        m in 1usize..5,
        len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let code = CodeKind::ReedSolomon { data: k, parity: m }.build().unwrap();
        let code = code.as_ref();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| (seed as usize + i * 31 + j * 7) as u8).collect())
            .collect();
        let coded = code.encode(&data).unwrap();
        let mut failed = BTreeSet::new();
        let mut idx = seed as usize;
        while failed.len() < m {
            idx = idx.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            failed.insert(idx % (k + m));
        }
        let available = surviving(code, &coded, &failed);
        let lost: Vec<usize> = failed.iter().copied().collect();
        let rebuilt = rebuild(code, &available, &lost, len).unwrap();
        for (b, bytes) in lost.iter().zip(&rebuilt) {
            prop_assert_eq!(bytes, &coded[*b]);
        }
        prop_assert_eq!(code.decode(&available, len).unwrap(), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Rebuilding at pool width 1 and at widths 2–4 gives identical bytes
    /// for every erasure pattern up to `r` losses, at block sizes where the
    /// parallel split engages.
    #[test]
    fn parallel_reconstruct_matches_single_thread_for_all_patterns(
        k in 2usize..6,
        r in 1usize..4,
        extra in 0usize..257,
        threads in 2usize..5,
    ) {
        let len = slice::PAR_ENGAGE_MIN + extra;
        let code = CodeKind::ReedSolomon { data: k, parity: r }.build().unwrap();
        let code = code.as_ref();
        let data: Vec<Vec<u8>> = (0..k).map(|i| block(len, i)).collect();
        let coded = rayon::with_num_threads(1, || code.encode(&data).unwrap());
        for size in 0..=r {
            for failed in subsets(k + r, size) {
                let available = surviving(code, &coded, &failed);
                let lost: Vec<usize> = failed.iter().copied().collect();
                let serial = rayon::with_num_threads(1, || rebuild(code, &available, &lost, len))
                    .unwrap();
                let parallel =
                    rayon::with_num_threads(threads, || rebuild(code, &available, &lost, len))
                        .unwrap();
                prop_assert_eq!(&serial, &parallel, "pattern {:?} diverged", failed);
                for (b, bytes) in lost.iter().zip(&serial) {
                    prop_assert_eq!(bytes, &coded[*b], "pattern {:?} misreconstructed", failed);
                }
            }
        }
    }
}

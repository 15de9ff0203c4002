//! Differential tests for parallel repair arithmetic: partial-parity
//! combination and stripe encoding split across the worker pool must equal
//! the single-threaded result byte-for-byte, for **every** failure pattern
//! up to each array code's fault tolerance.

use std::collections::BTreeSet;

use drc_codes::{CodeKind, TransferPayload};
use drc_gf::{slice, Gf256};

/// All node subsets of `0..n` with 1..=r elements.
fn failure_patterns(n: usize, r: usize) -> Vec<BTreeSet<usize>> {
    let mut patterns = Vec::new();
    for size in 1..=r {
        let mut subset: Vec<usize> = (0..size).collect();
        loop {
            patterns.push(subset.iter().copied().collect());
            let mut i = size;
            let mut done = true;
            while i > 0 {
                i -= 1;
                if subset[i] != i + n - size {
                    subset[i] += 1;
                    for j in i + 1..size {
                        subset[j] = subset[j - 1] + 1;
                    }
                    done = false;
                    break;
                }
            }
            if done {
                break;
            }
        }
    }
    patterns
}

fn payload(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + salt * 101 + 13) as u8).collect()
}

/// Every partial-parity transfer of every repair plan, for every failure
/// pattern up to the code's tolerance, combined with 1 worker and with 4
/// workers on block-sized payloads: the bytes must be identical.
#[test]
fn partial_parity_repair_is_thread_count_invariant_for_all_patterns() {
    let len = slice::PAR_ENGAGE_MIN + 129; // engages the parallel split
    for kind in [
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
    ] {
        let code = kind.build().expect("code builds");
        let blocks: Vec<Vec<u8>> = (0..code.distinct_blocks())
            .map(|b| payload(len, b))
            .collect();
        // A coefficient per distinct block (plans may combine parity blocks
        // too, whose XOR weight the caller supplies): non-zero pseudo-random
        // weights exercise the full GF path, not just the XOR fast path.
        let weights: Vec<Gf256> = (0..code.distinct_blocks())
            .map(|b| Gf256::new((b * 17 + 3) as u8))
            .collect();
        let tolerance = code.fault_tolerance();
        // Plan every failure pattern up to tolerance, collecting the distinct
        // (combines, target) partial-parity transfers across all of them —
        // identical transfers recur in many patterns, so deduplicating keeps
        // the block-sized combine work bounded without losing coverage.
        let mut partials: BTreeSet<(Vec<usize>, usize)> = BTreeSet::new();
        for pattern in failure_patterns(code.node_count(), tolerance) {
            let plan = code
                .repair_plan(&pattern)
                .unwrap_or_else(|e| panic!("{kind}: {pattern:?} must be repairable: {e}"));
            for transfer in &plan.transfers {
                if let TransferPayload::PartialParity { combines, target } = &transfer.payload {
                    partials.insert((combines.clone(), *target));
                }
            }
        }
        assert!(
            !partials.is_empty(),
            "{kind}: the array codes must exercise partial-parity transfers"
        );
        for (combines, target) in &partials {
            let inputs: Vec<&[u8]> = combines.iter().map(|&b| blocks[b].as_slice()).collect();
            let coeffs: Vec<Gf256> = combines.iter().map(|&b| weights[b]).collect();
            let mut serial = vec![0u8; len];
            rayon::with_num_threads(1, || {
                slice::linear_combination_into(&coeffs, &inputs, &mut serial)
            });
            let mut parallel = vec![0xeeu8; len];
            rayon::with_num_threads(4, || {
                slice::linear_combination_into(&coeffs, &inputs, &mut parallel)
            });
            // Cross-check against the direct definition of the sum.
            let mut expect = vec![0u8; len];
            for (&b, input) in combines.iter().zip(&inputs) {
                slice::mul_acc(&mut expect, input, weights[b]);
            }
            assert_eq!(
                serial, expect,
                "{kind}: serial combine for target block {target} is wrong"
            );
            assert_eq!(
                serial, parallel,
                "{kind}: partial parity for target block {target} diverged"
            );
        }
    }
}

/// Stripe encoding through the default `encode_into` (the fused parallel
/// matrix product) is thread-count invariant for every evaluated code.
#[test]
fn stripe_encode_is_thread_count_invariant_for_every_code() {
    let len = slice::PAR_ENGAGE_MIN + 321;
    for kind in [
        CodeKind::TWO_REP,
        CodeKind::Pentagon,
        CodeKind::Heptagon,
        CodeKind::HeptagonLocal,
        CodeKind::RAID_M_10_9,
        CodeKind::ReedSolomon { data: 6, parity: 3 },
    ] {
        let code = kind.build().expect("code builds");
        let k = code.data_blocks();
        let data: Vec<Vec<u8>> = (0..k).map(|i| payload(len, i)).collect();
        let parity_count = code.distinct_blocks() - k;
        let mut serial = vec![vec![0u8; len]; parity_count];
        rayon::with_num_threads(1, || code.encode_into(&data, &mut serial).expect("encodes"));
        let mut parallel = vec![vec![0x11u8; len]; parity_count];
        rayon::with_num_threads(4, || {
            code.encode_into(&data, &mut parallel).expect("encodes")
        });
        assert_eq!(serial, parallel, "{kind} diverged across thread counts");
    }
}

//! Differential proptests for the shard-parallel paths: encoding and linear
//! combination split across the worker pool must equal the single-threaded
//! result **byte-for-byte**, and the fused copy-and-encode tile loop must
//! equal a separate copy, zero-pad and `matrix_mul_into` at every pool
//! width. Reconstruction runs on the same fused products and is checked per
//! erasure pattern in `drc_codes`' decoder oracle.
//!
//! Buffers are sized past `slice::PAR_ENGAGE_MIN` with slack, so the
//! parallel split actually engages and the last range is a partial one (the
//! pool is pinned per-call via `rayon::with_num_threads`, so this holds
//! even on single-core hosts).

use proptest::prelude::*;

use drc_gf::{slice, Gf256, ReedSolomon};

fn shard(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + salt * 131 + 7) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_encode_matches_single_thread(
        k in 1usize..8,
        m in 1usize..4,
        extra in 0usize..257,
        threads in 2usize..5,
    ) {
        let len = slice::PAR_ENGAGE_MIN + extra;
        let rs = ReedSolomon::new(k, m).expect("valid parameters");
        let data: Vec<Vec<u8>> = (0..k).map(|i| shard(len, i + 3)).collect();
        let mut serial = vec![vec![0u8; len]; m];
        rayon::with_num_threads(1, || rs.encode_into(&data, &mut serial).expect("encodes"));
        let mut parallel = vec![vec![0x5au8; len]; m];
        rayon::with_num_threads(threads, || {
            rs.encode_into(&data, &mut parallel).expect("encodes")
        });
        prop_assert_eq!(serial, parallel);
    }

    #[test]
    fn parallel_linear_combination_matches_single_thread(
        n in 1usize..7,
        extra in 0usize..513,
        threads in 2usize..5,
        coeff_seed in any::<u8>(),
    ) {
        let len = slice::PAR_ENGAGE_MIN + extra;
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| shard(len, i)).collect();
        let coeffs: Vec<Gf256> = (0..n)
            .map(|i| Gf256::new(coeff_seed.wrapping_mul(29).wrapping_add(i as u8)))
            .collect();
        let mut serial = vec![0u8; len];
        rayon::with_num_threads(1, || {
            slice::linear_combination_into(&coeffs, &blocks, &mut serial)
        });
        let mut parallel = vec![0xffu8; len];
        rayon::with_num_threads(threads, || {
            slice::linear_combination_into(&coeffs, &blocks, &mut parallel)
        });
        prop_assert_eq!(serial, parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fused_copy_encode_matches_copy_pad_then_matrix_mul(
        k in 1usize..7,
        m in 0usize..4,
        tiles in 0usize..24,
        extra in 0usize..slice::TILE,
        cut in any::<u64>(),
        threads in 1usize..5,
        coeff_seed in any::<u8>(),
    ) {
        // Block lengths straddle TILE boundaries and PAR_ENGAGE_MIN; the
        // file ends anywhere in the stripe, so sources run from full blocks
        // through one cut mid-block to empty ones.
        let len = tiles * slice::TILE + extra;
        let file = shard((cut % (k * len + 1) as u64) as usize, 11);
        let sources: Vec<&[u8]> = (0..k)
            .map(|j| &file[(j * len).min(file.len())..((j + 1) * len).min(file.len())])
            .collect();
        let coeffs: Vec<Gf256> = (0..m * k)
            .map(|i| match (i + coeff_seed as usize) % 4 {
                0 => Gf256::ZERO,
                1 => Gf256::ONE,
                _ => Gf256::new(coeff_seed.wrapping_mul(29).wrapping_add(i as u8)),
            })
            .collect();

        let padded: Vec<Vec<u8>> = sources
            .iter()
            .map(|src| {
                let mut block = src.to_vec();
                block.resize(len, 0);
                block
            })
            .collect();
        let mut expected = vec![vec![0u8; len]; m];
        rayon::with_num_threads(1, || slice::matrix_mul_into(&coeffs, k, &padded, &mut expected));

        // Poisoned outputs: every byte must be overwritten.
        let mut data = vec![vec![0xA5u8; len]; k];
        let mut parities = vec![vec![0x5Au8; len]; m];
        rayon::with_num_threads(threads, || {
            slice::copy_mul_into(&coeffs, &sources, &mut data, &mut parities)
        });
        prop_assert_eq!(data, padded);
        prop_assert_eq!(parities, expected);
    }
}

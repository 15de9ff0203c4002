//! Fused stripe encoding: one pass per byte from user bytes to stored blocks.
//!
//! A writer holds file bytes, not blocks. [`encode_stripe`] takes the `k`
//! borrowed source ranges of one stripe and produces every distinct block of
//! the stripe in pooled buffers: each data block receives its source bytes,
//! zero-padded to the block length, and every parity is accumulated from
//! those bytes in the same cache tile (`drc_gf::slice::copy_mul_into`). Each
//! user byte is read once and each block byte written once; the buffers come
//! from `drc_gf::bufpool::take_for_overwrite`, so no zero-fill precedes the
//! copy, and the caller can move them into their storage handles without a
//! further copy.
//!
//! Encodes are *shard-parallel*: blocks long enough to feed several workers
//! are split into byte ranges across the workspace worker pool (worker count
//! from `DRC_SIM_THREADS`; results are byte-identical to a single-threaded
//! run, and `DRC_SIM_THREADS=1` keeps the whole path serial).

use crate::{CodeError, ErasureCode};

/// Encodes one stripe from borrowed source ranges, returning all
/// `distinct_blocks()` blocks in pooled buffers: blocks `0..k` are the data
/// blocks (each source zero-padded to `block_len`), blocks
/// `k..distinct_blocks()` the local and global parities.
///
/// A source may be shorter than `block_len` or empty — the tail of a file
/// whose last stripe is partly padding. The result is byte-identical to
/// [`ErasureCode::encode`] of the zero-padded data blocks.
///
/// # Example
///
/// ```
/// use drc_codes::{encode_stripe, CodeKind, ErasureCode};
///
/// # fn main() -> Result<(), drc_codes::CodeError> {
/// let code = CodeKind::Pentagon.build()?;
/// let file: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
/// // Nine 1 KiB data blocks; the file ends inside the fifth.
/// let sources: Vec<&[u8]> = (0..9)
///     .map(|b| &file[(b * 1024).min(file.len())..((b + 1) * 1024).min(file.len())])
///     .collect();
/// let blocks = encode_stripe(code.as_ref(), &sources, 1024)?;
/// assert_eq!(blocks.len(), 10); // 9 data blocks + the XOR parity
/// assert_eq!(&blocks[4][..904], &file[4096..]);
/// assert!(blocks[4][904..].iter().all(|&b| b == 0));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`CodeError::WrongDataBlockCount`] unless there are exactly `k`
/// sources, and [`CodeError::UnequalBlockLengths`] if a source is longer
/// than `block_len`.
pub fn encode_stripe<C: ErasureCode + ?Sized>(
    code: &C,
    sources: &[&[u8]],
    block_len: usize,
) -> Result<Vec<Vec<u8>>, CodeError> {
    let s = code.structure();
    let k = s.data_blocks;
    if sources.len() != k {
        return Err(CodeError::WrongDataBlockCount {
            expected: k,
            found: sources.len(),
        });
    }
    if sources.iter().any(|src| src.len() > block_len) {
        return Err(CodeError::UnequalBlockLengths);
    }
    let mut blocks: Vec<Vec<u8>> = (0..code.distinct_blocks())
        .map(|_| drc_gf::bufpool::take_for_overwrite(block_len))
        .collect();
    let (data, parities) = blocks.split_at_mut(k);
    let coeffs = s.generator.rows_flat(k, code.distinct_blocks());
    drc_gf::slice::copy_mul_into(coeffs, sources, data, parities);
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CodeKind;

    #[test]
    fn matches_plain_encode_of_padded_data_for_every_code() {
        let len = 97;
        for kind in [
            CodeKind::TWO_REP,
            CodeKind::Pentagon,
            CodeKind::Heptagon,
            CodeKind::HeptagonLocal,
            CodeKind::RAID_M_10_9,
            CodeKind::ReedSolomon { data: 6, parity: 3 },
        ] {
            let code = kind.build().unwrap();
            let k = code.data_blocks();
            // Full blocks, then one ending mid-block, then empty ones.
            let file: Vec<u8> = (0..len * k / 2 + 13).map(|j| (j * 7 + 3) as u8).collect();
            let sources: Vec<&[u8]> = (0..k)
                .map(|b| &file[(b * len).min(file.len())..((b + 1) * len).min(file.len())])
                .collect();
            let padded: Vec<Vec<u8>> = sources
                .iter()
                .map(|src| {
                    let mut block = src.to_vec();
                    block.resize(len, 0);
                    block
                })
                .collect();
            let blocks = encode_stripe(code.as_ref(), &sources, len).unwrap();
            assert_eq!(blocks, code.encode(&padded).unwrap(), "mismatch for {kind}");
        }
    }

    #[test]
    fn rejects_wrong_source_count_and_oversized_sources() {
        let code = CodeKind::Pentagon.build().unwrap();
        let block = [0u8; 8];
        let too_few = vec![&block[..]; 8];
        assert!(matches!(
            encode_stripe(code.as_ref(), &too_few, 8),
            Err(CodeError::WrongDataBlockCount {
                expected: 9,
                found: 8
            })
        ));
        let sources = vec![&block[..]; 9];
        assert_eq!(
            encode_stripe(code.as_ref(), &sources, 7),
            Err(CodeError::UnequalBlockLengths)
        );
    }
}

//! A systematic Reed–Solomon erasure codec over GF(2^8).
//!
//! The codec turns `k` equally-sized data shards into `k + m` coded shards
//! (the first `k` are the data shards verbatim) such that *any* `k` of the
//! coded shards suffice to reconstruct the data. It is used in two places in
//! the reproduction:
//!
//! * as the stand-alone single-copy Reed–Solomon baseline (the kind of code
//!   Facebook's HDFS-RAID applies to cold data, mentioned in the paper's
//!   introduction), and
//! * to compute the two *global parity* blocks of the heptagon-local code,
//!   which the paper describes as "Galois field arithmetic as in the case of
//!   RAID-6".

use serde::{Deserialize, Serialize};

use crate::slice;
use crate::{Gf256, GfError, Matrix};

/// A systematic Reed–Solomon codec with `data` data shards and `parity`
/// parity shards.
///
/// # Example
///
/// ```
/// use drc_gf::ReedSolomon;
///
/// # fn main() -> Result<(), drc_gf::GfError> {
/// let rs = ReedSolomon::new(6, 3)?;
/// assert_eq!(rs.total_shards(), 9);
/// assert!((rs.storage_overhead() - 1.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReedSolomon {
    data: usize,
    parity: usize,
    /// Full generator matrix: identity on top, parity rows below.
    generator: Matrix,
}

impl ReedSolomon {
    /// Creates a codec with the given numbers of data and parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`GfError::InvalidShardCounts`] if either count is zero or the
    /// total exceeds 256 (the construction would run out of distinct
    /// evaluation points).
    pub fn new(data: usize, parity: usize) -> Result<Self, GfError> {
        if data == 0 || parity == 0 || data + parity > 256 {
            return Err(GfError::InvalidShardCounts { data, parity });
        }
        // Build a systematic generator from a Vandermonde matrix: take the
        // (data+parity) x data Vandermonde matrix, then right-multiply by the
        // inverse of its top square so the top block becomes the identity.
        let vand = Matrix::vandermonde(data + parity, data)?;
        let top: Vec<usize> = (0..data).collect();
        let top_inv = vand.select_rows(&top).inverse()?;
        let generator = vand.checked_mul(&top_inv)?;
        Ok(ReedSolomon {
            data,
            parity,
            generator,
        })
    }

    /// Number of data shards `k`.
    pub fn data_shards(&self) -> usize {
        self.data
    }

    /// Number of parity shards `m`.
    pub fn parity_shards(&self) -> usize {
        self.parity
    }

    /// Total number of coded shards `k + m`.
    pub fn total_shards(&self) -> usize {
        self.data + self.parity
    }

    /// Storage overhead: stored shards per data shard.
    pub fn storage_overhead(&self) -> f64 {
        self.total_shards() as f64 / self.data as f64
    }

    /// Returns the full systematic generator matrix (`(k+m) × k`).
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Returns the coefficients of parity shard `p` (`0 <= p < parity`) over
    /// the data shards.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.parity_shards()`.
    pub fn parity_row(&self, p: usize) -> &[Gf256] {
        assert!(p < self.parity, "parity row index out of bounds");
        self.generator.row(self.data + p)
    }

    /// Encodes data shards into `k + m` coded shards.
    ///
    /// The first `k` output shards are copies of the input data shards.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of shards is not `k` or shard lengths
    /// differ.
    pub fn encode<S: AsRef<[u8]>>(&self, shards: &[S]) -> Result<Vec<Vec<u8>>, GfError> {
        let len = self.validate_data_shards(shards)?;
        let mut out: Vec<Vec<u8>> = shards.iter().map(|s| s.as_ref().to_vec()).collect();
        out.resize(self.total_shards(), vec![0u8; len]);
        let (data, parity) = out.split_at_mut(self.data);
        self.encode_into(&*data, parity)?;
        Ok(out)
    }

    /// Computes the parity shards into caller-owned output buffers, without
    /// allocating.
    ///
    /// `parity_out` must hold exactly `m` buffers, each of the common shard
    /// length; they are fully overwritten (no zeroing needed beforehand).
    /// This is the hot encode path: it applies the whole parity sub-matrix
    /// through the fused, cache-blocked [`slice::matrix_mul_into`] and
    /// performs **no heap allocation** — per block or otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error if the number or lengths of the data shards are
    /// wrong, or if `parity_out` does not match the parity count / shard
    /// length.
    pub fn encode_into<S, B>(&self, shards: &[S], parity_out: &mut [B]) -> Result<(), GfError>
    where
        S: AsRef<[u8]>,
        B: AsMut<[u8]>,
    {
        let len = self.validate_data_shards(shards)?;
        if parity_out.len() != self.parity {
            return Err(GfError::WrongShardCount {
                expected: self.parity,
                found: parity_out.len(),
            });
        }
        if parity_out.iter_mut().any(|b| b.as_mut().len() != len) {
            return Err(GfError::UnequalShardLengths);
        }
        let coeffs = self.generator.rows_flat(self.data, self.total_shards());
        slice::matrix_mul_into(coeffs, self.data, shards, parity_out);
        Ok(())
    }

    /// Computes only the parity shards for the given data shards.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`ReedSolomon::encode`].
    pub fn encode_parity<S: AsRef<[u8]>>(&self, shards: &[S]) -> Result<Vec<Vec<u8>>, GfError> {
        let len = self.validate_data_shards(shards)?;
        let mut parity = vec![vec![0u8; len]; self.parity];
        self.encode_into(shards, &mut parity)?;
        Ok(parity)
    }

    /// Checks shard count and length consistency, returning the shard length.
    fn validate_data_shards<S: AsRef<[u8]>>(&self, shards: &[S]) -> Result<usize, GfError> {
        if shards.len() != self.data {
            return Err(GfError::WrongShardCount {
                expected: self.data,
                found: shards.len(),
            });
        }
        let len = shards[0].as_ref().len();
        if shards.iter().any(|s| s.as_ref().len() != len) {
            return Err(GfError::UnequalShardLengths);
        }
        Ok(len)
    }

    /// Verifies that a complete set of shards is consistent with the code.
    ///
    /// # Errors
    ///
    /// Returns an error if the shard count or lengths are wrong.
    pub fn verify<S: AsRef<[u8]>>(&self, shards: &[S]) -> Result<bool, GfError> {
        if shards.len() != self.total_shards() {
            return Err(GfError::WrongShardCount {
                expected: self.total_shards(),
                found: shards.len(),
            });
        }
        let data: Vec<&[u8]> = shards[..self.data].iter().map(|s| s.as_ref()).collect();
        let expected = self.encode(&data)?;
        Ok(expected
            .iter()
            .zip(shards)
            .all(|(e, s)| e.as_slice() == s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| (i * 37 + j * 11 + 5) as u8).collect())
            .collect()
    }

    #[test]
    fn constructor_validation() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(3, 0).is_err());
        assert!(ReedSolomon::new(200, 100).is_err());
        assert!(ReedSolomon::new(10, 4).is_ok());
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = sample_data(4, 32);
        let coded = rs.encode(&data).unwrap();
        assert_eq!(coded.len(), 6);
        assert_eq!(&coded[..4], data.as_slice());
        assert!(rs.verify(&coded).unwrap());
    }

    #[test]
    fn single_parity_protects_any_single_loss() {
        // With one parity shard, losing any single shard must be recoverable:
        // every k-row subset of the generator is invertible.
        let rs = ReedSolomon::new(5, 1).unwrap();
        assert!(rs.parity_row(0).iter().all(|c| !c.is_zero()));
        for lost in 0..6 {
            let rows: Vec<usize> = (0..6).filter(|&i| i != lost).collect();
            assert_eq!(rs.generator().select_rows(&rows).rank(), 5, "lost {lost}");
        }
    }

    #[test]
    fn shard_count_and_length_validation() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        assert!(rs.encode(&sample_data(2, 8)).is_err());
        let mut bad = sample_data(3, 8);
        bad[1].push(0);
        assert_eq!(rs.encode(&bad), Err(GfError::UnequalShardLengths));
        assert!(rs.verify(&sample_data(3, 8)).is_err());
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut coded = rs.encode(&sample_data(4, 16)).unwrap();
        assert!(rs.verify(&coded).unwrap());
        coded[5][0] ^= 0xff;
        assert!(!rs.verify(&coded).unwrap());
    }

    #[test]
    fn encode_parity_matches_encode_tail() {
        let rs = ReedSolomon::new(6, 2).unwrap();
        let data = sample_data(6, 10);
        let coded = rs.encode(&data).unwrap();
        let parity = rs.encode_parity(&data).unwrap();
        assert_eq!(parity.as_slice(), &coded[6..]);
    }

    #[test]
    fn accessors() {
        let rs = ReedSolomon::new(9, 1).unwrap();
        assert_eq!(rs.data_shards(), 9);
        assert_eq!(rs.parity_shards(), 1);
        assert_eq!(rs.total_shards(), 10);
        assert!((rs.storage_overhead() - 10.0 / 9.0).abs() < 1e-12);
        assert_eq!(rs.generator().rows(), 10);
        assert_eq!(rs.generator().cols(), 9);
    }
}

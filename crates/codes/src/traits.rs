//! The [`ErasureCode`] trait: the uniform interface every evaluated coding
//! scheme implements.
//!
//! All codes in the paper are *linear, systematic array codes*: a stripe of
//! `k` data blocks is expanded into a set of distinct coded blocks (described
//! by a generator matrix over GF(2^8)), and those blocks — some of them
//! replicated — are laid out over `n` nodes. The trait exposes that structure
//! plus code-specific repair planning, and supplies generic default
//! implementations (matrix-based encode/decode, exhaustive fault-tolerance
//! analysis, copy-or-decode repair plans) that concrete codes refine where
//! they have better structure to exploit — most importantly the
//! partial-parity repairs of the pentagon and heptagon codes.

use std::collections::{BTreeMap, BTreeSet};

use drc_gf::slice;

use crate::layout::CodeStructure;
use crate::reconstruct::StripeReconstructor;
use crate::repair::{ReadPlan, ReadSource, RepairPlan, Transfer, TransferPayload};
use crate::CodeError;

/// A systematic linear erasure code with an explicit node layout.
///
/// Implementors provide [`ErasureCode::structure`]; everything else has a
/// sensible generic default. Codes with special repair structure (the
/// pentagon/heptagon family) override [`ErasureCode::repair_plan`] and
/// [`ErasureCode::degraded_read_plan`] to use partial parities, and codes with
/// simple combinatorial recoverability override [`ErasureCode::can_recover`]
/// for speed.
pub trait ErasureCode: std::fmt::Debug + Send + Sync {
    /// The static structure of one stripe: generator matrix, node layout and
    /// rack grouping.
    fn structure(&self) -> &CodeStructure;

    /// Human-readable code name, e.g. `"pentagon"`.
    fn name(&self) -> &str {
        &self.structure().name
    }

    /// Number of data blocks `k` per stripe.
    fn data_blocks(&self) -> usize {
        self.structure().data_blocks
    }

    /// Number of distinct coded blocks per stripe.
    fn distinct_blocks(&self) -> usize {
        self.structure().layout.distinct_blocks()
    }

    /// Number of nodes a stripe spans — the paper's *code length*.
    fn node_count(&self) -> usize {
        self.structure().layout.node_count()
    }

    /// Total number of stored blocks per stripe, counting replicas.
    fn stored_blocks(&self) -> usize {
        self.structure().layout.stored_blocks()
    }

    /// Storage overhead: stored blocks per data block (Table 1, column 2).
    fn storage_overhead(&self) -> f64 {
        self.structure().storage_overhead()
    }

    /// The distinct blocks stored on stripe-local `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.node_count()`.
    fn node_blocks(&self, node: usize) -> &[usize] {
        self.structure().layout.node_blocks(node)
    }

    /// The stripe-local nodes holding a replica of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block >= self.distinct_blocks()`.
    fn block_locations(&self, block: usize) -> &[usize] {
        self.structure().layout.block_locations(block)
    }

    /// Groups of stripe-local nodes that rack-aware placement should put in
    /// distinct racks.
    fn rack_groups(&self) -> &[Vec<usize>] {
        &self.structure().rack_groups
    }

    /// Encodes `k` data blocks into all distinct coded blocks of the stripe.
    ///
    /// The first `k` outputs are verbatim copies of the inputs (systematic).
    ///
    /// # Errors
    ///
    /// Returns an error if the number of blocks is not `k` or the blocks have
    /// unequal lengths.
    fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodeError> {
        let len = validate_data_blocks(self, data)?;
        let mut out = Vec::with_capacity(self.distinct_blocks());
        out.extend(data.iter().cloned());
        out.resize(self.distinct_blocks(), vec![0u8; len]);
        let (data, parities) = out.split_at_mut(self.data_blocks());
        self.encode_into(&*data, parities)?;
        Ok(out)
    }

    /// Computes the stripe's non-data distinct blocks (local and global
    /// parities — blocks `k..distinct_blocks()`) into caller-owned buffers.
    ///
    /// This is the zero-allocation encode path: `parities` must hold exactly
    /// `distinct_blocks() - k` buffers of the common block length; they are
    /// fully overwritten. The default implementation applies the whole parity
    /// sub-matrix through the fused, cache-blocked
    /// [`slice::matrix_mul_into`], so a caller that reuses its buffers
    /// encodes stripe after stripe without touching the heap.
    ///
    /// # Errors
    ///
    /// Returns an error if the data block count, the parity buffer count, or
    /// any block length is wrong.
    fn encode_into(&self, data: &[Vec<u8>], parities: &mut [Vec<u8>]) -> Result<(), CodeError> {
        let len = validate_data_blocks(self, data)?;
        let s = self.structure();
        let parity_count = self.distinct_blocks() - s.data_blocks;
        if parities.len() != parity_count {
            return Err(CodeError::WrongParityBlockCount {
                expected: parity_count,
                found: parities.len(),
            });
        }
        if parities.iter().any(|b| b.len() != len) {
            return Err(CodeError::UnequalBlockLengths);
        }
        let coeffs = s.generator.rows_flat(s.data_blocks, self.distinct_blocks());
        slice::matrix_mul_into(coeffs, s.data_blocks, data, parities);
        Ok(())
    }

    /// Decodes the `k` data blocks from whatever distinct blocks are
    /// available.
    ///
    /// `available` maps distinct-block index to its content; `block_len` is
    /// the common block length. Present data blocks are copied; the missing
    /// ones are rebuilt by one [`StripeReconstructor`] — the same engine the
    /// HDFS degraded-read and repair paths run.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnequalBlockLengths`] if a block is not
    /// `block_len` long, [`CodeError::IndexOutOfRange`] for a block index
    /// beyond the stripe, and [`CodeError::Unrecoverable`] if the available
    /// blocks do not determine the data.
    fn decode(
        &self,
        available: &BTreeMap<usize, Vec<u8>>,
        block_len: usize,
    ) -> Result<Vec<Vec<u8>>, CodeError> {
        if available.values().any(|b| b.len() != block_len) {
            return Err(CodeError::UnequalBlockLengths);
        }
        let k = self.data_blocks();
        let keys: BTreeSet<usize> = available.keys().copied().collect();
        let missing: Vec<usize> = (0..k).filter(|b| !keys.contains(b)).collect();
        let rec = StripeReconstructor::plan(self.structure(), &keys, &missing)?;
        let sources: Vec<&[u8]> = rec
            .sources()
            .iter()
            .map(|b| available[b].as_slice())
            .collect();
        let mut data: Vec<Vec<u8>> = (0..k)
            .map(|b| {
                available
                    .get(&b)
                    .cloned()
                    .unwrap_or_else(|| vec![0; block_len])
            })
            .collect();
        let mut rebuilt: Vec<&mut Vec<u8>> = data
            .iter_mut()
            .enumerate()
            .filter_map(|(b, block)| (!keys.contains(&b)).then_some(block))
            .collect();
        rec.reconstruct_into(&sources, &mut rebuilt);
        Ok(data)
    }

    /// Returns `true` if the data survives the loss of `failed_nodes`
    /// (stripe-local indices).
    fn can_recover(&self, failed_nodes: &BTreeSet<usize>) -> bool {
        let surviving = self.structure().layout.surviving_blocks(failed_nodes);
        self.structure().recoverable_from_blocks(&surviving)
    }

    /// The maximum `t` such that *any* `t` simultaneous node failures are
    /// survivable (Table 1's resiliency level).
    fn fault_tolerance(&self) -> usize {
        let n = self.node_count();
        for t in 1..=n {
            if !all_subsets_recoverable(self, n, t) {
                return t - 1;
            }
        }
        n
    }

    /// Counts `(fatal, total)` failure patterns of exactly `failures` nodes.
    ///
    /// Used by the reliability model to weight Markov-chain transitions for
    /// codes where only *some* patterns of a given size are fatal (e.g. the
    /// RAID+m and heptagon-local codes).
    fn count_fatal_patterns(&self, failures: usize) -> (u64, u64) {
        let n = self.node_count();
        if failures > n {
            return (0, 0);
        }
        let mut fatal = 0u64;
        let mut total = 0u64;
        let mut subset: Vec<usize> = (0..failures).collect();
        loop {
            total += 1;
            let set: BTreeSet<usize> = subset.iter().copied().collect();
            if !self.can_recover(&set) {
                fatal += 1;
            }
            // Advance to the next combination in lexicographic order.
            let mut i = failures;
            loop {
                if i == 0 {
                    return (fatal, total);
                }
                i -= 1;
                if subset[i] != i + n - failures {
                    subset[i] += 1;
                    for j in i + 1..failures {
                        subset[j] = subset[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    /// Plans the repair of the given failed stripe-local nodes onto
    /// like-numbered replacement nodes.
    ///
    /// The generic plan copies every block that still has a live replica and
    /// reconstructs fully-lost blocks by fetching enough independent blocks
    /// for a full decode (this is what a Reed–Solomon or RAID+m repair does).
    /// Array codes override this to exploit partial parities.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::Unrecoverable`] if the failure pattern is fatal,
    /// or [`CodeError::IndexOutOfRange`] for invalid node indices.
    fn repair_plan(&self, failed_nodes: &BTreeSet<usize>) -> Result<RepairPlan, CodeError> {
        generic_repair_plan(self, failed_nodes)
    }

    /// Plans an on-the-fly read of data block `data_block` while the given
    /// nodes are unavailable (transient failures during a MapReduce job).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] if `data_block >= k`, or
    /// [`CodeError::Unrecoverable`] if the block cannot be served at all.
    fn degraded_read_plan(
        &self,
        data_block: usize,
        down_nodes: &BTreeSet<usize>,
    ) -> Result<ReadPlan, CodeError> {
        generic_degraded_read_plan(self, data_block, down_nodes)
    }

    /// Average network blocks transferred to repair a single failed node,
    /// over all nodes of the stripe. Feeds the reliability model's repair
    /// times.
    fn single_node_repair_blocks(&self) -> f64 {
        let n = self.node_count();
        let total: usize = (0..n)
            .map(|node| {
                let failed: BTreeSet<usize> = [node].into_iter().collect();
                self.repair_plan(&failed)
                    .map(|p| p.network_blocks())
                    .unwrap_or(0)
            })
            .sum();
        total as f64 / n as f64
    }
}

/// Validates an encode input, returning the common block length.
fn validate_data_blocks<C: ErasureCode + ?Sized, S: AsRef<[u8]>>(
    code: &C,
    data: &[S],
) -> Result<usize, CodeError> {
    let k = code.structure().data_blocks;
    if data.len() != k {
        return Err(CodeError::WrongDataBlockCount {
            expected: k,
            found: data.len(),
        });
    }
    let len = data[0].as_ref().len();
    if data.iter().any(|b| b.as_ref().len() != len) {
        return Err(CodeError::UnequalBlockLengths);
    }
    Ok(len)
}

/// Checks that every subset of `t` of the `n` stripe nodes is survivable.
fn all_subsets_recoverable<C: ErasureCode + ?Sized>(code: &C, n: usize, t: usize) -> bool {
    if t > n {
        return false;
    }
    let mut subset: Vec<usize> = (0..t).collect();
    loop {
        let set: BTreeSet<usize> = subset.iter().copied().collect();
        if !code.can_recover(&set) {
            return false;
        }
        let mut i = t;
        loop {
            if i == 0 {
                return true;
            }
            i -= 1;
            if subset[i] != i + n - t {
                subset[i] += 1;
                for j in i + 1..t {
                    subset[j] = subset[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// The generic copy-or-decode repair plan shared by replication, RAID+m and
/// Reed–Solomon codes (and used as a fallback by the array codes for patterns
/// their specialised logic does not cover).
pub(crate) fn generic_repair_plan<C: ErasureCode + ?Sized>(
    code: &C,
    failed_nodes: &BTreeSet<usize>,
) -> Result<RepairPlan, CodeError> {
    validate_nodes(code, failed_nodes)?;
    if !code.can_recover(failed_nodes) {
        return Err(CodeError::Unrecoverable {
            detail: format!("failed nodes {failed_nodes:?} exceed the code's tolerance"),
        });
    }
    let layout = &code.structure().layout;
    let fully_lost = layout.fully_lost_blocks(failed_nodes);
    let mut transfers = Vec::new();
    let mut blocks_to_restore = BTreeSet::new();

    // 1. Blocks that still have a live replica: plain copy to each failed
    //    node that stored them.
    for &node in failed_nodes {
        for &block in layout.node_blocks(node) {
            blocks_to_restore.insert(block);
            if fully_lost.contains(&block) {
                continue;
            }
            let source = *layout
                .block_locations(block)
                .iter()
                .find(|n| !failed_nodes.contains(n))
                .ok_or_else(|| CodeError::Unrecoverable {
                    detail: format!("block {block} is not fully lost yet has no live replica"),
                })?;
            transfers.push(Transfer {
                from_node: source,
                to_node: node,
                payload: TransferPayload::Replica { block },
            });
        }
    }

    // 2. Fully-lost blocks: fetch enough independent surviving blocks to the
    //    first replacement node, decode there, then forward reconstructed
    //    blocks to any other replacement that needs them.
    if !fully_lost.is_empty() {
        let staging = *failed_nodes
            .iter()
            .next()
            .ok_or_else(|| CodeError::Unrecoverable {
                detail: "fully-lost blocks reported without any failed node".to_string(),
            })?;
        let s = code.structure();
        let chosen = s.independent_blocks(&layout.surviving_blocks(failed_nodes));
        debug_assert_eq!(chosen.len(), s.data_blocks, "can_recover guaranteed rank k");
        for &block in &chosen {
            let source = *layout
                .block_locations(block)
                .iter()
                .find(|n| !failed_nodes.contains(n))
                .ok_or_else(|| CodeError::Unrecoverable {
                    detail: format!("surviving block {block} has no live replica"),
                })?;
            transfers.push(Transfer {
                from_node: source,
                to_node: staging,
                payload: TransferPayload::Replica { block },
            });
        }
        // Forward each fully-lost block to the *other* replacements that store it.
        for &block in &fully_lost {
            for &node in layout.block_locations(block) {
                if node != staging && failed_nodes.contains(&node) {
                    transfers.push(Transfer {
                        from_node: staging,
                        to_node: node,
                        payload: TransferPayload::Reconstructed { block },
                    });
                }
            }
        }
    }

    Ok(RepairPlan {
        failed_nodes: failed_nodes.iter().copied().collect(),
        blocks_to_restore: blocks_to_restore.into_iter().collect(),
        fully_lost_blocks: fully_lost.into_iter().collect(),
        transfers,
    })
}

/// The generic degraded-read plan: read a live replica if one exists,
/// otherwise fetch enough independent blocks for a full decode.
pub(crate) fn generic_degraded_read_plan<C: ErasureCode + ?Sized>(
    code: &C,
    data_block: usize,
    down_nodes: &BTreeSet<usize>,
) -> Result<ReadPlan, CodeError> {
    validate_nodes(code, down_nodes)?;
    if data_block >= code.data_blocks() {
        return Err(CodeError::IndexOutOfRange {
            what: "data block",
            index: data_block,
            limit: code.data_blocks(),
        });
    }
    let layout = &code.structure().layout;
    // A live replica somewhere: a plain (possibly remote) read of one block.
    if let Some(&node) = layout
        .block_locations(data_block)
        .iter()
        .find(|n| !down_nodes.contains(n))
    {
        return Ok(ReadPlan {
            block: data_block,
            source: ReadSource::Remote { node },
            network_blocks: 1,
        });
    }
    // Otherwise decode from surviving blocks.
    let s = code.structure();
    let surviving = layout.surviving_blocks(down_nodes);
    if !s.recoverable_from_blocks(&surviving) {
        return Err(CodeError::Unrecoverable {
            detail: format!(
                "data block {data_block} cannot be rebuilt with nodes {down_nodes:?} down"
            ),
        });
    }
    let chosen = s.independent_blocks(&surviving);
    let mut fetches: Vec<(usize, usize)> = Vec::with_capacity(chosen.len());
    for &b in &chosen {
        let node = *layout
            .block_locations(b)
            .iter()
            .find(|n| !down_nodes.contains(n))
            .ok_or_else(|| CodeError::Unrecoverable {
                detail: format!("surviving block {b} has no live replica"),
            })?;
        fetches.push((node, b));
    }
    let network_blocks = fetches.len();
    Ok(ReadPlan {
        block: data_block,
        source: ReadSource::Decode { fetches },
        network_blocks,
    })
}

fn validate_nodes<C: ErasureCode + ?Sized>(
    code: &C,
    nodes: &BTreeSet<usize>,
) -> Result<(), CodeError> {
    let n = code.node_count();
    if let Some(&bad) = nodes.iter().find(|&&x| x >= n) {
        return Err(CodeError::IndexOutOfRange {
            what: "node",
            index: bad,
            limit: n,
        });
    }
    Ok(())
}

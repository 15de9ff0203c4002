//! The write path takes its block buffers from `drc_gf::bufpool` without a
//! zero-fill and relies on the fused copy-and-encode to overwrite every
//! byte. This test makes that reliance visible: it shelves `0xA5`-filled
//! buffers first, so any byte the write path fails to overwrite — a data
//! block's zero padding, a parity tile — surfaces as stale poison.
//!
//! Every code the HDFS tests use is written with a size that ends mid-block
//! and, where a stripe holds several blocks, mid-stripe (a short last stripe
//! whose trailing blocks are all padding), at pool widths 1 and 4. Each file
//! must read back exactly, every stored data replica must equal the
//! zero-padded input, every stored parity replica must equal
//! `ErasureCode::encode` of that input, and reading the tail stripe with its
//! last content block's hosts down must still return the right bytes.

use drc_cluster::{ClusterSpec, NodeId};
use drc_codes::{CodeKind, ErasureCode};
use drc_hdfs::{BlockKey, DistributedFileSystem};

const BLOCK: usize = 1 << 20;

const CODES: [CodeKind; 7] = [
    CodeKind::TWO_REP,
    CodeKind::THREE_REP,
    CodeKind::Pentagon,
    CodeKind::Heptagon,
    CodeKind::HeptagonLocal,
    CodeKind::RAID_M_10_9,
    CodeKind::ReedSolomon { data: 6, parity: 3 },
];

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec::simulation_25(4);
    spec.block_size_mb = (BLOCK >> 20) as u64;
    spec
}

/// Shelves enough `0xA5`-filled block buffers to serve a whole write.
fn poison_pool(buffers: usize) {
    for _ in 0..buffers {
        drc_gf::bufpool::recycle(vec![0xA5u8; BLOCK]);
    }
}

/// One full stripe plus a second that ends a third of the way into its
/// second block (for one-block stripes: two blocks plus a third cut short).
fn file_for(code: &dyn ErasureCode, salt: usize) -> Vec<u8> {
    let len = (code.data_blocks() + 1) * BLOCK + BLOCK / 3 + 7;
    (0..len).map(|i| (i * 31 + salt * 131 + 5) as u8).collect()
}

/// The zero-padded data blocks of `stripe`.
fn padded_stripe(data: &[u8], k: usize, stripe: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|b| {
            let start = ((stripe * k + b) * BLOCK).min(data.len());
            let mut block = data[start..(start + BLOCK).min(data.len())].to_vec();
            block.resize(BLOCK, 0);
            block
        })
        .collect()
}

fn check_code(kind: CodeKind, width: usize) {
    let code = kind.build().unwrap();
    let k = code.data_blocks();
    let data = file_for(code.as_ref(), width);
    let stripes = data.len().div_ceil(BLOCK).div_ceil(k);
    poison_pool(stripes * code.distinct_blocks());

    let mut fs = DistributedFileSystem::new(spec(), 0xA5A5 + width as u64);
    let id = rayon::with_num_threads(width, || fs.write_file("/poisoned", &data, kind)).unwrap();
    fs.sync();
    assert_eq!(fs.read_file(id).unwrap(), data, "{kind} at width {width}");

    let meta = fs.namenode().file(id).unwrap().clone();
    for stripe in 0..stripes {
        let padded = padded_stripe(&data, k, stripe);
        let expected = code.encode(&padded).unwrap();
        for (block, want) in expected.iter().enumerate() {
            for &node in &meta.block_locations(stripe, block).unwrap() {
                let stored = fs
                    .datanode(node)
                    .unwrap()
                    .peek(&BlockKey::new(id, stripe, block))
                    .unwrap();
                assert!(
                    stored[..] == want[..],
                    "{kind} at width {width}: stripe {stripe} block {block} on {node:?} holds stale bytes"
                );
            }
        }
    }

    // Take down the hosts of the file's last content block (as many as the
    // code tolerates) and read it back through the degraded path.
    let tail_stripe = stripes - 1;
    let tail_block = (data.len().div_ceil(BLOCK) - 1) % k;
    let hosts = meta.placement.stripe_hosts(tail_stripe).unwrap();
    let down: Vec<NodeId> = code
        .block_locations(tail_block)
        .iter()
        .map(|&local| hosts[local])
        .take(code.fault_tolerance())
        .collect();
    for &node in &down {
        fs.fail_node(node);
    }
    let block = fs.read_block(&meta, tail_stripe, tail_block).unwrap();
    assert_eq!(
        &block[..],
        &padded_stripe(&data, k, tail_stripe)[tail_block][..],
        "{kind} at width {width}: degraded tail block"
    );
    assert_eq!(fs.read_file(id).unwrap(), data, "{kind} at width {width}");
    if down.len() == code.block_locations(tail_block).len() {
        assert!(
            fs.timeline().bytes_with_prefix("degraded-read:") > 0,
            "{kind}: every replica of the tail block is down, so the read must be degraded"
        );
    }
}

#[test]
fn poisoned_pool_never_leaks_into_written_blocks() {
    for width in [1, 4] {
        for kind in CODES {
            check_code(kind, width);
        }
    }
}

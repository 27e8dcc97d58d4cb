//! The checkpoint store's encode stage pinned byte for byte, through the
//! public `DeltaStore` API: a fixed 3-epoch chain whose sections each
//! steer the per-block codec choice (raw, LZ4, byte-shuffled LZ4), with
//! the FNV-1a of every epoch's `blocks.bin` and `manifest.bin` recorded
//! before the encode stage was reworked. The same chain is committed with
//! one and with two writer threads; both must write these bytes.

use mpi_stool::dmtcp::codec::fnv1a;
use mpi_stool::dmtcp::{DeltaStore, RankImage, StoreConfig, WorldImage};

/// xorshift64* bytes: content no codec can shrink.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
    };
    (0..len).map(|_| next()).collect()
}

/// Whole-number `f64`s climbing one step every eight words: the mantissa's
/// low bytes are zero, the shape the shuffle filter exists for.
fn staircase(step: u64, rank: usize, words: usize) -> Vec<u8> {
    let base = (step * 10_000 + rank as u64 * 1_000) as f64;
    (0..words)
        .flat_map(|i| (base + (i / 8) as f64).to_le_bytes())
        .collect()
}

/// Prose-like bytes: short repeats at odd offsets, which LZ4 folds and
/// the 8-stride shuffle scatters.
fn text(rank: usize, len: usize) -> Vec<u8> {
    let words: [&[u8]; 5] = [b"checkpoint ", b"restart ", b"vendor ", b"epoch ", b"rank "];
    let mut out = Vec::with_capacity(len);
    let mut i = rank;
    while out.len() < len {
        out.extend_from_slice(words[(i * 7 + i / 3) % words.len()]);
        i += 1;
    }
    out.truncate(len);
    out
}

/// One epoch of the chain: what changes between epochs is the noise, the
/// staircase and the 63-byte tail; text and the constant fill dedup.
fn world(step: u64) -> WorldImage {
    let ranks = (0..2usize)
        .map(|r| {
            let mut img = RankImage::new(r, 2, step);
            img.put_section("noise", noise(step << 8 | r as u64, 24 << 10));
            img.put_section("staircase", staircase(step, r, 4096));
            img.put_section("text", text(r, 20 << 10));
            // Both attempts compress a constant fill to the same bytes:
            // the tie goes to plain LZ4.
            img.put_section("constant", vec![0x5A + r as u8; 20 << 10]);
            // Shorter than any block worth compressing: stored raw.
            img.put_section("tail63", noise(step * 31 + r as u64, 63));
            img
        })
        .collect();
    WorldImage::new("MPICH".to_string(), ranks)
}

/// One constant section at 32 KiB blocks: chunks may reach 128 KiB, and a
/// constant fill never cuts early, so its first block is past the 64 KiB
/// a 16-bit match-table slot can address.
fn wide_world(step: u64) -> WorldImage {
    let mut img = RankImage::new(0, 1, step);
    img.put_section("constant", vec![0xC3; 160 << 10]);
    img.put_section("noise", noise(step, 4 << 10));
    WorldImage::new("MPICH".to_string(), vec![img])
}

/// Commit epochs 1..=3 of `image` into a fresh store and return the
/// FNV-1a of each epoch's `blocks.bin`, then `manifest.bin`.
fn chain_digests(tag: &str, config: StoreConfig, image: fn(u64) -> WorldImage) -> Vec<u64> {
    let dir = std::env::temp_dir().join(format!(
        "stool_encode_bytes_{tag}_{}_{}",
        config.writer_threads,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DeltaStore::open_with(&dir, config).expect("open store");
    let mut digests = Vec::new();
    for step in 1..=3u64 {
        let stats = store.commit(&image(step)).expect("commit");
        assert_eq!(stats.full, step == 1);
        let epoch_dir = dir.join(format!("epoch_{:06}", stats.epoch));
        for name in ["blocks.bin", "manifest.bin"] {
            let bytes = std::fs::read(epoch_dir.join(name)).expect("read epoch file");
            digests.push(fnv1a(&bytes));
        }
        assert_eq!(store.load_epoch(stats.epoch).expect("load"), image(step));
    }
    std::fs::remove_dir_all(&dir).expect("remove store dir");
    digests
}

fn assert_pinned(tag: &str, block_size: usize, image: fn(u64) -> WorldImage, golden: [u64; 6]) {
    for writer_threads in [1usize, 2] {
        let config = StoreConfig {
            block_size,
            writer_threads,
            ..StoreConfig::default()
        };
        let digests = chain_digests(tag, config, image);
        assert_eq!(
            digests, golden,
            "{tag}, {writer_threads} writer thread(s): chain bytes moved: {digests:#018x?}"
        );
    }
}

#[test]
fn default_block_size_chain_bytes_are_pinned() {
    const GOLDEN: [u64; 6] = [
        0xc85dec6d9449872c,
        0x2cc4731711081c52,
        0xbe7b9d4d6ecc5982,
        0x630d07a104a4efee,
        0x4f00d10789e40fd6,
        0x7ddcd89a8b3fc807,
    ];
    let block_size = StoreConfig::default().block_size;
    assert_pinned("default", block_size, world, GOLDEN);
}

#[test]
fn a_block_past_64_kib_writes_pinned_bytes() {
    const GOLDEN: [u64; 6] = [
        0x65fe653f43dccd89,
        0x8e8342bb75c19e4a,
        0xff23120dde7a16ea,
        0xb3380ca058e57ecd,
        0xa04b0c912603209f,
        0xcb21d82f95f1f5da,
    ];
    assert_pinned("wide", 32 << 10, wide_world, GOLDEN);
}

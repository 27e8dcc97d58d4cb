//! The checkpoint store's encode stage pinned byte for byte, through the
//! public `DeltaStore` API: a fixed 3-epoch chain whose sections each
//! steer the per-block codec choice (raw, LZ4, byte-shuffled LZ4), with
//! the FNV-1a of every epoch's `blocks.bin` and `manifest.bin` recorded
//! before the encode stage was reworked. The `manifest.bin` digests were
//! re-recorded when block keys became `content_key`s (manifest V3); the
//! `blocks.bin` digests did not move. The same chain is committed with
//! one and with two writer threads; both must write these bytes. A third
//! chain carries generation hints across two rebases, and writes the same
//! bytes when the store is reopened, or a source block rots, just before
//! a rebase.

use std::sync::Arc;

use mpi_stool::dmtcp::codec::fnv1a;
use mpi_stool::dmtcp::{DeltaStore, RankImage, Reader, StoreConfig, WorldImage};
use mpi_stool::simnet::Telemetry;

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
        0x5114f94c89a16583,
        0xbe7b9d4d6ecc5982,
        0xb0067c05adf66f0b,
        0x4f00d10789e40fd6,
        0x0a6ccad0a785e5fe,
    ];
    let block_size = StoreConfig::default().block_size;
    assert_pinned("default", block_size, world, GOLDEN);
}

#[test]
fn a_block_past_64_kib_writes_pinned_bytes() {
    const GOLDEN: [u64; 6] = [
        0x65fe653f43dccd89,
        0xbf84468ac8323301,
        0xff23120dde7a16ea,
        0x3b3688c992a98b6f,
        0xa04b0c912603209f,
        0x128c070d15c1c84d,
    ];
    assert_pinned("wide", 32 << 10, wide_world, GOLDEN);
}

/// One epoch of a 3-rank chain whose sections carry generation hints:
/// two clean sections whose stamps never move, two dirty ones whose stamps
/// move every step while one window of their content changes, and two
/// unhinted ones (fresh noise, and a constant fill that always dedups).
fn hinted_world(step: u64) -> WorldImage {
    let ranks = (0..3usize)
        .map(|r| {
            let mut img = RankImage::new(r, 3, step);
            img.put_section_hinted("clean.text", text(r, 12 << 10), 1);
            img.put_section_hinted("clean.stairs", staircase(0, r, 2048), 2);
            let mut stairs = staircase(0, r, 4096);
            let at = (step as usize % 4) * 8192 + 1024;
            stairs[at..at + 2048].copy_from_slice(&staircase(step, r, 256));
            img.put_section_hinted("dirty.stairs", stairs, 100 + step);
            let mut noisy = noise(r as u64 + 7, 16 << 10);
            let at = (step as usize * 3 % 7) * 2048;
            noisy[at..at + 1024].copy_from_slice(&noise(step << 4 | r as u64, 1024));
            img.put_section_hinted("dirty.noise", noisy, 100 + step);
            img.put_section("noise", noise(step << 8 | 0x80 | r as u64, 6 << 10));
            img.put_section("constant", vec![0x33 + r as u8; 8 << 10]);
            img
        })
        .collect();
    WorldImage::new("Open MPI".to_string(), ranks)
}

/// What to do to the hinted chain on its way.
#[derive(Clone, Copy, PartialEq)]
enum Detour {
    None,
    /// Drop the handle after epoch 4 and open the directory again.
    ReopenBeforeRebase,
    /// Flip the first byte of epoch 1's `blocks.bin` (a clean section's
    /// first block, which every later epoch references) after epoch 4.
    CorruptBeforeRebase,
}

/// `bytes_hashed` of a V3 manifest, and the manifest with that one field
/// replaced by `value` and the trailer re-sealed.
fn with_bytes_hashed(manifest: &[u8], value: u64) -> (u64, Vec<u8>) {
    let mut r = Reader::checked(manifest).expect("manifest trailer");
    let _magic_version_epoch = (r.u64(), r.u64(), r.u64());
    let _full = r.u8();
    let _vendor = r.string();
    let at = manifest.len() - 8 - r.remaining();
    let hashed = r.u64().expect("bytes_hashed");
    let mut out = manifest[..manifest.len() - 8].to_vec();
    out[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let trailer = fnv1a(&out);
    out.extend_from_slice(&trailer.to_le_bytes());
    (hashed, out)
}

/// One committed epoch of the hinted chain.
struct Epoch {
    blocks: Vec<u8>,
    manifest: Vec<u8>,
    /// Stored bytes the commit copied instead of encoding, as its
    /// `store.commit.reused_bytes` reading.
    reused: u64,
}

/// Commit epochs 1..=10 of [`hinted_world`] at `max_chain` 3 (bases at 1,
/// 5 and 9); every epoch must restore.
fn hinted_chain(writer_threads: usize, detour: Detour) -> Vec<Epoch> {
    let dir = std::env::temp_dir().join(format!(
        "stool_encode_bytes_hinted_{writer_threads}_{}_{}",
        detour as u8,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        max_chain: 3,
        writer_threads,
        ..StoreConfig::default()
    };
    let tel = Arc::new(Telemetry::new(1));
    let open = || {
        let mut store = DeltaStore::open_with(&dir, config).expect("open store");
        store.attach_telemetry(tel.clone());
        store
    };
    let reused = || tel.metrics().histogram("store.commit.reused_bytes");
    let mut store = open();
    let mut epochs = Vec::new();
    for step in 1..=10u64 {
        if step == 5 && detour == Detour::ReopenBeforeRebase {
            drop(store);
            store = open();
        }
        if step == 5 && detour == Detour::CorruptBeforeRebase {
            let path = dir.join("epoch_000001").join("blocks.bin");
            let mut bytes = std::fs::read(&path).expect("read blocks");
            bytes[0] ^= 0x01;
            std::fs::write(&path, bytes).expect("rot a block");
        }
        let image = hinted_world(step);
        let before = reused().sum();
        let stats = store.commit(&image).expect("commit");
        assert_eq!(stats.full, [1, 5, 9].contains(&step), "epoch {step}");
        assert_eq!(reused().count(), step, "one reading per commit");
        let epoch_dir = dir.join(format!("epoch_{:06}", stats.epoch));
        let read = |name: &str| std::fs::read(epoch_dir.join(name)).expect("read epoch file");
        epochs.push(Epoch {
            blocks: read("blocks.bin"),
            manifest: read("manifest.bin"),
            reused: reused().sum() - before,
        });
        assert_eq!(store.load_epoch(stats.epoch).expect("load"), image);
    }
    std::fs::remove_dir_all(&dir).expect("remove store dir");
    epochs
}

/// FNV-1a of each epoch's `blocks.bin`, then `manifest.bin`.
fn digests(chain: &[Epoch]) -> Vec<u64> {
    let files = chain.iter().flat_map(|e| [&e.blocks, &e.manifest]);
    files.map(|f| fnv1a(f)).collect()
}

#[test]
fn a_hinted_chain_across_two_rebases_writes_pinned_bytes() {
    // Recorded from commit 712b74b, where a rebase chunked, hashed and
    // encoded every byte. The two rebases' manifests were re-recorded
    // when a rebase stopped hashing clean sections; the blocks did not
    // move, and neither did any other manifest.
    #[rustfmt::skip]
    const GOLDEN: [u64; 20] = [
        0xfe9c2bbd7d9eb12e, 0xe931bf0d0523a3a5,
        0x7542a5538f733320, 0x9a23d53e2f597a16,
        0xaa2ed4b83b204374, 0x4616ab330486df6d,
        0x79e9b5ce2b1cee10, 0x24d86e12853eb07d,
        0x556e2c474f3d4905, 0x5fc9677707131d03,
        0x1329d0cae3c16c10, 0x4f33bdabf5192a2d,
        0x686c0bc535ebe4ae, 0x2247a6dbe076df79,
        0x81839152bb3df537, 0xd18c7d8d0c859134,
        0x091d6bdb737cbf7f, 0x78cc6f295c6430d8,
        0xebed79dab66f336f, 0xd018e54febe2f5e4,
    ];
    // The rebases' (epochs 5 and 9) `manifest.bin` as 712b74b wrote them.
    const REBASES_AT_712B74B: [(usize, u64); 2] =
        [(5, 0xa1f59359d91816e0), (9, 0x3f5a503f191ed24a)];
    let world = hinted_world(1);
    let image_bytes = world.total_bytes() as u64;
    let clean_bytes: u64 = (world.ranks.iter().flat_map(|r| r.sections()))
        .filter(|(name, _)| name.starts_with("clean."))
        .map(|(_, data)| data.len() as u64)
        .sum();
    for writer_threads in [1usize, 2] {
        let chain = hinted_chain(writer_threads, Detour::None);
        let got = digests(&chain);
        assert_eq!(got, GOLDEN, "{writer_threads} thread(s): {got:#018x?}");
        // `bytes_hashed` is the one field a rebase's manifest moved in.
        for (epoch, parent) in REBASES_AT_712B74B {
            let (hashed, as_parent) = with_bytes_hashed(&chain[epoch - 1].manifest, image_bytes);
            assert_eq!(hashed, image_bytes - clean_bytes, "rebase {epoch}");
            assert_eq!(fnv1a(&as_parent), parent, "rebase {epoch}");
        }
        // Only a rebase copies stored blocks.
        for (epoch, e) in (1..).zip(&chain) {
            assert_eq!(e.reused > 0, [5, 9].contains(&epoch), "epoch {epoch}");
        }

        // Reopened before epoch 5: that rebase may copy nothing (its
        // sources predate the handle) and trusts no hint (the handle has
        // none), so it writes exactly what 712b74b wrote. Epoch 9 copies
        // from epochs the new handle wrote.
        let reopened = hinted_chain(writer_threads, Detour::ReopenBeforeRebase);
        let mut want = GOLDEN;
        want[9] = REBASES_AT_712B74B[0].1;
        assert_eq!(
            digests(&reopened),
            want,
            "reopened, {writer_threads} thread(s)"
        );
        assert_eq!(reopened[4].reused, 0);
        assert!(reopened[8].reused > 0);

        // A rotten source block fails its CRC and is encoded afresh.
        let rotten = hinted_chain(writer_threads, Detour::CorruptBeforeRebase);
        assert_eq!(
            digests(&rotten),
            GOLDEN,
            "rotten, {writer_threads} thread(s)"
        );
        assert!(0 < rotten[4].reused && rotten[4].reused < chain[4].reused);
    }
}

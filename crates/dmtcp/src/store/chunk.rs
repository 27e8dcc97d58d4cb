//! Content-defined chunking: the fused Gear-boundary + content-key scan.

use std::collections::HashSet;

use crate::codec::{mix64, KeyLanes};
use crate::image::RankImage;

use super::manifest::BlockKey;
use super::DeltaStore;

/// One chunked block of a section, before dedup placement.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct ChunkRec {
    pub(super) key: BlockKey,
    pub(super) start: usize,
    pub(super) len: usize,
}

/// One rank's chunked sections, as produced by the writer pool. A `None`
/// chunk list marks a section skipped by dirty tracking (re-referenced
/// from the previous commit instead of re-chunked).
pub(super) type RankChunks = Vec<(String, Option<Vec<ChunkRec>>)>;

impl DeltaStore {
    /// The Gear table for content-defined chunking: one pseudorandom u64
    /// per byte value (splitmix64 of the byte).
    fn gear_table() -> &'static [u64; 256] {
        static TABLE: std::sync::OnceLock<[u64; 256]> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            std::array::from_fn(|i| mix64((i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15)))
        })
    }

    /// Cut one section into content-defined chunks (Gear rolling hash,
    /// FastCDC-style bounds) and key each chunk, in one scan: boundaries
    /// follow the *content*, so an insertion or deletion early in a
    /// section shifts block boundaries only locally and the unchanged
    /// tail still dedups — exactly the shape of a rank whose arrays grow
    /// or shrink between epochs (e.g. atom migration). `avg` is the
    /// target mean chunk size; actual chunks stay within [avg/4, 4*avg].
    /// Each 8-byte word is folded into the [`BlockKey`] right after the
    /// Gear hash has passed it, so every dirty byte is read once. The Gear
    /// hash starts on the last word boundary 64 or more bytes before the
    /// first legal cut: 64 shifts push a byte out of the `u64` state, so
    /// no earlier byte can move a cut, and the words before it are only
    /// keyed.
    pub(super) fn cut_and_hash(data: &[u8], avg: usize) -> Vec<ChunkRec> {
        let gear = Self::gear_table();
        let mask = (avg.next_power_of_two() as u64).wrapping_sub(1);
        let min = (avg / 4).max(1);
        let max = avg * 4;
        let warm = min.saturating_sub(64) & !7;
        let mut recs = Vec::with_capacity(data.len() / avg + 1);
        let mut start = 0;
        while start < data.len() {
            let window = &data[start..(start + max).min(data.len())];
            let (mut key, mut at, mut h, mut cut) = (KeyLanes::SEED, 0, 0u64, None);
            // Roll the Gear hash over `bytes`, which start at `at`: the
            // chunk's end, if a legal cut falls there.
            let mut cut_in = |bytes: &[u8], at: usize| {
                (at + 1..).zip(bytes).find_map(|(end, &byte)| {
                    h = (h << 1).wrapping_add(gear[byte as usize]);
                    // No boundary inside the minimum region.
                    (end >= min && h & mask == 0).then_some(end)
                })
            };
            let mut words = window.chunks_exact(8);
            for w in &mut words {
                if at >= warm {
                    cut = cut_in(w, at);
                    if cut.is_some() {
                        break;
                    }
                }
                key = key.fold(u64::from_le_bytes(w.try_into().expect("8 bytes")));
                at += 8;
            }
            let len = cut.or_else(|| cut_in(words.remainder(), at));
            let len = len.unwrap_or(window.len());
            recs.push(ChunkRec {
                key: key.finish(&window[at..len], len),
                start,
                len,
            });
            start += len;
        }
        recs
    }

    /// Chunk one rank image's sections into keyed block records.
    /// Sections named in `skip` (clean per their generation hints) are
    /// passed through unchunked — not a byte of them is read here.
    pub(super) fn chunk_rank(
        img: &RankImage,
        block_size: usize,
        skip: &HashSet<String>,
    ) -> RankChunks {
        img.sections()
            .map(|(name, data)| {
                let dirty = !skip.contains(name);
                let recs = dirty.then(|| Self::cut_and_hash(data, block_size));
                (name.to_string(), recs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::StoreConfig;
    use super::*;
    use crate::codec::content_key;
    use crate::image::WorldImage;

    /// Chunk sizes on both sides of the 64-byte Gear warm-up: `min` is
    /// 16, 32, 64, 75 (a warm-up start that is not a multiple of 8) and
    /// 1024.
    const AVGS: [usize; 5] = [64, 128, 256, 300, 4096];

    /// The separate passes [`DeltaStore::cut_and_hash`] fused, kept as
    /// its reference: the Gear boundary scan from each chunk's first
    /// byte, then one `content_key` pass over each chunk.
    fn cut_points(data: &[u8], avg: usize) -> Vec<(usize, usize)> {
        let gear = DeltaStore::gear_table();
        let mask = (avg.next_power_of_two() as u64).wrapping_sub(1);
        let min = (avg / 4).max(1);
        let max = avg * 4;
        let mut cuts = Vec::with_capacity(data.len() / avg + 1);
        let mut start = 0;
        while start < data.len() {
            let mut h: u64 = 0;
            let hard_end = (start + max).min(data.len());
            let mut end = hard_end;
            let scan_from = (start + min).min(data.len());
            // Warm the rolling hash over the minimum region, then look
            // for a content-defined boundary.
            for (i, &b) in data[start..hard_end].iter().enumerate() {
                h = (h << 1).wrapping_add(gear[b as usize]);
                if start + i + 1 >= scan_from && h & mask == 0 {
                    end = start + i + 1;
                    break;
                }
            }
            cuts.push((start, end - start));
            start = end;
        }
        cuts
    }

    fn cut_and_hash_reference(data: &[u8], avg: usize) -> Vec<ChunkRec> {
        let rec = |(start, len): (usize, usize)| {
            let chunk = &data[start..start + len];
            ChunkRec {
                key: content_key(chunk),
                start,
                len,
            }
        };
        cut_points(data, avg).into_iter().map(rec).collect()
    }

    #[test]
    fn fused_scan_equals_the_separate_passes_at_the_edges() {
        let gear = DeltaStore::gear_table();
        for avg in AVGS {
            let (min, max) = (avg / 4, avg * 4);
            let mask = avg.next_power_of_two() as u64 - 1;
            // A constant fill cuts at `min` every time or never: the
            // rolling hash settles at `-gear[b]` in the masked bits.
            let never = (0..=255u8).find(|&b| gear[b as usize] & mask != 0).unwrap();
            let mut cases = vec![
                Vec::new(),
                vec![7],
                fill_bytes(3, min - 1),
                fill_bytes(4, min),
                vec![never; max],
                vec![never; max + 1],
                vec![never; 3 * max + min],
            ];
            if let Some(always) = (0..=255u8).find(|&b| gear[b as usize] & mask == 0) {
                cases.push(vec![always; 5 * min + 3]);
            }
            // A section ending one byte after a content-defined cut.
            let noise = fill_bytes(avg as u64, 6 * max);
            let first = cut_points(&noise, avg)[0].1;
            assert!(first < max, "a content-defined cut, not the hard bound");
            cases.push(noise[..first + 1].to_vec());
            cases.push(noise);
            for data in &cases {
                let fused = DeltaStore::cut_and_hash(data, avg);
                assert_eq!(fused, cut_and_hash_reference(data, avg), "avg {avg}");
            }
            assert_eq!(DeltaStore::cut_and_hash(&cases[4], avg).len(), 1);
        }
    }

    #[test]
    fn cut_points_cover_and_respect_bounds() {
        for len in [0usize, 1, 31, 128, 5000] {
            let data = fill_bytes(len as u64 + 7, len);
            let cuts = DeltaStore::cut_and_hash(&data, 64);
            let total: usize = cuts.iter().map(|c| c.len).sum();
            assert_eq!(total, len, "cuts must tile the section");
            let mut pos = 0;
            for c in &cuts {
                assert_eq!(c.start, pos, "cuts must be contiguous");
                assert!((1..=64 * 4).contains(&c.len), "bounds violated: {}", c.len);
                pos += c.len;
            }
        }
    }

    #[test]
    fn content_defined_chunking_survives_insertions() {
        // Insert bytes near the front of a section: with content-defined
        // boundaries the unchanged tail still dedups, which fixed-offset
        // blocks could never do.
        let tail = fill_bytes(42, 8000);
        let mut v1 = fill_bytes(7, 512);
        v1.extend_from_slice(&tail);
        let mut v2 = fill_bytes(9, 700); // different, longer prefix
        v2.extend_from_slice(&tail);
        // The fused scan itself: past the edit, the same chunks come
        // back, shifted by the growth of the prefix.
        let v2_cuts: HashSet<(usize, usize)> = DeltaStore::cut_and_hash(&v2, 256)
            .iter()
            .map(|c| (c.start, c.len))
            .collect();
        let v1_cuts = DeltaStore::cut_and_hash(&v1, 256);
        let kept = v1_cuts
            .iter()
            .filter(|c| v2_cuts.contains(&(c.start + 700 - 512, c.len)))
            .count();
        assert!(
            kept * 10 >= v1_cuts.len() * 8,
            "{kept} of {}",
            v1_cuts.len()
        );
        let make = |epoch: u64, data: &[u8]| {
            let mut img = RankImage::new(0, 1, epoch);
            img.put_section("grown", data.to_vec());
            WorldImage::new("MPICH".to_string(), vec![img])
        };
        let dir = tmp_dir("cdc");
        let cfg = StoreConfig {
            block_size: 256,
            ..small_cfg()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).unwrap();
        let s1 = store.commit(&make(1, &v1)).unwrap();
        let s2 = store.commit(&make(2, &v2)).unwrap();
        assert!(
            s2.bytes_written * 3 < s1.bytes_written,
            "shifted tail must dedup: delta {} vs full {}",
            s2.bytes_written,
            s1.bytes_written
        );
        assert_eq!(store.load_epoch(2).unwrap(), make(2, &v2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        #[test]
        fn fused_scan_equals_the_separate_passes(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..24_000),
            avg in 0usize..AVGS.len(),
        ) {
            let avg = AVGS[avg];
            proptest::prop_assert_eq!(
                DeltaStore::cut_and_hash(&data, avg),
                cut_and_hash_reference(&data, avg)
            );
        }
    }
}

//! The checkpoint store's block key, `dmtcp::codec::content_key`: equal to
//! its definition written out byte by byte, and as sensitive as that
//! definition promises — one flipped bit changes both lanes, a trailing
//! zero byte changes the key, and a hundred thousand distinct chunks do
//! not collide in either lane alone. (That the chunk scan's fused key
//! equals `content_key` per chunk is tested next to the scan, in
//! `dmtcp::store::chunk`.)

use std::collections::HashSet;

use mpi_stool::dmtcp::codec::content_key;

/// The key as defined: two lanes fold each little-endian 8-byte word
/// (xor, multiply by an odd constant, rotate), the zero-padded tail word
/// carries the length rotated right by one byte, and two Feistel rounds
/// of the splitmix64 finalizer mix the lanes.
fn reference(bytes: &[u8]) -> (u64, u64) {
    let mut words = vec![0u64; bytes.len() / 8 + 1];
    for (i, &b) in bytes.iter().enumerate() {
        words[i / 8] |= (b as u64) << (8 * (i % 8));
    }
    *words.last_mut().unwrap() ^= (bytes.len() as u64).rotate_right(8);
    let (mut a, mut b) = (0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344u64);
    for w in words {
        a = (a ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        b = (b ^ w).wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(37);
    }
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let a = a ^ mix(b);
    (a, b ^ mix(a))
}

/// xorshift64* bytes.
fn noise(seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

#[test]
fn content_key_equals_its_definition() {
    for len in (0..=80).chain([255, 256, 257, 4096, 4099]) {
        for data in [noise(len as u64, len), vec![0; len], vec![0xFF; len]] {
            assert_eq!(content_key(&data), reference(&data), "len {len}");
        }
    }
}

#[test]
fn one_flipped_bit_changes_both_lanes_at_every_length_to_72() {
    for len in 0..=72usize {
        let data = noise(0xF11F + len as u64, len);
        let (a, b) = content_key(&data);
        for bit in 0..len * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let (fa, fb) = content_key(&flipped);
            assert!(fa != a && fb != b, "len {len}, bit {bit}");
        }
    }
}

#[test]
fn a_trailing_zero_byte_changes_the_key() {
    for len in 0..=72usize {
        for mut data in [noise(0x7A11 + len as u64, len), vec![0; len]] {
            let (a, b) = content_key(&data);
            data.push(0);
            let (za, zb) = content_key(&data);
            assert!(za != a && zb != b, "len {len}");
        }
    }
}

#[test]
fn distinct_noise_chunks_collide_in_neither_lane() {
    const CHUNKS: usize = 100_000;
    let mut chunks = HashSet::with_capacity(CHUNKS);
    let (mut lane_a, mut lane_b) = (HashSet::new(), HashSet::new());
    let mut seed = 0;
    while chunks.len() < CHUNKS {
        seed += 1;
        let chunk = noise(seed, 1 + (seed as usize * 7) % 128);
        let (a, b) = content_key(&chunk);
        if chunks.insert(chunk) {
            assert!(lane_a.insert(a), "lane 0 collides at chunk {seed}");
            assert!(lane_b.insert(b), "lane 1 collides at chunk {seed}");
        }
    }
}

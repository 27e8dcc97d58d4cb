//! Property-based tests (proptest) on the core data structures and the
//! system's central invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use mpi_stool::abi::{Handle, HandleKind, ReduceOp};
use mpi_stool::dmtcp::{Memory, RankImage};
use mpi_stool::simnet::{ClusterSpec, VirtualTime};
use mpi_stool::stool::programs::RingPings;
use mpi_stool::stool::{AppCtx, Checkpointer, CkptMode, MpiProgram, Session, StoolResult, Vendor};

// ---------------------------------------------------------------------------
// ABI handle encoding
// ---------------------------------------------------------------------------

fn any_kind() -> impl Strategy<Value = HandleKind> {
    prop::sample::select(HandleKind::ALL.to_vec())
}

proptest! {
    #[test]
    fn handle_dynamic_roundtrip(kind in any_kind(), slot in Handle::FIRST_DYNAMIC_INDEX..0x00ff_ffff) {
        let h = Handle::dynamic(kind, slot);
        prop_assert_eq!(h.kind(), kind);
        prop_assert!(!h.is_predefined());
        prop_assert!(!h.is_null());
    }

    #[test]
    fn handle_predefined_roundtrip(kind in any_kind(), index in 0u32..Handle::FIRST_DYNAMIC_INDEX) {
        let h = Handle::predefined(kind, index);
        prop_assert_eq!(h.kind(), kind);
        prop_assert_eq!(h.index(), index);
        prop_assert!(h.is_predefined());
    }

    #[test]
    fn handle_raw_is_lossless(kind in any_kind(), slot in Handle::FIRST_DYNAMIC_INDEX..0x00ff_ffff) {
        let h = Handle::dynamic(kind, slot);
        prop_assert_eq!(Handle::from_raw(h.raw()), h);
    }

    #[test]
    fn distinct_kinds_never_collide(
        a in any_kind(), b in any_kind(), slot in Handle::FIRST_DYNAMIC_INDEX..0x00ff_ffff
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(Handle::dynamic(a, slot), Handle::dynamic(b, slot));
    }
}

// ---------------------------------------------------------------------------
// Checkpoint image codec
// ---------------------------------------------------------------------------

fn any_segment_name() -> impl Strategy<Value = String> {
    "[a-z]{1,12}(\\.[a-z0-9]{1,8})?"
}

fn any_memory() -> impl Strategy<Value = Memory> {
    vec(
        (
            any_segment_name(),
            prop_oneof![
                vec(
                    any::<f64>().prop_filter("no NaN for PartialEq", |x| !x.is_nan()),
                    0..24
                )
                .prop_map(SegmentData::F64),
                vec(any::<i64>(), 0..24).prop_map(SegmentData::I64),
                vec(any::<u64>(), 0..24).prop_map(SegmentData::U64),
                vec(any::<u8>(), 0..64).prop_map(SegmentData::Bytes),
            ],
        ),
        0..8,
    )
    .prop_map(|entries| {
        let mut mem = Memory::new();
        for (name, data) in entries {
            // Duplicate names may arrive with a different element type;
            // drop the old segment first (the typed accessors panic on a
            // type mismatch by design).
            mem.remove(&name);
            match data {
                SegmentData::F64(v) => mem.f64s_mut(&name, 0).extend(v),
                SegmentData::I64(v) => mem.i64s_mut(&name, 0).extend(v),
                SegmentData::U64(v) => mem.u64s_mut(&name, 0).extend(v),
                SegmentData::Bytes(v) => mem.bytes_mut(&name, 0).extend(v),
            }
        }
        mem
    })
}

#[derive(Debug, Clone)]
enum SegmentData {
    F64(Vec<f64>),
    I64(Vec<i64>),
    U64(Vec<u64>),
    Bytes(Vec<u8>),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memory_codec_roundtrip(mem in any_memory()) {
        // The checkpoint path: one encoded section per segment, each
        // inserted back under its name.
        let mut back = Memory::new();
        for name in mem.names() {
            let section = mem.encode_segment(name).expect("a held segment");
            back.insert_segment(name, section).expect("decode");
        }
        prop_assert_eq!(back, mem);
    }

    #[test]
    fn corrupted_image_is_rejected(mem in any_memory(), flip in any::<usize>()) {
        let mut img = RankImage::new(0, 1, 1);
        for name in mem.names() {
            let section = mem.encode_segment(name).expect("a held segment");
            img.put_section(&format!("memory/{name}"), section);
        }
        let mut buf = img.encode();
        let i = flip % buf.len();
        buf[i] ^= 0x40;
        // The fnv1a trailer covers every body byte, and a trailer flip
        // breaks the stored sum itself: every single-bit corruption must be
        // rejected before any state is reconstructed.
        prop_assert!(RankImage::decode(&buf).is_err(), "bit flip at {} accepted", i);
    }

    #[test]
    fn rank_image_roundtrip(
        rank in 0usize..48,
        sections in vec((any_segment_name(), vec(any::<u8>(), 0..64)), 0..6),
    ) {
        let mut img = RankImage::new(rank, 48, 1);
        for (name, data) in &sections {
            img.put_section(name, data.clone());
        }
        let encoded = img.encode();
        let back = RankImage::decode(&encoded).expect("decode");
        prop_assert_eq!(back.rank, img.rank);
        prop_assert_eq!(back.nranks, img.nranks);
        // put_section overwrites: generated duplicate names must compare
        // against the last write.
        let mut expect: std::collections::HashMap<&str, &[u8]> = Default::default();
        for (name, data) in &sections {
            expect.insert(name.as_str(), data.as_slice());
        }
        for (name, data) in expect {
            prop_assert_eq!(back.section(name), Some(data));
        }
    }
}

// ---------------------------------------------------------------------------
// Delta-checkpoint store
// ---------------------------------------------------------------------------

use mpi_stool::dmtcp::{DeltaStore, StoreConfig, StoreError, WorldImage};

fn store_tmp_dir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stool_store_prop_{tag}_{}_{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build a dense world image at `epoch` from shared + per-rank sections.
fn world_from_sections(
    epoch: u64,
    nranks: usize,
    sections: &std::collections::BTreeMap<String, Vec<u8>>,
) -> WorldImage {
    let ranks = (0..nranks)
        .map(|r| {
            let mut img = RankImage::new(r, nranks, epoch);
            for (name, data) in sections {
                // Perturb per rank so ranks are distinct but share most
                // content (the realistic dedup-friendly shape).
                let mut d = data.clone();
                if !d.is_empty() {
                    d[0] = d[0].wrapping_add(r as u8);
                }
                img.put_section(name, d);
            }
            img
        })
        .collect();
    WorldImage::new("MPICH".to_string(), ranks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full + randomized delta chains of a 48-rank world: applying random
    /// section mutations epoch by epoch, every committed epoch must reload
    /// bit-identically, however many threads the loader fans out over.
    #[test]
    fn store_delta_chain_roundtrips(
        case in any::<u64>(),
        base in vec((any_segment_name(), vec(any::<u8>(), 0..400)), 1..5),
        epochs in vec(vec((any_segment_name(), vec(any::<u8>(), 0..400)), 0..3), 1..5),
        block in prop::sample::select(vec![16usize, 64, 256]),
        max_chain in 1usize..4,
    ) {
        let dir = store_tmp_dir("chain", case);
        let cfg = StoreConfig {
            block_size: block,
            // Keep everything restorable: this property checks the chain,
            // not the GC.
            retain_epochs: 64,
            max_chain,
            ..StoreConfig::default()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).expect("open");
        let mut sections: std::collections::BTreeMap<String, Vec<u8>> =
            base.iter().cloned().collect();
        let mut committed: Vec<(u64, WorldImage)> = Vec::new();
        for (i, mutations) in epochs.iter().enumerate() {
            for (name, data) in mutations {
                sections.insert(name.clone(), data.clone());
            }
            let image = world_from_sections(i as u64 + 1, 48, &sections);
            let stats = store.commit(&image).expect("commit");
            prop_assert_eq!(stats.full, i == 0 || (i % (max_chain + 1)) == 0);
            committed.push((stats.epoch, image));
        }
        // The loader fans ranks out over `writer_threads`: inline, the
        // default pair, and a count that does not divide the world must
        // all rebuild what was committed.
        for threads in [1usize, 2, 7] {
            let reader_cfg = StoreConfig { writer_threads: threads, ..cfg };
            let reader = DeltaStore::open_with(&dir, reader_cfg).expect("reopen");
            for (seq, expect) in &committed {
                let got = reader.load_epoch(*seq).expect("load epoch");
                prop_assert_eq!(&got, expect, "epoch {} on {} loader threads", seq, threads);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corrupting any single byte of any epoch's block file is detected
    /// by the per-block CRC: every epoch either reloads bit-identically
    /// or reports `BlockCorrupt` — never silently loads wrong state.
    #[test]
    fn store_single_block_corruption_detected(
        case in any::<u64>(),
        base in vec((any_segment_name(), vec(any::<u8>(), 1..300)), 1..4),
        change in vec((any_segment_name(), vec(any::<u8>(), 1..300)), 1..3),
        victim_byte in any::<usize>(),
        victim_epoch in 1u64..3,
    ) {
        let dir = store_tmp_dir("crc", case);
        let cfg = StoreConfig {
            block_size: 32,
            retain_epochs: 64,
            ..StoreConfig::default()
        };
        let mut store = DeltaStore::open_with(&dir, cfg).expect("open");
        let mut sections: std::collections::BTreeMap<String, Vec<u8>> =
            base.iter().cloned().collect();
        let img1 = world_from_sections(1, 2, &sections);
        store.commit(&img1).expect("commit 1");
        for (name, data) in &change {
            sections.insert(name.clone(), data.clone());
        }
        let img2 = world_from_sections(2, 2, &sections);
        store.commit(&img2).expect("commit 2");

        let blocks = dir
            .join(format!("epoch_{victim_epoch:06}"))
            .join("blocks.bin");
        let mut buf = std::fs::read(&blocks).expect("read blocks");
        prop_assume!(!buf.is_empty());
        let i = victim_byte % buf.len();
        buf[i] ^= 0x01;
        std::fs::write(&blocks, &buf).expect("write blocks");

        let mut detected = false;
        for (seq, expect) in [(1u64, &img1), (2u64, &img2)] {
            match store.load_epoch(seq) {
                Ok(got) => prop_assert_eq!(&got, expect, "epoch {} silently wrong", seq),
                Err(StoreError::BlockCorrupt { src_epoch, .. }) => {
                    prop_assert_eq!(src_epoch, victim_epoch);
                    detected = true;
                }
                Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            }
        }
        // The flipped byte lives in some block of the victim epoch; at
        // least one epoch referencing that file must notice.
        prop_assert!(detected, "corruption in epoch {victim_epoch} went unnoticed");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Remote second tier: sealed-epoch round-trips
// ---------------------------------------------------------------------------

use mpi_stool::dmtcp::{FsTier, ObjectTier, TierConfig};
use std::sync::Arc;
use std::time::Duration;

fn prop_tier_cfg() -> TierConfig {
    TierConfig {
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        ..TierConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary chains ship → local store deleted → hydrate from the
    /// tier alone → the chain head restores bit-identically under the
    /// tier-attached open.
    #[test]
    fn sealed_epochs_roundtrip_through_the_tier(
        case in any::<u64>(),
        base in vec((any_segment_name(), vec(any::<u8>(), 0..300)), 1..4),
        epochs in vec(vec((any_segment_name(), vec(any::<u8>(), 0..300)), 0..3), 1..4),
        block in prop::sample::select(vec![32usize, 128]),
        max_chain in 1usize..4,
    ) {
        let dir = store_tmp_dir("tier_chain", case);
        let tier_dir = store_tmp_dir("tier_chain_tier", case.wrapping_add(1));
        let cfg = StoreConfig {
            block_size: block,
            retain_epochs: 64,
            max_chain,
            ..StoreConfig::default()
        };
        let tier: Arc<dyn ObjectTier> = Arc::new(FsTier::open(&tier_dir).expect("tier"));
        let mut sections: std::collections::BTreeMap<String, Vec<u8>> =
            base.iter().cloned().collect();
        let mut last: Option<WorldImage> = None;
        {
            let mut store =
                DeltaStore::open_with_tier(&dir, cfg, tier.clone(), prop_tier_cfg())
                    .expect("open");
            for (i, mutations) in epochs.iter().enumerate() {
                for (name, data) in mutations {
                    sections.insert(name.clone(), data.clone());
                }
                let image = world_from_sections(i as u64 + 1, 3, &sections);
                store.commit(&image).expect("commit");
                last = Some(image);
            }
            store.tier_flush().expect("every epoch ships cleanly");
            prop_assert_eq!(store.tier_durable().len(), epochs.len());
        }
        // The node's disk dies: the entire local chain is gone. A
        // tier-attached open hydrates the head (and the epochs it
        // references) back and restores bit-identically.
        std::fs::remove_dir_all(&dir).expect("delete local store");
        let store = DeltaStore::open_with_tier(&dir, cfg, tier, prop_tier_cfg()).expect("reopen");
        let got = store.load_latest().expect("hydrated restore");
        prop_assert_eq!(&got, last.as_ref().expect("at least one epoch"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&tier_dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Virtual time
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn virtual_time_add_is_monotone(a in 0u64..1 << 40, b in 0u64..1 << 40) {
        let ta = VirtualTime::from_nanos(a);
        let tb = VirtualTime::from_nanos(b);
        prop_assert!(ta + tb >= ta);
        prop_assert!(ta + tb >= tb);
        prop_assert_eq!(ta + tb, tb + ta);
    }

    #[test]
    fn virtual_time_micros_roundtrip(us in 0u64..1 << 30) {
        let t = VirtualTime::from_micros(us);
        prop_assert_eq!(t.as_micros_f64() as u64, us);
    }
}

// ---------------------------------------------------------------------------
// Whole-system invariants (small worlds, few cases: these launch threads)
// ---------------------------------------------------------------------------

/// An allreduce over random per-rank contributions must equal the serial sum
/// on every rank, under both vendors, through the full stack.
#[derive(Clone)]
struct AllreduceCheck {
    contributions: Vec<f64>,
}

impl MpiProgram for AllreduceCheck {
    fn name(&self) -> &'static str {
        "allreduce-check"
    }
    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let mine = self.contributions[app.rank()];
        let total = app
            .pmpi()
            .allreduce_f64(mine, ReduceOp::Sum, Handle::COMM_WORLD)?;
        app.mem.set_f64("check.total", total);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn allreduce_matches_serial_sum(
        contributions in vec(-1.0e6f64..1.0e6, 4),
        vendor_is_mpich in any::<bool>(),
    ) {
        let cluster = ClusterSpec::builder().nodes(2).ranks_per_node(2).build();
        let vendor = if vendor_is_mpich { Vendor::Mpich } else { Vendor::OpenMpi };
        let program = AllreduceCheck { contributions: contributions.clone() };
        let out = Session::builder()
            .cluster(cluster)
            .vendor(vendor)
            .checkpointer(Checkpointer::mana())
            .build()
            .unwrap()
            .launch(&program)
            .unwrap();
        let memories = out.memories().unwrap();
        // Both vendor reduction trees are order-deterministic; against the
        // serial left fold we allow f64 rounding slack.
        let serial: f64 = contributions.iter().sum();
        for m in memories {
            let got = m.get_f64("check.total").unwrap();
            prop_assert!((got - serial).abs() <= 1e-9 * serial.abs().max(1.0));
        }
    }

    #[test]
    fn checkpoint_step_never_changes_the_answer(stop_step in 0u64..8, payload in 1usize..64) {
        let cluster = ClusterSpec::builder().nodes(2).ranks_per_node(2).build();
        let program = RingPings { rounds: 8, payload };
        let reference = Session::builder()
            .cluster(cluster.clone())
            .vendor(Vendor::Mpich)
            .checkpointer(Checkpointer::mana())
            .build()
            .unwrap()
            .launch(&program)
            .unwrap();
        let expect = reference.memories().unwrap()[0].get_f64("ring.total").unwrap();

        let image = Session::builder()
            .cluster(cluster.clone())
            .vendor(Vendor::OpenMpi)
            .checkpointer(Checkpointer::mana())
            .checkpoint_at_step(stop_step, CkptMode::Stop)
            .build()
            .unwrap()
            .launch(&program)
            .unwrap()
            .into_image()
            .unwrap();
        let got = Session::builder()
            .cluster(cluster)
            .vendor(Vendor::Mpich)
            .checkpointer(Checkpointer::mana())
            .build()
            .unwrap()
            .restore(&image, &program)
            .unwrap()
            .memories()
            .unwrap()[0]
            .get_f64("ring.total")
            .unwrap();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// Indexed matching: wildcard receives respect global arrival order and
// per-pair FIFO (the invariants the O(1) bucket index must preserve)
// ---------------------------------------------------------------------------

mod matching_order {
    use mpi_stool::simnet::{ClusterSpec, Fabric, NoiseModel, RankCtx};
    use std::sync::Arc;

    /// A three-rank single-threaded harness: ranks 0 and 1 send to rank 2
    /// in a caller-chosen interleaving, so arrival order at rank 2 is
    /// exactly the send order.
    pub struct Harness {
        pub senders: Vec<RankCtx>,
        pub receiver: RankCtx,
    }

    impl Harness {
        pub fn new() -> Harness {
            let spec = Arc::new(ClusterSpec::builder().nodes(1).ranks_per_node(3).build());
            let (_fabric, eps): (Fabric, _) = Fabric::new(&spec);
            let mut ctxs: Vec<RankCtx> = eps
                .into_iter()
                .enumerate()
                .map(|(r, ep)| {
                    RankCtx::new(
                        r,
                        spec.clone(),
                        ep,
                        NoiseModel::disabled().stream_for_rank(r),
                    )
                })
                .collect();
            let receiver = ctxs.pop().expect("three ranks");
            Harness {
                senders: ctxs,
                receiver,
            }
        }
    }

    /// Model message: identity of one sent envelope.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Sent {
        pub src: usize,
        pub tag: i32,
        pub arrival_index: usize,
    }

    /// The oracle: among outstanding messages matching (src?, tag?), the
    /// matcher must deliver the one with the smallest arrival index.
    pub fn expected_pick(
        outstanding: &[Sent],
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Option<Sent> {
        outstanding
            .iter()
            .filter(|m| src.is_none_or(|s| m.src == s))
            .filter(|m| tag.is_none_or(|t| m.tag == t))
            .min_by_key(|m| m.arrival_index)
            .copied()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive the indexed matcher with a random send schedule and a random
    /// sequence of receive patterns (exact, half-wildcard, full-wildcard)
    /// against a brute-force model. Checks, for every receive:
    /// * the delivered message is the *earliest-arriving* match (global
    ///   arrival-seq order for wildcards), and
    /// * per-(src, tag) pairs are consumed in send order (non-overtaking),
    ///   which follows from the first property but is asserted separately.
    #[test]
    fn wildcard_matching_respects_arrival_order_and_pair_fifo(
        schedule in vec((0usize..2, 0i32..3), 1..40),
        pattern_seed in vec((0u8..4, 0usize..2, 0i32..3), 40),
    ) {
        use matching_order::{expected_pick, Harness, Sent};
        use mpi_stool::simnet::matching::{MatchCore, SrcPattern, TagPattern};

        let h = Harness::new();
        let ctx_id = 11u64;
        let mut outstanding: Vec<Sent> = Vec::new();
        for (i, &(src, tag)) in schedule.iter().enumerate() {
            let payload = bytes::Bytes::copy_from_slice(&(i as u64).to_le_bytes());
            h.senders[src]
                .endpoint()
                .send_raw(2, ctx_id, tag, payload, &h.senders[src])
                .unwrap();
            outstanding.push(Sent { src, tag, arrival_index: i });
        }

        let mut core = MatchCore::new();
        let mut per_pair_last: std::collections::HashMap<(usize, i32), usize> =
            std::collections::HashMap::new();
        let mut patterns = pattern_seed.iter().cycle();
        while !outstanding.is_empty() {
            let &(kind, s, t) = patterns.next().expect("cycle never ends");
            let (src_sel, tag_sel, src_model, tag_model) = match kind {
                0 => (SrcPattern::Any, TagPattern::Any, None, None),
                1 => (SrcPattern::Is(s), TagPattern::Any, Some(s), None),
                2 => (SrcPattern::Any, TagPattern::Is(t), None, Some(t)),
                _ => (SrcPattern::Is(s), TagPattern::Is(t), Some(s), Some(t)),
            };
            let expected = expected_pick(&outstanding, src_model, tag_model);
            let got = core.try_match(&h.receiver, ctx_id, src_sel, tag_sel).unwrap();
            match (expected, got) {
                (None, None) => continue,
                (Some(want), Some(m)) => {
                    let idx = u64::from_le_bytes(m.env.payload[..8].try_into().unwrap()) as usize;
                    prop_assert_eq!(
                        idx, want.arrival_index,
                        "pattern {:?}/{:?} must deliver the earliest match",
                        src_sel, tag_sel
                    );
                    prop_assert_eq!(m.env.src, want.src);
                    prop_assert_eq!(m.env.tag, want.tag);
                    // Per-pair FIFO: consumption order within one
                    // (src, tag) pair is send order.
                    if let Some(&prev) = per_pair_last.get(&(want.src, want.tag)) {
                        prop_assert!(
                            prev < want.arrival_index,
                            "pair ({}, {}) overtaken: {} after {}",
                            want.src, want.tag, want.arrival_index, prev
                        );
                    }
                    per_pair_last.insert((want.src, want.tag), want.arrival_index);
                    outstanding.retain(|o| o.arrival_index != want.arrival_index);
                }
                (want, got) => prop_assert!(
                    false,
                    "model/matcher disagree: model {:?}, matcher {:?}",
                    want, got.map(|m| (m.env.src, m.env.tag, m.seq))
                ),
            }
        }
        prop_assert_eq!(core.unexpected_len(), 0);
    }

    /// The same invariants on a **striped** fabric with more senders than
    /// stripes: sources land on *different* lock stripes of the
    /// receiver's mailbox (and some share one), and the arrival-stamp
    /// merge must still deliver exactly like the single-lock mailbox —
    /// per-(src, tag) pairs in send order (non-overtaking) and wildcards
    /// in global arrival order.
    #[test]
    fn striped_mailboxes_preserve_fifo_and_wildcard_order(
        schedule in vec((0usize..6, 0i32..3), 1..60),
        pattern_seed in vec((0u8..4, 0usize..6, 0i32..3), 48),
        stripes in prop::sample::select(vec![1usize, 2, 3, 4]),
    ) {
        use matching_order::{expected_pick, Sent};
        use mpi_stool::simnet::matching::{MatchCore, SrcPattern, TagPattern};
        use mpi_stool::simnet::{Fabric, NoiseModel, RankCtx};
        use std::sync::Arc;

        // Six senders over 1–4 stripes: src % stripes collides for some
        // pairs and separates others.
        let spec = Arc::new(ClusterSpec::builder().nodes(1).ranks_per_node(7).build());
        let (fabric, eps) = Fabric::with_stripes(&spec, stripes);
        prop_assert_eq!(fabric.stripes(), stripes);
        let mut ctxs: Vec<RankCtx> = eps
            .into_iter()
            .enumerate()
            .map(|(r, ep)| {
                RankCtx::new(r, spec.clone(), ep, NoiseModel::disabled().stream_for_rank(r))
            })
            .collect();
        let receiver = ctxs.pop().expect("seven ranks");

        let ctx_id = 3u64;
        let mut outstanding: Vec<Sent> = Vec::new();
        for (i, &(src, tag)) in schedule.iter().enumerate() {
            let payload = bytes::Bytes::copy_from_slice(&(i as u64).to_le_bytes());
            ctxs[src]
                .endpoint()
                .send_raw(6, ctx_id, tag, payload, &ctxs[src])
                .unwrap();
            outstanding.push(Sent { src, tag, arrival_index: i });
        }

        let mut core = MatchCore::new();
        let mut per_pair_last: std::collections::HashMap<(usize, i32), usize> =
            std::collections::HashMap::new();
        let mut patterns = pattern_seed.iter().cycle();
        while !outstanding.is_empty() {
            let &(kind, s, t) = patterns.next().expect("cycle never ends");
            let (src_sel, tag_sel, src_model, tag_model) = match kind {
                0 => (SrcPattern::Any, TagPattern::Any, None, None),
                1 => (SrcPattern::Is(s), TagPattern::Any, Some(s), None),
                2 => (SrcPattern::Any, TagPattern::Is(t), None, Some(t)),
                _ => (SrcPattern::Is(s), TagPattern::Is(t), Some(s), Some(t)),
            };
            let expected = expected_pick(&outstanding, src_model, tag_model);
            let got = core.try_match(&receiver, ctx_id, src_sel, tag_sel).unwrap();
            match (expected, got) {
                (None, None) => continue,
                (Some(want), Some(m)) => {
                    let idx = u64::from_le_bytes(m.env.payload[..8].try_into().unwrap()) as usize;
                    prop_assert_eq!(
                        idx, want.arrival_index,
                        "stripes={}: pattern {:?}/{:?} must deliver the earliest match",
                        stripes, src_sel, tag_sel
                    );
                    if let Some(&prev) = per_pair_last.get(&(want.src, want.tag)) {
                        prop_assert!(
                            prev < want.arrival_index,
                            "stripes={}: pair ({}, {}) overtaken",
                            stripes, want.src, want.tag
                        );
                    }
                    per_pair_last.insert((want.src, want.tag), want.arrival_index);
                    outstanding.retain(|o| o.arrival_index != want.arrival_index);
                }
                (want, got) => prop_assert!(
                    false,
                    "stripes={}: model/matcher disagree: model {:?}, matcher {:?}",
                    stripes, want, got.map(|m| (m.env.src, m.env.tag, m.seq))
                ),
            }
        }
        prop_assert_eq!(core.unexpected_len(), 0);
    }

    /// Full-wildcard receives alone must observe the exact global arrival
    /// sequence, whatever the interleaving of senders and tags.
    #[test]
    fn any_any_receives_replay_arrival_sequence(
        schedule in vec((0usize..2, 0i32..4), 1..48),
    ) {
        use matching_order::Harness;
        use mpi_stool::simnet::matching::{MatchCore, SrcPattern, TagPattern};

        let h = Harness::new();
        for (i, &(src, tag)) in schedule.iter().enumerate() {
            let payload = bytes::Bytes::copy_from_slice(&(i as u64).to_le_bytes());
            h.senders[src]
                .endpoint()
                .send_raw(2, 5, tag, payload, &h.senders[src])
                .unwrap();
        }
        let mut core = MatchCore::new();
        let mut last_seq = None;
        for i in 0..schedule.len() {
            let m = core
                .try_match(&h.receiver, 5, SrcPattern::Any, TagPattern::Any)
                .unwrap()
                .expect("one message per send");
            let idx = u64::from_le_bytes(m.env.payload[..8].try_into().unwrap()) as usize;
            prop_assert_eq!(idx, i, "arrival order violated at receive {}", i);
            if let Some(prev) = last_seq {
                prop_assert!(m.seq > prev, "seq must be strictly increasing");
            }
            last_seq = Some(m.seq);
        }
    }
}

// ---------------------------------------------------------------------------
// Replicated coordinator
// ---------------------------------------------------------------------------

mod replica_props {
    use super::*;
    use mpi_stool::dmtcp::replica::Clock;
    use mpi_stool::dmtcp::{ReplicaConfig, ReplicaGroup, ReplicaRecord, TestClock};

    /// Any epoch seal, the log's one record kind.
    pub fn any_record() -> impl Strategy<Value = ReplicaRecord> {
        (any::<u64>(), any::<u64>(), any::<bool>(), ".{0,24}").prop_map(
            |(epoch, cut, stop, vendor)| ReplicaRecord::EpochSeal {
                epoch,
                cut,
                stop,
                vendor,
            },
        )
    }

    pub fn group(replicas: usize) -> ReplicaGroup {
        let clock: Arc<dyn Clock> = Arc::new(TestClock::new());
        ReplicaGroup::in_memory(
            ReplicaConfig {
                replicas,
                log: prop_tier_cfg(),
                ..ReplicaConfig::default()
            },
            clock,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every epoch record survives its log-entry encoding bit-exactly.
    #[test]
    fn replica_records_roundtrip(record in replica_props::any_record()) {
        use mpi_stool::dmtcp::ReplicaRecord;
        let buf = record.encode();
        prop_assert_eq!(ReplicaRecord::decode(&buf).expect("decode"), record);
    }

    /// The record encoding is checksummed: any single-byte corruption or
    /// truncation is rejected, never mis-decoded.
    #[test]
    fn replica_records_reject_corruption(
        record in replica_props::any_record(),
        flip in any::<usize>(),
        bit in 0u8..8,
        cut in any::<usize>(),
    ) {
        use mpi_stool::dmtcp::ReplicaRecord;
        let buf = record.encode();
        let mut bad = buf.clone();
        let at = flip % bad.len();
        bad[at] ^= 1 << bit;
        prop_assert!(
            ReplicaRecord::decode(&bad).is_err(),
            "flip at byte {} bit {} accepted", at, bit
        );
        prop_assert!(ReplicaRecord::decode(&buf[..cut % buf.len()]).is_err());
    }

    /// Any kill/revive schedule that keeps a quorum alive never blocks a
    /// commit, and the quorum log replays every committed record once, in
    /// slot order.
    #[test]
    fn minority_kill_schedules_never_lose_commits(
        replicas in prop::sample::select(vec![3usize, 5]),
        schedule in vec((any::<u8>(), any::<bool>()), 1..12),
        records in vec(replica_props::any_record(), 1..6),
    ) {
        let group = replica_props::group(replicas);
        let quorum = group.quorum();
        let mut expect = Vec::new();
        for (next, (pick, kill)) in schedule.into_iter().enumerate() {
            let id = pick as usize % replicas;
            if kill {
                // Only kill while it leaves a quorum standing.
                if group.live() > quorum {
                    group.kill(id);
                }
            } else {
                group.revive(id);
            }
            let record = records[next % records.len()].clone();
            let slot = group.commit(record.clone()).expect("quorum alive");
            prop_assert_eq!(slot, expect.len() as u64);
            expect.push(record);
        }
        let committed = group.committed().expect("replay");
        prop_assert_eq!(committed.len(), expect.len());
        for (i, (slot, record)) in committed.iter().enumerate() {
            prop_assert_eq!(*slot, i as u64);
            prop_assert_eq!(record, &expect[i]);
        }
    }
}

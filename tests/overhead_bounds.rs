//! The paper's quantitative claims as assertions (§5.1, §5.2).
//!
//! * Interposition overhead is largest at 1-byte messages and drops below
//!   a few percent as messages grow (Figs. 2-4; max observed 10.9 % for
//!   alltoall, 17.2 % for bcast/allreduce).
//! * Real applications see far smaller overhead than micro-benchmarks
//!   (Fig. 5; ~0-5 %).
//! * The small-message overhead is mostly the FSGSBASE syscall cost of the
//!   split process on pre-5.9 kernels (§5.1 discussion).
//!
//! Every number comes from one `stool_bench::figs::collect` of the
//! default sweep per process — the collection behind `BENCH_figs.json`,
//! at the paper's testbed shape (4 nodes x 12 ranks): the interposition
//! cost model is calibrated against the §5.1 percentages at this scale,
//! so the bands only hold here (at 8 ranks the same fixed per-call cost
//! is a much larger fraction of a much cheaper collective). The
//! collection must also *be* the committed baseline, so tier-1 proves
//! the committed figures are the code's figures.

use std::sync::OnceLock;

use mpi_stool::simnet::{ClusterSpec, VirtualTime};
use mpi_stool::stool::{Checkpointer, MpiProgram, Session, Vendor};
use stool_bench::figs::{collect, Sweep};
use stool_bench::gate::{read, Json, FIGS};

/// The default sweep's report, as text and parsed, collected once.
fn figs() -> &'static (String, Json) {
    static REPORT: OnceLock<(String, Json)> = OnceLock::new();
    REPORT.get_or_init(|| {
        let text = collect(&Sweep::paper()).expect("every figure runs");
        let doc = read(&FIGS, &text).expect("the emit fits its own schema");
        (text, doc)
    })
}

const VENDORS: [&str; 2] = ["MPICH", "Open MPI"];

/// One of the §5 percentages of the report's `claims` row for `vendor`.
fn claim(vendor: &str, key: &str) -> f64 {
    let claims = figs().1.obj("figs").unwrap()["claims"]
        .arr("claims")
        .unwrap();
    let row = claims
        .iter()
        .map(|row| row.obj("claim").unwrap())
        .find(|row| row["vendor"] == Json::Str(vendor.into()))
        .expect("a claims row per vendor");
    row[key].num(key).unwrap()
}

#[test]
fn committed_baseline_is_the_codes_figures() {
    let committed = include_str!("../benches/baselines/BENCH_figs.json");
    assert!(
        figs().0 == committed,
        "a fresh collection differs from benches/baselines/BENCH_figs.json: a virtual-time \
         number moved; if intended, re-run the `figs` bin and `benchgate --write-baselines`"
    );
}

#[test]
fn overhead_shrinks_with_message_size() {
    for vendor in VENDORS {
        let (first, last) = (
            claim(vendor, "alltoall_1b_pct"),
            claim(vendor, "alltoall_large_pct"),
        );
        assert!(
            first > last,
            "{vendor}: overhead should shrink with size (1B: {first:.1}%, 64KiB: {last:.1}%)"
        );
        assert!(
            last.abs() < 2.0,
            "{vendor}: large-message overhead should be <2%, got {last:.2}%"
        );
    }
}

#[test]
fn alltoall_small_message_overhead_within_paper_band() {
    // Paper: max 10.9 % at 1 byte for alltoall, dropping under 1 % quickly.
    for vendor in VENDORS {
        let ov_1b = claim(vendor, "alltoall_1b_pct");
        assert!(
            (0.0..=25.0).contains(&ov_1b),
            "{vendor}: 1-byte alltoall overhead {ov_1b:.1}% outside plausible band"
        );
    }
}

#[test]
fn bcast_and_allreduce_overhead_more_visible_than_alltoall() {
    // Paper: bcast/allreduce are "more efficient" (fewer messages), so the
    // fixed interposition cost is a larger fraction — up to 17.2 %.
    for vendor in VENDORS {
        let [alltoall, bcast, allreduce] =
            ["alltoall_max_pct", "bcast_max_pct", "allreduce_max_pct"].map(|key| {
                let max = claim(vendor, key);
                assert!(max < 30.0, "{vendor}: {key} {max:.1}% implausibly large");
                max
            });
        assert!(
            bcast > alltoall || allreduce > alltoall,
            "{vendor}: bcast ({bcast:.1}%) or allreduce ({allreduce:.1}%) should exceed \
             alltoall ({alltoall:.1}%)"
        );
    }
}

#[test]
fn fsgsbase_kernel_feature_reduces_overhead() {
    // §5.1: "A major cause of ... overhead is the lack of a Linux kernel
    // feature on Discovery: setting the FSGSBASE register directly in
    // userspace." On a modern kernel the same stack must be cheaper.
    for vendor in VENDORS {
        let (old, new) = (
            claim(vendor, "bcast_1b_pct"),
            claim(vendor, "bcast_1b_modern_pct"),
        );
        assert!(
            new < old,
            "{vendor}: userspace FSGSBASE should cut small-message overhead (old {old:.1}%, \
             new {new:.1}%)"
        );
    }
}

#[test]
fn real_applications_see_small_overhead() {
    // Fig. 5: CoMD ≈0-5 % overhead, wave_mpi ≈0 %.
    for vendor in VENDORS {
        let (comd, wave) = (claim(vendor, "comd_pct"), claim(vendor, "wave_pct"));
        assert!(
            comd < 10.0,
            "{vendor}: CoMD full-stack overhead {comd:.1}% exceeds Fig. 5 band"
        );
        assert!(
            wave < 5.0,
            "{vendor}: wave_mpi full-stack overhead {wave:.1}% exceeds Fig. 5 band"
        );
        assert!(comd >= 0.0 && wave >= 0.0, "interposition cannot be free");
    }
}

#[test]
fn microbenchmarks_are_the_worst_case() {
    // §5.1: "micro-benchmarks represent an absolute worst case": their
    // relative overhead exceeds the real applications'.
    for vendor in VENDORS {
        let (micro, app) = (claim(vendor, "bcast_1b_pct"), claim(vendor, "wave_pct"));
        assert!(
            micro > app,
            "{vendor}: micro overhead {micro:.2}% should exceed app overhead {app:.2}%"
        );
    }
}

#[test]
fn checkpoint_cost_scales_with_image_size() {
    // The coordinated checkpoint charges image-write time at the modelled
    // bandwidth: a bigger memory must take longer.
    use mpi_stool::dmtcp::CkptMode;
    use mpi_stool::stool::programs::SleepyProgram;

    struct Fat {
        bytes: usize,
    }
    impl MpiProgram for Fat {
        fn name(&self) -> &'static str {
            "fat"
        }
        fn run(&self, app: &mut mpi_stool::stool::AppCtx<'_>) -> mpi_stool::stool::StoolResult<()> {
            app.mem.bytes_mut("fat.blob", self.bytes);
            for step in app.resume_step()..3 {
                if app.checkpoint_point(step)?.is_stop() {
                    return Ok(());
                }
                app.sleep(VirtualTime::from_millis(1));
            }
            Ok(())
        }
    }

    let run_ckpt = |program: &dyn MpiProgram| {
        Session::builder()
            .cluster(ClusterSpec::discovery())
            .vendor(Vendor::Mpich)
            .checkpointer(Checkpointer::mana())
            .checkpoint_at_step(1, CkptMode::Continue)
            .build()
            .unwrap()
            .launch(program)
            .unwrap()
            .makespan()
    };

    let thin = run_ckpt(&SleepyProgram {
        steps: 3,
        nap: VirtualTime::from_millis(1),
    });
    let fat = run_ckpt(&Fat {
        bytes: 8 * 1024 * 1024,
    });
    assert!(
        fat > thin,
        "8 MiB of upper-half memory must checkpoint slower than ~0 bytes ({fat:?} vs {thin:?})"
    );
}

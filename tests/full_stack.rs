//! End-to-end integration: every stack shape × every workload.
//!
//! These tests span all crates: the application (`mpi-apps`) calls the
//! standard ABI (`mpi-abi`), interposed by MANA (`mana-sim`), translated by
//! the Mukautuva shim (`muk`), executed by a vendor library
//! (`mpich-sim`/`ompi-sim`) over the virtual cluster (`simnet`).

use mpi_stool::apps::{CoMdMini, OsuKernel, OsuLatency, WaveMpi};
use mpi_stool::simnet::ClusterSpec;
use mpi_stool::stool::programs::RingPings;
use mpi_stool::stool::{Checkpointer, MpiProgram, RunOutcome, Session, Vendor};

fn cluster() -> ClusterSpec {
    ClusterSpec::builder().nodes(2).ranks_per_node(3).build()
}

/// The four stack shapes of the paper's figures, plus the shim-only shape.
fn all_stacks() -> Vec<(Vendor, bool, Checkpointer)> {
    let mut v = Vec::new();
    for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
        v.push((vendor, false, Checkpointer::None)); // native
        v.push((vendor, true, Checkpointer::None)); // + Mukautuva
        v.push((vendor, true, Checkpointer::mana())); // + Mukautuva + MANA
    }
    v
}

fn run(program: &dyn MpiProgram, vendor: Vendor, muk: bool, ckpt: Checkpointer) -> RunOutcome {
    let mut b = Session::builder()
        .cluster(cluster())
        .vendor(vendor)
        .checkpointer(ckpt);
    if !muk {
        b = b.native_abi();
    }
    b.build().expect("session").launch(program).expect("launch")
}

#[test]
fn ring_total_is_stack_invariant() {
    let program = RingPings {
        rounds: 7,
        payload: 32,
    };
    let mut totals = Vec::new();
    for (vendor, muk, ckpt) in all_stacks() {
        let out = run(&program, vendor, muk, ckpt);
        let memories = out.memories().expect("completed");
        let total = memories[0].get_f64("ring.total").expect("output");
        for m in memories {
            assert_eq!(m.get_f64("ring.total"), Some(total), "ranks disagree");
        }
        totals.push(total);
    }
    // The computed answer is a function of the program, not of the stack.
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "answer depends on the stack: {totals:?}"
    );
}

#[test]
fn wave_solution_is_stack_invariant_and_accurate() {
    let solver = WaveMpi {
        npoints: 240,
        nsteps: 120,
        gather_final: true,
        ..WaveMpi::default()
    };
    let mut fields: Vec<Vec<f64>> = Vec::new();
    for (vendor, muk, ckpt) in all_stacks() {
        let out = run(&solver, vendor, muk, ckpt);
        let mem = &out.memories().expect("completed")[0];
        let err = mem.get_f64("wave.err").expect("L2 error");
        assert!(
            err < 5e-2,
            "wave solution inaccurate under {vendor:?} muk={muk}: err={err}"
        );
        fields.push(mem.f64s("wave.final").expect("gathered").to_vec());
    }
    let first = &fields[0];
    for f in &fields[1..] {
        assert_eq!(first.len(), f.len());
        assert!(
            first.iter().zip(f).all(|(a, b)| a.to_bits() == b.to_bits()),
            "field differs bitwise across stacks"
        );
    }
}

#[test]
fn comd_conserves_energy_on_every_stack() {
    let md = CoMdMini {
        nsteps: 40,
        ..CoMdMini::default()
    };
    for (vendor, muk, ckpt) in all_stacks() {
        let out = run(&md, vendor, muk, ckpt);
        let mem = &out.memories().expect("completed")[0];
        let series = mem.f64s("comd.energy").expect("energy series");
        assert!(!series.is_empty());
        let e0 = series[0];
        let drift = series
            .iter()
            .map(|e| ((e - e0) / e0.abs().max(1e-12)).abs())
            .fold(0.0f64, f64::max);
        assert!(
            drift < 1e-2,
            "energy drift {drift:.3e} too large under {vendor:?} muk={muk}"
        );
    }
}

#[test]
fn comd_atom_count_is_conserved() {
    let md = CoMdMini {
        nsteps: 30,
        ..CoMdMini::default()
    };
    for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
        let out = run(&md, vendor, true, Checkpointer::mana());
        let memories = out.memories().expect("completed");
        let total: u64 = memories
            .iter()
            .map(|m| m.get_u64("comd.natoms_local").unwrap())
            .sum();
        assert_eq!(
            total as usize,
            md.natoms(),
            "atoms lost or duplicated in migration"
        );
    }
}

#[test]
fn osu_sweep_records_all_sizes_on_all_stacks() {
    let bench = OsuLatency {
        kernel: OsuKernel::Allreduce,
        min_size: 1,
        max_size: 1024,
        warmup: 2,
        iters: 4,
        ckpt_window: None,
    };
    for (vendor, muk, ckpt) in all_stacks() {
        let out = run(&bench, vendor, muk, ckpt);
        let mem = &out.memories().expect("completed")[0];
        let lat = mem.f64s("osu.lat_us").expect("latencies");
        assert_eq!(lat.len(), bench.sizes().len());
        assert!(
            lat.iter().all(|&l| l > 0.0),
            "non-positive latency under {vendor:?}"
        );
    }
}

#[test]
fn counters_reflect_real_traffic() {
    let program = RingPings {
        rounds: 5,
        payload: 16,
    };
    let out = run(&program, Vendor::Mpich, true, Checkpointer::mana());
    match out {
        RunOutcome::Completed { counters, .. } => {
            for c in &counters {
                assert!(c.msgs_sent > 0, "every rank sends in a ring");
                assert!(
                    c.bytes_sent >= c.msgs_sent,
                    "payload bytes at least one per message"
                );
                assert!(
                    c.context_switches > 0,
                    "MANA charges split-process crossings"
                );
            }
            let sent: u64 = counters.iter().map(|c| c.msgs_sent).sum();
            let recv: u64 = counters.iter().map(|c| c.msgs_received).sum();
            assert_eq!(sent, recv, "conservation of messages");
        }
        _ => panic!("run should complete"),
    }
}

#[test]
fn native_stack_charges_no_context_switches() {
    let program = RingPings {
        rounds: 4,
        payload: 8,
    };
    let out = run(&program, Vendor::OpenMpi, false, Checkpointer::None);
    match out {
        RunOutcome::Completed { counters, .. } => {
            assert!(counters.iter().all(|c| c.context_switches == 0));
        }
        _ => panic!("run should complete"),
    }
}

#[test]
fn vendors_differ_in_performance_but_not_in_answers() {
    // The paper's Figs. 2-4 show the two vendors have *different* latency
    // curves (different collective algorithms). Check the simulation
    // preserves that: same answer, different makespan.
    let bench = OsuLatency {
        kernel: OsuKernel::Alltoall,
        min_size: 64,
        max_size: 4096,
        warmup: 1,
        iters: 6,
        ckpt_window: None,
    };
    let a = run(&bench, Vendor::Mpich, false, Checkpointer::None);
    let b = run(&bench, Vendor::OpenMpi, false, Checkpointer::None);
    assert_ne!(
        a.makespan(),
        b.makespan(),
        "two different MPI implementations should not have identical timing"
    );
}

#[test]
fn session_label_reflects_stack() {
    let s = Session::builder()
        .cluster(cluster())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .build()
        .unwrap();
    let label = s.label();
    assert!(
        label.contains("Open MPI"),
        "label {label:?} should name the vendor"
    );
    assert!(
        label.contains("MANA"),
        "label {label:?} should name the checkpointer"
    );
}

#[test]
fn seeded_noise_reproduces_bit_for_bit() {
    // A message's jitter is a function of (seed, destination, source, the
    // source's sequence number), not of the order in which the host
    // happened to deliver it: under one seed every run of a noisy
    // alltoall + allreduce sweep measures the same latencies to the bit,
    // and another seed measures others.
    use mpi_stool::simnet::NoiseModel;
    let latencies = |vendor: Vendor, seed: u64| -> Vec<u64> {
        let mut lat = Vec::new();
        for kernel in [OsuKernel::Alltoall, OsuKernel::Allreduce] {
            let bench = OsuLatency {
                kernel,
                min_size: 8,
                max_size: 4096,
                warmup: 1,
                iters: 4,
                ckpt_window: None,
            };
            let cluster = ClusterSpec::builder()
                .nodes(2)
                .ranks_per_node(4)
                .noise(NoiseModel::with_sigma(0.06, seed))
                .build();
            let session = Session::builder().cluster(cluster).vendor(vendor);
            let out = session
                .native_abi()
                .build()
                .unwrap()
                .launch(&bench)
                .unwrap();
            let mem = &out.memories().unwrap()[0];
            lat.extend(mem.f64s("osu.lat_us").unwrap().iter().map(|x| x.to_bits()));
        }
        lat
    };
    for vendor in [Vendor::Mpich, Vendor::OpenMpi] {
        let first = latencies(vendor, 0xC0FFEE);
        for run in 1..20 {
            assert_eq!(latencies(vendor, 0xC0FFEE), first, "{vendor:?} run {run}");
        }
        assert_ne!(
            latencies(vendor, 0xC0FFEF),
            first,
            "{vendor:?}: the seed is not felt"
        );
    }
}

//! Cluster migration: the paper's motivating scenario (§1).
//!
//! A long-running CoMD molecular-dynamics job is launched on a traditional
//! MPI cluster under Open MPI. Mid-run, the cluster must be drained (the
//! paper's examples: load balancing, an electricity shutdown). The sysadmin
//! "presses a button": the unmodified application is checkpointed, the
//! image is written to disk, and the job is restarted on a *different*
//! cluster — newer kernel, different interconnect — under the cluster's
//! preferred MPI library, MPICH. No recompilation anywhere.
//!
//! ```text
//! cargo run --release --example migrate_cluster
//! ```

use mpi_stool::apps::CoMdMini;
use mpi_stool::dmtcp::DeltaStore;
use mpi_stool::simnet::{ClusterSpec, Interconnect, KernelVersion};
use mpi_stool::stool::{Checkpointer, CkptMode, Session, Vendor};

fn main() {
    // The job: a Lennard-Jones MD simulation, 4x4x4 unit cells per rank
    // direction, 60 velocity-Verlet steps with halo exchange every step.
    let job = CoMdMini {
        nsteps: 60,
        ..CoMdMini::default()
    };

    // Cluster A: old CentOS-7-era kernel (no userspace FSGSBASE — the
    // paper's Discovery cluster), 10 GbE, Open MPI preferred.
    let cluster_a = ClusterSpec::builder()
        .nodes(2)
        .ranks_per_node(4)
        .interconnect(Interconnect::TenGbE)
        .kernel(KernelVersion::CENTOS7)
        .build();

    // Cluster B: modern kernel, faster interconnect, MPICH preferred.
    let cluster_b = ClusterSpec::builder()
        .nodes(2)
        .ranks_per_node(4)
        .interconnect(Interconnect::Infiniband)
        .kernel(KernelVersion::MODERN)
        .build();

    // Reference: the same job, uninterrupted, for the answer we must match.
    let reference = Session::builder()
        .cluster(cluster_a.clone())
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .build()
        .expect("session")
        .launch(&job)
        .expect("reference run");
    let ref_energy = reference.memories().expect("completed")[0]
        .get_f64("comd.pe")
        .expect("potential energy");
    println!("uninterrupted run on cluster A:  PE = {ref_energy:.6}");

    // Phase 1: launch on cluster A, checkpoint-and-stop at step 30.
    let outcome = Session::builder()
        .cluster(cluster_a)
        .vendor(Vendor::OpenMpi)
        .checkpointer(Checkpointer::mana())
        .checkpoint_at_step(30, CkptMode::Stop)
        .build()
        .expect("session")
        .launch(&job)
        .expect("phase-1 run");
    let image = outcome.into_image().expect("checkpoint-stopped");
    println!(
        "checkpointed at step 30 under {} — {} ranks, {} bytes",
        image.vendor_hint,
        image.nranks(),
        image.total_bytes()
    );

    // The image is ordinary data: commit it to a checkpoint store, and
    // reopen the store on cluster B.
    let dir = std::env::temp_dir().join("mpi-stool-migrate-example");
    let _ = std::fs::remove_dir_all(&dir);
    DeltaStore::open(&dir)
        .and_then(|mut store| store.commit(&image))
        .expect("write images");
    let shipped = DeltaStore::open(&dir)
        .and_then(|store| store.load_latest())
        .expect("read images");
    println!("image round-tripped through {}", dir.display());

    // Phase 2: restart on cluster B under MPICH and finish the job.
    let done = Session::builder()
        .cluster(cluster_b)
        .vendor(Vendor::Mpich)
        .checkpointer(Checkpointer::mana())
        .build()
        .expect("session")
        .restore(&shipped, &job)
        .expect("phase-2 restore");
    let energy = done.memories().expect("completed")[0]
        .get_f64("comd.pe")
        .expect("potential energy");
    println!("migrated run finished on B:      PE = {energy:.6}");

    assert_eq!(
        energy.to_bits(),
        ref_energy.to_bits(),
        "the migrated computation must produce the bitwise-identical answer"
    );
    println!("\nbitwise identical across the Open MPI -> MPICH migration ✓");

    let _ = std::fs::remove_dir_all(&dir);
}

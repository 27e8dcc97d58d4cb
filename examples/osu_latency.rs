//! OSU-style latency sweep: the paper's §5.1 measurement protocol.
//!
//! For one collective (default `MPI_Alltoall`), sweep power-of-two message
//! sizes and print the average latency per call under four configurations:
//! each vendor native, and each vendor routed through Mukautuva + MANA.
//! The rightmost column is the interposition overhead — the quantity
//! Figs. 2-4 of the paper show to be large only for small messages.
//!
//! ```text
//! cargo run --release --example osu_latency -- [alltoall|bcast|allreduce]
//! ```

use mpi_stool::apps::{OsuKernel, OsuLatency};
use mpi_stool::simnet::ClusterSpec;
use mpi_stool::stool::{Checkpointer, Session, Vendor};

fn sweep(cluster: &ClusterSpec, bench: &OsuLatency, vendor: Vendor, full: bool) -> Vec<f64> {
    let mut builder = Session::builder().cluster(cluster.clone()).vendor(vendor);
    builder = if full {
        builder.checkpointer(Checkpointer::mana())
    } else {
        builder.native_abi()
    };
    let session = builder.build().expect("session");
    let out = session.launch(bench).expect("launch");
    out.memories().expect("completed")[0]
        .f64s("osu.lat_us")
        .expect("latencies recorded")
        .to_vec()
}

fn main() {
    let kernel = match std::env::args().nth(1).as_deref() {
        None | Some("alltoall") => OsuKernel::Alltoall,
        Some("bcast") => OsuKernel::Bcast,
        Some("allreduce") => OsuKernel::Allreduce,
        Some(other) => {
            eprintln!("unknown kernel {other:?}; use alltoall|bcast|allreduce");
            std::process::exit(2);
        }
    };

    // A scaled-down sweep so the example runs in seconds; the full-size
    // Figs. 2-4 reproduction lives in `cargo run --release -p stool-bench --bin figs`.
    let bench = OsuLatency {
        kernel,
        min_size: 1,
        max_size: 16 * 1024,
        warmup: 4,
        iters: 20,
        ckpt_window: None,
    };
    let cluster = ClusterSpec::builder().nodes(4).ranks_per_node(4).build();

    println!("# {}", kernel.title());
    println!(
        "# {} ranks on 4 nodes, 10 GbE, CentOS-7-era kernel",
        cluster.nranks()
    );
    println!(
        "{:>9}  {:>12} {:>12} {:>9}   {:>12} {:>12} {:>9}",
        "bytes", "mpich", "+muk+mana", "ovhd", "ompi", "+muk+mana", "ovhd"
    );

    let mpich = sweep(&cluster, &bench, Vendor::Mpich, false);
    let mpich_full = sweep(&cluster, &bench, Vendor::Mpich, true);
    let ompi = sweep(&cluster, &bench, Vendor::OpenMpi, false);
    let ompi_full = sweep(&cluster, &bench, Vendor::OpenMpi, true);

    for (i, size) in bench.sizes().iter().enumerate() {
        let ov = |native: f64, full: f64| (full - native) / native * 100.0;
        println!(
            "{:>9}  {:>10.2}us {:>10.2}us {:>8.1}%   {:>10.2}us {:>10.2}us {:>8.1}%",
            size,
            mpich[i],
            mpich_full[i],
            ov(mpich[i], mpich_full[i]),
            ompi[i],
            ompi_full[i],
            ov(ompi[i], ompi_full[i]),
        );
    }
}

//! OSU Micro-Benchmark-style collective latency kernels.
//!
//! Reproduces the measurement protocol of OSU Micro-Benchmarks 7.5 as used
//! in the paper's §5.1: for each power-of-two message size, a warmup phase
//! followed by timed iterations of one collective; the reported number is
//! the average per-iteration latency in microseconds, averaged over ranks.
//!
//! The paper's §5.3 modification is included: with
//! [`OsuLatency::ckpt_window`] set, the benchmark sleeps for that long
//! after its warmup phase — the window in which the Fig. 6 checkpoint is
//! taken — then records its measurements after the (possibly cross-vendor)
//! restart.

use mpi_abi::{Handle, ReduceOp};
use simnet::VirtualTime;
use stool::{AppCtx, MpiProgram, StoolResult};

/// Which collective to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsuKernel {
    /// `MPI_Alltoall` (Fig. 2): the most network-intensive pattern.
    Alltoall,
    /// `MPI_Bcast` (Fig. 3).
    Bcast,
    /// `MPI_Allreduce` (Fig. 4).
    Allreduce,
}

impl OsuKernel {
    /// The benchmark name as OSU prints it.
    pub fn title(self) -> &'static str {
        match self {
            OsuKernel::Alltoall => "OSU MPI All-to-All Personalized Exchange Latency Test",
            OsuKernel::Bcast => "OSU MPI Broadcast Latency Test",
            OsuKernel::Allreduce => "OSU MPI Allreduce Latency Test",
        }
    }
}

/// The latency benchmark program.
#[derive(Debug, Clone)]
pub struct OsuLatency {
    /// Collective under test.
    pub kernel: OsuKernel,
    /// Smallest message size in bytes (per-rank block for alltoall).
    pub min_size: usize,
    /// Largest message size in bytes.
    pub max_size: usize,
    /// Untimed warmup iterations per size.
    pub warmup: usize,
    /// Timed iterations per size.
    pub iters: usize,
    /// Optional post-warmup sleep window (the Fig. 6 modification).
    pub ckpt_window: Option<VirtualTime>,
}

impl OsuLatency {
    /// The message sizes swept (powers of two from min to max).
    pub fn sizes(&self) -> Vec<usize> {
        let mut v = Vec::new();
        let mut s = self.min_size.max(1);
        while s <= self.max_size {
            v.push(s);
            s *= 2;
        }
        v
    }

    /// Iterations for a given size — like OSU, large messages run fewer
    /// timed iterations.
    pub fn iters_for(&self, size: usize) -> usize {
        if size >= 64 * 1024 {
            (self.iters / 10).max(1)
        } else if size >= 8 * 1024 {
            (self.iters / 4).max(1)
        } else {
            self.iters
        }
    }

    /// The bytes one call at `size` sends from each buffer: alltoall
    /// sends a block to every rank, and OSU allreduce uses float data, so
    /// its size rounds up to whole doubles.
    fn buf_len(&self, size: usize, nranks: usize) -> usize {
        match self.kernel {
            OsuKernel::Alltoall => size * nranks,
            OsuKernel::Bcast => size,
            OsuKernel::Allreduce => size.div_ceil(8).max(1) * 8,
        }
    }

    /// One call at `size` on the run's buffers (`send` doubles as the
    /// bcast buffer).
    fn run_one(
        &self,
        app: &mut AppCtx<'_>,
        size: usize,
        send: &mut [u8],
        recv: &mut [u8],
    ) -> StoolResult<()> {
        let len = self.buf_len(size, app.nranks());
        let (send, recv) = (&mut send[..len], &mut recv[..len]);
        match self.kernel {
            OsuKernel::Alltoall => app.pmpi().alltoall_bytes(send, recv, Handle::COMM_WORLD)?,
            OsuKernel::Bcast => app.pmpi().bcast_bytes(send, 0, Handle::COMM_WORLD)?,
            OsuKernel::Allreduce => {
                app.pmpi()
                    .allreduce_bytes_f64(send, recv, ReduceOp::Sum, Handle::COMM_WORLD)?
            }
        }
        Ok(())
    }
}

impl MpiProgram for OsuLatency {
    fn name(&self) -> &'static str {
        match self.kernel {
            OsuKernel::Alltoall => "osu-alltoall",
            OsuKernel::Bcast => "osu-bcast",
            OsuKernel::Allreduce => "osu-allreduce",
        }
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let sizes = self.sizes();
        let nsizes = sizes.len() as u64;
        let largest = *sizes.last().expect("at least one size");
        // Like OSU 7.x, allocate the buffers once, at the largest size.
        // Allreduce sums zeros, so its send buffer stays zero.
        let len = self.buf_len(largest, app.nranks());
        let fill = if self.kernel == OsuKernel::Allreduce {
            0
        } else {
            0x5A
        };
        let (mut send, mut recv) = (vec![fill; len], vec![0u8; len]);

        // Step 0: warmup (at the largest size) + optional sleep window.
        if app.resume_step() == 0 {
            if app.checkpoint_point(0)?.is_stop() {
                return Ok(());
            }
            for _ in 0..self.warmup {
                self.run_one(app, largest, &mut send, &mut recv)?;
            }
            if let Some(window) = self.ckpt_window {
                // The modified benchmark of §5.3: sleep so the user can
                // checkpoint "during this time window".
                app.sleep(window);
            }
            app.mem.f64s_mut("osu.lat_us", sizes.len());
            app.mem.u64s_mut("osu.sizes", sizes.len());
        }

        // Steps 1..=nsizes: one measured size per step (safe points
        // between sizes, so a checkpoint can land mid-sweep).
        for step in app.resume_step().max(1)..=nsizes {
            if app.checkpoint_point(step)?.is_stop() {
                return Ok(());
            }
            let size = sizes[(step - 1) as usize];
            let iters = self.iters_for(size);
            // OSU 7.x measurement protocol: each iteration times only the
            // collective itself, with an untimed barrier after it so the
            // next iteration starts synchronized. Without the barrier, a
            // rooted collective pipelines (the root races ahead) and the
            // measured number is per-iteration *throughput*, not latency.
            app.pmpi().barrier(Handle::COMM_WORLD)?;
            let mut local_us = 0.0;
            for _ in 0..iters {
                let t0 = app.now();
                self.run_one(app, size, &mut send, &mut recv)?;
                let t1 = app.now();
                local_us += (t1 - t0).as_micros_f64();
                app.pmpi().barrier(Handle::COMM_WORLD)?;
            }
            let local_avg_us = local_us / iters as f64;
            // OSU reports the average across ranks.
            let sum = app
                .pmpi()
                .allreduce_f64(local_avg_us, ReduceOp::Sum, Handle::COMM_WORLD)?;
            let avg = sum / app.nranks() as f64;
            app.mem.u64s_mut("osu.sizes", sizes.len())[(step - 1) as usize] = size as u64;
            app.mem.f64s_mut("osu.lat_us", sizes.len())[(step - 1) as usize] = avg;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stool::{Checkpointer, Session, Vendor};

    fn tiny() -> OsuLatency {
        OsuLatency {
            kernel: OsuKernel::Alltoall,
            min_size: 1,
            max_size: 64,
            warmup: 2,
            iters: 5,
            ckpt_window: None,
        }
    }

    #[test]
    fn sizes_are_powers_of_two() {
        let b = tiny();
        assert_eq!(b.sizes(), vec![1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn latencies_are_positive_and_grow_with_size() {
        let cluster = simnet::ClusterSpec::builder()
            .nodes(2)
            .ranks_per_node(2)
            .build();
        for kernel in [OsuKernel::Alltoall, OsuKernel::Bcast, OsuKernel::Allreduce] {
            let bench = OsuLatency { kernel, ..tiny() };
            let session = Session::builder()
                .cluster(cluster.clone())
                .vendor(Vendor::Mpich)
                .build()
                .unwrap();
            let out = session.launch(&bench).unwrap();
            let mem = &out.memories().unwrap()[0];
            let lats = mem.f64s("osu.lat_us").unwrap();
            assert_eq!(lats.len(), bench.sizes().len());
            assert!(lats.iter().all(|&l| l > 0.0), "{kernel:?}: {lats:?}");
            // Largest size must cost more than smallest.
            assert!(lats.last().unwrap() >= lats.first().unwrap());
        }
    }

    #[test]
    fn all_ranks_record_identical_series() {
        let cluster = simnet::ClusterSpec::builder()
            .nodes(1)
            .ranks_per_node(3)
            .build();
        let bench = tiny();
        let session = Session::builder()
            .cluster(cluster)
            .vendor(Vendor::OpenMpi)
            .checkpointer(Checkpointer::mana())
            .build()
            .unwrap();
        let out = session.launch(&bench).unwrap();
        let memories = out.memories().unwrap();
        let first = memories[0].f64s("osu.lat_us").unwrap();
        for m in memories {
            assert_eq!(m.f64s("osu.lat_us").unwrap(), first);
        }
    }
}

//! `wave_mpi`: parallel solution of the 1-D wave equation.
//!
//! A faithful port of Burkardt's `wave_mpi` (the paper's second real-world
//! application): the string `u(x,t)` on `x ∈ [0,1]` obeys
//! `u_tt = c² u_xx`, discretized with the standard explicit leapfrog
//! scheme. The domain is block-partitioned over ranks; every time step each
//! rank exchanges one boundary value with each neighbour
//! (`MPI_Send`/`MPI_Recv` nearest-neighbour traffic, exactly the original's
//! communication pattern).
//!
//! The exact solution `u(x,t) = sin 2π(x − ct)` makes correctness
//! checkable: the final L∞ error against it is stored in memory, and the
//! full final field can be gathered for bitwise comparison across stacks —
//! the trajectory is pure point-to-point dataflow, so it is *bit-identical*
//! under every vendor/stack combination, checkpointed or not.

use mpi_abi::{consts, Handle, ReduceOp};
use simnet::VirtualTime;
use stool::{AppCtx, MpiProgram, StoolResult};

/// The 1-D wave equation solver.
#[derive(Debug, Clone)]
pub struct WaveMpi {
    /// Total number of grid points.
    pub npoints: usize,
    /// Number of time steps.
    pub nsteps: u64,
    /// Wave speed `c`.
    pub c: f64,
    /// Modelled compute time per grid-point update (ns); calibrates the
    /// Fig. 5 wall-clock scale.
    pub ns_per_point: f64,
    /// Gather the final field to rank 0 (`"wave.final"`).
    pub gather_final: bool,
}

impl Default for WaveMpi {
    fn default() -> Self {
        // dt is chosen for CFL stability: c·dt/dx = 0.9.
        WaveMpi {
            npoints: 4000,
            nsteps: 800,
            c: 1.0,
            ns_per_point: 6.0,
            gather_final: true,
        }
    }
}

impl WaveMpi {
    fn local_range(&self, rank: usize, nranks: usize) -> (usize, usize) {
        let base = self.npoints / nranks;
        let rem = self.npoints % nranks;
        let lo = rank * base + rank.min(rem);
        let len = base + usize::from(rank < rem);
        (lo, len)
    }

    fn exact(&self, x: f64, t: f64) -> f64 {
        (2.0 * std::f64::consts::PI * (x - self.c * t)).sin()
    }

    fn dx(&self) -> f64 {
        1.0 / (self.npoints - 1) as f64
    }

    fn dt(&self) -> f64 {
        0.9 * self.dx() / self.c
    }
}

impl MpiProgram for WaveMpi {
    fn name(&self) -> &'static str {
        "wave_mpi"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let me = app.rank();
        let n = app.nranks();
        let (lo, len) = self.local_range(me, n);
        let dx = self.dx();
        let dt = self.dt();
        let alpha2 = (self.c * dt / dx) * (self.c * dt / dx);
        let left = if me == 0 {
            consts::PROC_NULL
        } else {
            (me - 1) as i32
        };
        let right = if me + 1 == n {
            consts::PROC_NULL
        } else {
            (me + 1) as i32
        };

        // Initialize the mesh coordinates and u(x,0), u(x,dt) from the
        // exact solution on a fresh launch; a restart finds them in
        // memory. The mesh is fixed for the life of the run — the part of
        // the image that never changes between checkpoint epochs.
        if !app.mem.contains("wave.u_prev") {
            let xs = app.mem.f64s_mut("wave.x", len);
            for (i, slot) in xs.iter_mut().enumerate() {
                *slot = (lo + i) as f64 * dx;
            }
            let u_prev = app.mem.f64s_mut("wave.u_prev", len);
            for (i, slot) in u_prev.iter_mut().enumerate() {
                *slot = self.exact((lo + i) as f64 * dx, 0.0);
            }
            let u = app.mem.f64s_mut("wave.u", len);
            for (i, slot) in u.iter_mut().enumerate() {
                *slot = self.exact((lo + i) as f64 * dx, dt);
            }
        }

        for step in app.resume_step()..self.nsteps {
            if app.checkpoint_point(step)?.is_stop() {
                return Ok(());
            }
            // Exchange boundary values with both neighbours. Two paired
            // sendrecvs (rightward then leftward shift), PROC_NULL at the
            // physical boundaries — the original program's pattern.
            let u = app.mem.f64s("wave.u").expect("initialized").to_vec();
            let mut from_left = [0.0f64];
            let mut from_right = [0.0f64];
            {
                let mut p = app.pmpi();
                p.sendrecv_f64s(
                    &[u[len - 1]],
                    right,
                    21,
                    &mut from_left,
                    left,
                    21,
                    Handle::COMM_WORLD,
                )?;
                p.sendrecv_f64s(
                    &[u[0]],
                    left,
                    22,
                    &mut from_right,
                    right,
                    22,
                    Handle::COMM_WORLD,
                )?;
            }

            // Leapfrog update; physical boundaries follow the exact
            // solution (Dirichlet driven ends, like the original).
            let t_next = (step as f64 + 2.0) * dt;
            let u_prev = app.mem.f64s("wave.u_prev").expect("initialized").to_vec();
            let mut u_next = vec![0.0; len];
            for i in 0..len {
                let gi = lo + i;
                if gi == 0 || gi == self.npoints - 1 {
                    u_next[i] = self.exact(gi as f64 * dx, t_next);
                } else {
                    let um = if i == 0 { from_left[0] } else { u[i - 1] };
                    let up = if i + 1 == len {
                        from_right[0]
                    } else {
                        u[i + 1]
                    };
                    u_next[i] = 2.0 * u[i] - u_prev[i] + alpha2 * (um - 2.0 * u[i] + up);
                }
            }
            app.mem.f64s_mut("wave.u_prev", len).copy_from_slice(&u);
            app.mem.f64s_mut("wave.u", len).copy_from_slice(&u_next);
            // Charge the modelled stencil compute time.
            app.compute(VirtualTime::from_micros_f64(
                len as f64 * self.ns_per_point / 1000.0,
            ));
        }

        // Diagnostics: L∞ error against the exact solution at final time.
        let t_final = (self.nsteps as f64 + 1.0) * dt;
        let u = app.mem.f64s("wave.u").expect("initialized").to_vec();
        let mut local_err = 0.0f64;
        for (i, &v) in u.iter().enumerate() {
            local_err = local_err.max((v - self.exact((lo + i) as f64 * dx, t_final)).abs());
        }
        let err = app
            .pmpi()
            .allreduce_f64(local_err, ReduceOp::Max, Handle::COMM_WORLD)?;
        app.mem.set_f64("wave.err", err);

        if self.gather_final {
            // Equal-block gather needs equal contributions: pad to the
            // maximum block length, rank 0 unpads.
            let base = self.npoints / n;
            let maxlen = base + usize::from(!self.npoints.is_multiple_of(n));
            let mut padded = vec![0.0; maxlen];
            padded[..len].copy_from_slice(&u);
            let mut gathered = if me == 0 {
                vec![0.0; maxlen * n]
            } else {
                Vec::new()
            };
            app.pmpi()
                .gather_f64s(&padded, &mut gathered, 0, Handle::COMM_WORLD)?;
            if me == 0 {
                let mut full = Vec::with_capacity(self.npoints);
                for r in 0..n {
                    let (_, rlen) = self.local_range(r, n);
                    full.extend_from_slice(&gathered[r * maxlen..r * maxlen + rlen]);
                }
                app.mem
                    .f64s_mut("wave.final", self.npoints)
                    .copy_from_slice(&full);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stool::{Checkpointer, Session, Vendor};

    fn small() -> WaveMpi {
        WaveMpi {
            npoints: 200,
            nsteps: 60,
            ..WaveMpi::default()
        }
    }

    #[test]
    fn partition_covers_domain() {
        let w = small();
        for n in [1, 2, 3, 5, 7] {
            let mut total = 0;
            let mut next_lo = 0;
            for r in 0..n {
                let (lo, len) = w.local_range(r, n);
                assert_eq!(lo, next_lo, "contiguous blocks");
                next_lo = lo + len;
                total += len;
            }
            assert_eq!(total, w.npoints, "n={n}");
        }
    }

    #[test]
    fn static_mesh_stays_clean_across_steps() {
        // The delta store's dirty-segment tracking only pays off if the
        // application does not spuriously take mutable borrows of its
        // static state: `wave.x` is written once at initialization and
        // must keep that generation for the whole run, while the
        // leapfrog fields move every step.
        let cluster = simnet::ClusterSpec::builder()
            .nodes(1)
            .ranks_per_node(2)
            .build();
        let session = Session::builder()
            .cluster(cluster)
            .vendor(Vendor::Mpich)
            .checkpointer(Checkpointer::mana())
            .build()
            .unwrap();
        let out = session.launch(&small()).unwrap();
        for mem in out.memories().unwrap() {
            let x_gen = mem.generation("wave.x").unwrap();
            let u_gen = mem.generation("wave.u").unwrap();
            assert!(
                x_gen < u_gen,
                "the mesh must never be re-stamped after init: x {x_gen} vs u {u_gen}"
            );
            // Written exactly once, first: every stamp after it went to
            // the leapfrog fields, two at init and two per step.
            assert_eq!(
                u_gen - x_gen,
                2 + 2 * small().nsteps,
                "wave.x was mutably touched mid-run"
            );
        }
    }

    #[test]
    fn converges_to_exact_solution() {
        let cluster = simnet::ClusterSpec::builder()
            .nodes(2)
            .ranks_per_node(2)
            .build();
        let session = Session::builder()
            .cluster(cluster)
            .vendor(Vendor::Mpich)
            .build()
            .unwrap();
        let out = session.launch(&small()).unwrap();
        let err = out.memories().unwrap()[0].get_f64("wave.err").unwrap();
        // Second-order scheme at CFL 0.9 on a 200-point grid: error well
        // under 1%.
        assert!(err < 1e-2, "L-inf error too large: {err}");
    }

    #[test]
    fn trajectory_is_bitwise_identical_across_vendors() {
        let cluster = simnet::ClusterSpec::builder()
            .nodes(2)
            .ranks_per_node(2)
            .build();
        let field_for = |vendor| {
            let session = Session::builder()
                .cluster(cluster.clone())
                .vendor(vendor)
                .build()
                .unwrap();
            let out = session.launch(&small()).unwrap();
            out.memories().unwrap()[0]
                .f64s("wave.final")
                .unwrap()
                .to_vec()
        };
        let a = field_for(Vendor::Mpich);
        let b = field_for(Vendor::OpenMpi);
        assert_eq!(a.len(), 200);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn rank_count_does_not_change_physics() {
        let field_for = |nodes: usize, rpn: usize| {
            let cluster = simnet::ClusterSpec::builder()
                .nodes(nodes)
                .ranks_per_node(rpn)
                .build();
            let session = Session::builder()
                .cluster(cluster)
                .vendor(Vendor::OpenMpi)
                .checkpointer(Checkpointer::mana())
                .build()
                .unwrap();
            let out = session.launch(&small()).unwrap();
            out.memories().unwrap()[0]
                .f64s("wave.final")
                .unwrap()
                .to_vec()
        };
        let serial = field_for(1, 1);
        let parallel = field_for(2, 3);
        // Same stencil arithmetic regardless of decomposition (floating
        // point is associativity-free here: each point's update uses the
        // same three neighbours in the same expression).
        assert!(serial
            .iter()
            .zip(&parallel)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

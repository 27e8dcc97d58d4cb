//! CoMD-mini: a classical molecular-dynamics proxy application.
//!
//! Reproduces the structure of CoMD (the paper's first real-world
//! workload): Lennard-Jones pair forces with a cutoff, cell-list
//! neighbour search, velocity-Verlet integration, spatial domain
//! decomposition with **halo exchange** and **atom migration** between
//! neighbouring ranks every step, and periodic energy reductions.
//!
//! Decomposition is 1-D slabs along x with periodic boundaries (CoMD's
//! communication pattern per axis); when slabs are thinner than the
//! cutoff — unavoidable at 48 ranks on a small box — the halo is gathered
//! in multiple forwarding hops so every rank still sees all atoms within
//! the cutoff. All state lives in checkpointable memory, so a run can be
//! checkpointed under one MPI library and finished under the other — the
//! physics is pure point-to-point dataflow plus diagnostic reductions,
//! hence bit-identical across stacks.
//!
//! Units are LJ-reduced (σ = ε = m = 1).

use mpi_abi::{Handle, ReduceOp};
use simnet::VirtualTime;
use stool::mpix::{bytes_to_f64s, f64s_to_bytes};
use stool::{AppCtx, MpiProgram, StoolResult};

const TAG_MIG_L: i32 = 31; // migration to the left neighbour
const TAG_MIG_R: i32 = 32; // migration to the right neighbour
const TAG_HALO_L: i32 = 33; // halo (ghost) atoms to the left neighbour
const TAG_HALO_R: i32 = 34; // halo to the right

/// The mini-MD program.
#[derive(Debug, Clone)]
pub struct CoMdMini {
    /// Atoms per box edge of the initial simple-cubic lattice
    /// (total atoms = nx³).
    pub nx: usize,
    /// Lattice spacing (reduced units). 1.2 gives a solid near equilibrium.
    pub lattice: f64,
    /// LJ cutoff radius.
    pub cutoff: f64,
    /// Time step.
    pub dt: f64,
    /// Number of steps.
    pub nsteps: u64,
    /// Initial temperature (reduced).
    pub temperature: f64,
    /// RNG seed for initial velocities.
    pub seed: u64,
    /// Energy diagnostic period (steps).
    pub print_rate: u64,
    /// Modelled compute cost per evaluated atom pair (ns); calibrates the
    /// Fig. 5 wall-clock scale.
    pub ns_per_pair: f64,
}

impl Default for CoMdMini {
    fn default() -> Self {
        CoMdMini {
            nx: 10,
            lattice: 1.2,
            cutoff: 2.5,
            dt: 0.004,
            nsteps: 100,
            temperature: 0.1,
            seed: 20260609,
            print_rate: 10,
            ns_per_pair: 25.0,
        }
    }
}

/// Per-rank mutable simulation state (positions/velocities/forces as flat
/// xyz triples), loaded from / stored to checkpointable memory each step.
struct State {
    pos: Vec<f64>,
    vel: Vec<f64>,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn rand_pm1(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

impl CoMdMini {
    /// Global box edge length.
    pub fn box_len(&self) -> f64 {
        self.nx as f64 * self.lattice
    }

    /// Total atom count.
    pub fn natoms(&self) -> usize {
        self.nx * self.nx * self.nx
    }

    fn slab(&self, rank: usize, nranks: usize) -> (f64, f64) {
        let l = self.box_len() / nranks as f64;
        (rank as f64 * l, (rank + 1) as f64 * l)
    }

    /// Initial lattice + thermal velocities for the atoms whose x falls in
    /// this rank's slab. Velocities are a deterministic function of the
    /// *global* lattice index, so decomposition does not change physics.
    fn init_state(&self, rank: usize, nranks: usize) -> State {
        let (x_lo, x_hi) = self.slab(rank, nranks);
        let mut pos = Vec::new();
        let mut vel = Vec::new();
        let mut vsum = [0.0f64; 3];
        // First pass over ALL atoms to compute the global COM velocity
        // (cheap: nx^3 RNG draws, identical on every rank).
        let mut seeds: u64 = self.seed | 1;
        let mut all_v = Vec::with_capacity(self.natoms() * 3);
        for _ in 0..self.natoms() {
            for vs in vsum.iter_mut() {
                let v = rand_pm1(&mut seeds) * (3.0 * self.temperature).sqrt();
                all_v.push(v);
                *vs += v;
            }
        }
        let vmean = [
            vsum[0] / self.natoms() as f64,
            vsum[1] / self.natoms() as f64,
            vsum[2] / self.natoms() as f64,
        ];
        let mut gid = 0usize;
        for ix in 0..self.nx {
            for _iy in 0..self.nx {
                for _iz in 0..self.nx {
                    let x = (ix as f64 + 0.5) * self.lattice;
                    if x >= x_lo && x < x_hi {
                        let iy = (gid / self.nx) % self.nx;
                        let iz = gid % self.nx;
                        pos.push(x);
                        pos.push((iy as f64 + 0.5) * self.lattice);
                        pos.push((iz as f64 + 0.5) * self.lattice);
                        for d in 0..3 {
                            vel.push(all_v[gid * 3 + d] - vmean[d]);
                        }
                    }
                    gid += 1;
                }
            }
        }
        State { pos, vel }
    }

    /// LJ force & potential between two atoms at squared distance `r2`.
    /// Returns (f_over_r, potential).
    fn lj(&self, r2: f64) -> (f64, f64) {
        let inv_r2 = 1.0 / r2;
        let s6 = inv_r2 * inv_r2 * inv_r2;
        let s12 = s6 * s6;
        let f_over_r = 24.0 * (2.0 * s12 - s6) * inv_r2;
        let pot = 4.0 * (s12 - s6);
        (f_over_r, pot)
    }

    /// Minimum-image displacement in y/z (periodic); x periodicity is
    /// handled by the halo shift.
    fn min_image(&self, mut d: f64) -> f64 {
        let l = self.box_len();
        if d > l / 2.0 {
            d -= l;
        } else if d < -l / 2.0 {
            d += l;
        }
        d
    }

    /// Compute forces with a cell list over local + ghost atoms.
    /// Returns (forces on local atoms, local potential energy, pairs
    /// evaluated).
    fn forces(&self, pos: &[f64], nlocal: usize) -> (Vec<f64>, f64, u64) {
        let ntot = pos.len() / 3;
        let l = self.box_len();
        let rc2 = self.cutoff * self.cutoff;

        // Cell grid over the bounding region of all atoms (local + ghosts),
        // cell edge ≥ cutoff.
        let mut x_min = f64::INFINITY;
        let mut x_max = f64::NEG_INFINITY;
        for i in 0..ntot {
            x_min = x_min.min(pos[3 * i]);
            x_max = x_max.max(pos[3 * i]);
        }
        let x_span = (x_max - x_min).max(self.cutoff);
        // A sane decomposition keeps local + ghost extent within a few
        // cutoffs of the slab; a huge span means the integration blew up
        // (e.g. dt too large). Clamp the grid so a physics failure cannot
        // become an unbounded allocation; forces stay correct because
        // cell search only prunes pairs wider than one cell.
        let ncx = ((x_span / self.cutoff).floor().max(1.0) as usize).min(4096);
        let ncyz = (l / self.cutoff).floor().max(1.0) as usize;
        let cell_of = |i: usize| -> (usize, usize, usize) {
            let cx = (((pos[3 * i] - x_min) / x_span * ncx as f64) as usize).min(ncx - 1);
            let cy = ((pos[3 * i + 1] / l * ncyz as f64) as usize).min(ncyz - 1);
            let cz = ((pos[3 * i + 2] / l * ncyz as f64) as usize).min(ncyz - 1);
            (cx, cy, cz)
        };
        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); ncx * ncyz * ncyz];
        let idx = |cx: usize, cy: usize, cz: usize| (cx * ncyz + cy) * ncyz + cz;
        for i in 0..ntot {
            let (cx, cy, cz) = cell_of(i);
            cells[idx(cx, cy, cz)].push(i as u32);
        }

        let mut force = vec![0.0f64; nlocal * 3];
        let mut pe = 0.0f64;
        let mut pairs = 0u64;
        let pair = |i: usize, j: usize, force: &mut Vec<f64>, pe: &mut f64, pairs: &mut u64| {
            let dx = pos[3 * i] - pos[3 * j];
            let dy = self.min_image(pos[3 * i + 1] - pos[3 * j + 1]);
            let dz = self.min_image(pos[3 * i + 2] - pos[3 * j + 2]);
            let r2 = dx * dx + dy * dy + dz * dz;
            *pairs += 1;
            if r2 >= rc2 || r2 == 0.0 {
                return;
            }
            let (f_over_r, pot) = self.lj(r2);
            if i < nlocal {
                force[3 * i] += f_over_r * dx;
                force[3 * i + 1] += f_over_r * dy;
                force[3 * i + 2] += f_over_r * dz;
            }
            if j < nlocal {
                force[3 * j] -= f_over_r * dx;
                force[3 * j + 1] -= f_over_r * dy;
                force[3 * j + 2] -= f_over_r * dz;
            }
            // Full PE for local-local pairs, half for local-ghost (the
            // ghost's owner accounts the other half).
            if i < nlocal && j < nlocal {
                *pe += pot;
            } else {
                *pe += pot / 2.0;
            }
        };

        for cx in 0..ncx {
            for cy in 0..ncyz {
                for cz in 0..ncyz {
                    let base = &cells[idx(cx, cy, cz)];
                    // Pairs within the cell.
                    for (a, &i) in base.iter().enumerate() {
                        for &j in &base[a + 1..] {
                            let (i, j) = (i as usize, j as usize);
                            if i < nlocal || j < nlocal {
                                pair(i.min(j), i.max(j), &mut force, &mut pe, &mut pairs);
                            }
                        }
                    }
                    // Pairs with forward half of the neighbourhood (no
                    // double counting); y/z wrap periodically, x does not
                    // (ghost slabs extend the x range).
                    for (ddx, ddy, ddz) in FORWARD_NEIGHBOURS {
                        let nx = cx as isize + ddx;
                        if nx < 0 || nx >= ncx as isize {
                            continue;
                        }
                        let ny = (cy as isize + ddy).rem_euclid(ncyz as isize) as usize;
                        let nz = (cz as isize + ddz).rem_euclid(ncyz as isize) as usize;
                        let other = &cells[idx(nx as usize, ny, nz)];
                        if std::ptr::eq(base, other) {
                            continue; // degenerate grid (ncyz == 1 wraps onto itself)
                        }
                        for &i in base {
                            for &j in other {
                                let (i, j) = (i as usize, j as usize);
                                if i < nlocal || j < nlocal {
                                    pair(i, j, &mut force, &mut pe, &mut pairs);
                                }
                            }
                        }
                    }
                }
            }
        }
        (force, pe, pairs)
    }
}

/// The 13 forward neighbour offsets of a 3×3×3 stencil.
const FORWARD_NEIGHBOURS: [(isize, isize, isize); 13] = [
    (1, -1, -1),
    (1, -1, 0),
    (1, -1, 1),
    (1, 0, -1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 1, -1),
    (1, 1, 0),
    (1, 1, 1),
    (0, 1, -1),
    (0, 1, 0),
    (0, 1, 1),
    (0, 0, 1),
];

/// Exchange a variable-length f64 payload with a neighbour pair
/// (send to `dst`, receive from `src`) using probe-then-recv sizing.
fn exchange(
    app: &mut AppCtx<'_>,
    send: &[f64],
    dst: i32,
    src: i32,
    tag: i32,
) -> StoolResult<Vec<f64>> {
    let mpi = app.mpi();
    mpi.send(
        &f64s_to_bytes(send),
        mpi_abi::Datatype::Double.handle(),
        dst,
        tag,
        Handle::COMM_WORLD,
    )?;
    let st = mpi.probe(src, tag, Handle::COMM_WORLD)?;
    let mut buf = vec![0u8; st.count_bytes as usize];
    mpi.recv(
        &mut buf,
        mpi_abi::Datatype::Double.handle(),
        src,
        tag,
        Handle::COMM_WORLD,
    )?;
    let mut out = vec![0.0; buf.len() / 8];
    bytes_to_f64s(&buf, &mut out);
    Ok(out)
}

impl MpiProgram for CoMdMini {
    fn name(&self) -> &'static str {
        "comd-mini"
    }

    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()> {
        let me = app.rank();
        let n = app.nranks();
        let l = self.box_len();
        let (x_lo, x_hi) = self.slab(me, n);
        let left = ((me + n - 1) % n) as i32;
        let right = ((me + 1) % n) as i32;
        // The two halo streams must never meet: each atom may be a ghost
        // from one direction only, which needs a gap between the reach of
        // the left- and right-going streams: L − slab − 2·cutoff > 0.
        let slab_w0 = l / n as f64;
        if n > 1 && l <= slab_w0 + 2.0 * self.cutoff {
            return Err(stool::StoolError::App(format!(
                "comd: box {l:.2} too small for cutoff {} over {n} slabs                  (needs L > slab + 2*cutoff)",
                self.cutoff
            )));
        }

        if !app.mem.contains("comd.pos") {
            let s = self.init_state(me, n);
            let npos = s.pos.len();
            app.mem.f64s_mut("comd.pos", npos).copy_from_slice(&s.pos);
            app.mem.f64s_mut("comd.vel", npos).copy_from_slice(&s.vel);
            // The reference lattice the slab was seeded from: fixed for
            // the life of the run (like real CoMD's lattice/species
            // tables), so it is the part of the checkpoint image that
            // never changes between epochs.
            app.mem
                .f64s_mut("comd.lattice", npos)
                .copy_from_slice(&s.pos);
            // Initial forces.
            let (f, _, _) = self.forces(&s.pos, npos / 3);
            app.mem.f64s_mut("comd.force", npos).copy_from_slice(&f);
            app.mem.f64s_mut("comd.energy", 0);
        }

        for step in app.resume_step()..self.nsteps {
            if app.checkpoint_point(step)?.is_stop() {
                return Ok(());
            }
            let mut pos = app.mem.f64s("comd.pos").expect("init").to_vec();
            let mut vel = app.mem.f64s("comd.vel").expect("init").to_vec();
            let force = app.mem.f64s("comd.force").expect("init").to_vec();
            let mut nlocal = pos.len() / 3;

            // Velocity Verlet, first half-kick + drift.
            for i in 0..nlocal * 3 {
                vel[i] += 0.5 * self.dt * force[i];
            }
            for i in 0..nlocal {
                for d in 0..3 {
                    pos[3 * i + d] += self.dt * vel[3 * i + d];
                }
                // Periodic wrap in y/z; x wraps globally (the atom will
                // migrate if it left the slab).
                for d in [1, 2] {
                    if pos[3 * i + d] < 0.0 {
                        pos[3 * i + d] += l;
                    } else if pos[3 * i + d] >= l {
                        pos[3 * i + d] -= l;
                    }
                }
                if pos[3 * i] < 0.0 {
                    pos[3 * i] += l;
                } else if pos[3 * i] >= l {
                    pos[3 * i] -= l;
                }
            }

            // Atom migration: pack atoms that left the slab.
            let mut stay_pos = Vec::with_capacity(pos.len());
            let mut stay_vel = Vec::with_capacity(vel.len());
            let mut go_left = Vec::new();
            let mut go_right = Vec::new();
            for i in 0..nlocal {
                let x = pos[3 * i];
                let atom: Vec<f64> = (0..3)
                    .map(|d| pos[3 * i + d])
                    .chain((0..3).map(|d| vel[3 * i + d]))
                    .collect();
                if x >= x_lo && x < x_hi {
                    stay_pos.extend_from_slice(&atom[..3]);
                    stay_vel.extend_from_slice(&atom[3..]);
                } else {
                    // Shorter way around decides the direction (periodic).
                    let d_right = (x - x_hi).rem_euclid(l);
                    let d_left = (x_lo - x).rem_euclid(l);
                    if d_left <= d_right {
                        go_left.extend_from_slice(&atom);
                    } else {
                        go_right.extend_from_slice(&atom);
                    }
                }
            }
            let from_right = exchange(app, &go_left, left, right, TAG_MIG_L)?;
            let from_left = exchange(app, &go_right, right, left, TAG_MIG_R)?;
            for atom in from_right.chunks_exact(6).chain(from_left.chunks_exact(6)) {
                // Migration is single-hop: with any stable dt an atom moves
                // a tiny fraction of a slab per step, so landing outside
                // the neighbour's slab means the integration exploded.
                // Fail loudly rather than scatter atoms.
                let x = atom[0];
                if !(x >= x_lo && x < x_hi) {
                    return Err(stool::StoolError::App(format!(
                        "comd: migrated atom at x={x:.3e} missed slab                          [{x_lo:.3}, {x_hi:.3}) — unstable integration?"
                    )));
                }
                stay_pos.extend_from_slice(&atom[..3]);
                stay_vel.extend_from_slice(&atom[3..]);
            }
            pos = stay_pos;
            vel = stay_vel;
            nlocal = pos.len() / 3;

            // Halo gather: every atom within `cutoff` of a slab face must
            // become a ghost on the ranks it can interact with. When the
            // slab is thinner than the cutoff (48 slabs over a small box),
            // that spans several ranks, so ghosts are *forwarded* hop by
            // hop: each round sends own + previously received atoms that
            // are still within reach of the next rank over, with x
            // unwrapped by ±L at the periodic seam.
            let slab_w = l / n as f64;
            let hops = (self.cutoff / slab_w).ceil().max(1.0) as usize;
            let mut ghosts: Vec<f64> = Vec::new();
            // Left-going stream: atoms heading to lower-x ranks.
            let mut fwd_left: Vec<f64> = Vec::new();
            // Right-going stream.
            let mut fwd_right: Vec<f64> = Vec::new();
            for i in 0..nlocal {
                let x = pos[3 * i];
                if x < x_lo + self.cutoff {
                    fwd_left.extend_from_slice(&[x, pos[3 * i + 1], pos[3 * i + 2]]);
                }
                if x >= x_hi - self.cutoff {
                    fwd_right.extend_from_slice(&[x, pos[3 * i + 1], pos[3 * i + 2]]);
                }
            }
            for _hop in 0..hops {
                // Unwrap x across the periodic seam as the stream crosses.
                let mut send_left = fwd_left.clone();
                if me == 0 {
                    for g in send_left.chunks_exact_mut(3) {
                        g[0] += l;
                    }
                }
                let mut send_right = fwd_right.clone();
                if me == n - 1 {
                    for g in send_right.chunks_exact_mut(3) {
                        g[0] -= l;
                    }
                }
                let got_r = exchange(app, &send_left, left, right, TAG_HALO_L)?;
                let got_l = exchange(app, &send_right, right, left, TAG_HALO_R)?;
                // Everything received is within reach of this rank (the
                // sender filtered on *our* face); keep it, and forward the
                // part still within reach of the next rank over.
                fwd_left.clear();
                for g in got_r.chunks_exact(3) {
                    ghosts.extend_from_slice(g);
                    if g[0] < x_lo + self.cutoff {
                        fwd_left.extend_from_slice(g);
                    }
                }
                fwd_right.clear();
                for g in got_l.chunks_exact(3) {
                    ghosts.extend_from_slice(g);
                    if g[0] >= x_hi - self.cutoff {
                        fwd_right.extend_from_slice(g);
                    }
                }
            }
            let mut all_pos = pos.clone();
            all_pos.extend_from_slice(&ghosts);

            // Forces + second half-kick.
            let (new_force, pe_local, pairs) = self.forces(&all_pos, nlocal);
            app.compute(VirtualTime::from_micros_f64(
                pairs as f64 * self.ns_per_pair / 1000.0,
            ));
            for i in 0..nlocal * 3 {
                vel[i] += 0.5 * self.dt * new_force[i];
            }

            // Periodic energy diagnostics (the paper's workloads print
            // energies; we reduce and record them).
            if step % self.print_rate == 0 || step + 1 == self.nsteps {
                let ke_local: f64 = vel.iter().map(|v| 0.5 * v * v).sum();
                let ke = app
                    .pmpi()
                    .allreduce_f64(ke_local, ReduceOp::Sum, Handle::COMM_WORLD)?;
                let pe = app
                    .pmpi()
                    .allreduce_f64(pe_local, ReduceOp::Sum, Handle::COMM_WORLD)?;
                let series = app.mem.f64s_mut("comd.energy", 0);
                series.push(ke + pe);
                app.mem.set_f64("comd.ke", ke);
                app.mem.set_f64("comd.pe", pe);
            }

            let npos = pos.len();
            let mem_pos = app.mem.f64s_mut("comd.pos", 0);
            mem_pos.clear();
            mem_pos.extend_from_slice(&pos);
            let mem_vel = app.mem.f64s_mut("comd.vel", 0);
            mem_vel.clear();
            mem_vel.extend_from_slice(&vel);
            let mem_f = app.mem.f64s_mut("comd.force", 0);
            mem_f.clear();
            mem_f.extend_from_slice(&new_force);
            debug_assert_eq!(npos, nlocal * 3);
        }
        app.mem.set_u64(
            "comd.natoms_local",
            (app.mem.f64s("comd.pos").unwrap().len() / 3) as u64,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stool::{Session, Vendor};

    fn small() -> CoMdMini {
        // nx = 9 keeps L = 10.8 above the slab + 2*cutoff decomposition
        // bound even when the world is only 2 slabs wide.
        CoMdMini {
            nx: 9,
            nsteps: 20,
            print_rate: 5,
            ..CoMdMini::default()
        }
    }

    #[test]
    fn atom_count_conserved() {
        let cluster = simnet::ClusterSpec::builder()
            .nodes(2)
            .ranks_per_node(2)
            .build();
        let session = Session::builder()
            .cluster(cluster)
            .vendor(Vendor::Mpich)
            .build()
            .unwrap();
        let md = small();
        let out = session.launch(&md).unwrap();
        let total: u64 = out
            .memories()
            .unwrap()
            .iter()
            .map(|m| m.get_u64("comd.natoms_local").unwrap())
            .sum();
        assert_eq!(total as usize, md.natoms());
    }

    #[test]
    fn static_lattice_stays_clean_across_steps() {
        // `comd.lattice` mirrors real CoMD's reference lattice/species
        // tables: written once at init, never again — the generation
        // hint the delta store uses to skip re-hashing it every epoch.
        // The dynamic state (positions, velocities, forces) must keep
        // moving its stamps.
        let cluster = simnet::ClusterSpec::builder()
            .nodes(1)
            .ranks_per_node(2)
            .build();
        let session = Session::builder()
            .cluster(cluster)
            .vendor(Vendor::Mpich)
            .build()
            .unwrap();
        let out = session.launch(&small()).unwrap();
        for mem in out.memories().unwrap() {
            let lattice_gen = mem.generation("comd.lattice").unwrap();
            for dynamic in ["comd.pos", "comd.vel", "comd.force"] {
                let g = mem.generation(dynamic).unwrap();
                assert!(
                    lattice_gen < g,
                    "{dynamic} ({g}) must outpace the static lattice ({lattice_gen})"
                );
            }
            // Written once at init, before the initial forces: every stamp
            // after it went to the forces, the energy series (at init and
            // each print step) and the per-step state.
            let md = small();
            let prints = (0..md.nsteps)
                .filter(|s| s % md.print_rate == 0 || s + 1 == md.nsteps)
                .count() as u64;
            assert_eq!(
                mem.generation("comd.force").unwrap() - lattice_gen,
                2 + 3 * prints + 3 * md.nsteps,
                "comd.lattice was mutably touched mid-run"
            );
        }
    }

    #[test]
    fn energy_approximately_conserved() {
        let cluster = simnet::ClusterSpec::builder()
            .nodes(1)
            .ranks_per_node(2)
            .build();
        let session = Session::builder()
            .cluster(cluster)
            .vendor(Vendor::OpenMpi)
            .build()
            .unwrap();
        let md = CoMdMini {
            nx: 9,
            nsteps: 60,
            print_rate: 10,
            ..CoMdMini::default()
        };
        let out = session.launch(&md).unwrap();
        let series = out.memories().unwrap()[0]
            .f64s("comd.energy")
            .unwrap()
            .to_vec();
        assert!(series.len() >= 2);
        let e0 = series[0];
        let emax_drift = series.iter().map(|e| (e - e0).abs()).fold(0.0f64, f64::max);
        // Velocity Verlet with dt=0.004 in a near-equilibrium LJ solid:
        // drift well under 2% of |E0|.
        assert!(
            emax_drift <= 0.02 * e0.abs().max(1.0),
            "energy drift {emax_drift} from E0={e0} (series {series:?})"
        );
    }

    #[test]
    fn physics_identical_across_vendors() {
        let cluster = simnet::ClusterSpec::builder()
            .nodes(2)
            .ranks_per_node(2)
            .build();
        let energy_for = |vendor| {
            let session = Session::builder()
                .cluster(cluster.clone())
                .vendor(vendor)
                .build()
                .unwrap();
            let out = session.launch(&small()).unwrap();
            out.memories().unwrap()[0]
                .f64s("comd.energy")
                .unwrap()
                .to_vec()
        };
        let a = energy_for(Vendor::Mpich);
        let b = energy_for(Vendor::OpenMpi);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            // Reductions of identical local terms in identical order up to
            // the allreduce algorithm; vendors may associate differently,
            // so compare to tight tolerance rather than bitwise.
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn lj_force_has_zero_crossing_at_sigma_two_sixth() {
        let md = small();
        // LJ force is zero at r = 2^(1/6) σ.
        let r0 = 2f64.powf(1.0 / 6.0);
        let (f, _) = md.lj(r0 * r0);
        assert!(f.abs() < 1e-10);
        // Repulsive inside, attractive outside.
        let (f_in, _) = md.lj(0.9 * 0.9);
        let (f_out, _) = md.lj(1.5 * 1.5);
        assert!(f_in > 0.0);
        assert!(f_out < 0.0);
    }
}

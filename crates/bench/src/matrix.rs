//! The scenario matrix and its program factory.
//!
//! [`matrix`] is the committed battery of recovery claims: every row is
//! app × vendor × world × durability × fault schedule, and the `scenario`
//! bin runs each one through [`stool::run_scenario`]. [`app_for`] turns a
//! row's [`App`] into a program. The mapping mirrors the paper's workload
//! split: the session smoke programs (`ring`, `sleepy`) from
//! `stool::programs` and the §5 evaluation applications (`wave`, `comd`)
//! from `mpi-apps`.
//!
//! `payload` is the per-app size knob: ring payload doubles, wave grid
//! points, CoMD lattice edge. `steps` is always the safe-point count.

use mpi_apps::{CoMdMini, WaveMpi};
use simnet::VirtualTime;
use stool::programs::{RingPings, SleepyProgram};
use stool::App::{Comd, Sleepy, Wave};
use stool::BarrierPhase::{Arrive, PostSeal, PreSeal, Release};
use stool::DurabilityKind::{Replica, Tier, TierReplica};
use stool::Fault::{Fail, Torn};
use stool::Vendor::{Mpich, OpenMpi};
use stool::{App, FaultSchedule, MpiProgram, ScenarioSpec, Vendor};

/// Instantiate the program a scenario row names.
pub fn app_for(spec: &ScenarioSpec) -> Box<dyn MpiProgram> {
    match spec.app {
        App::Ring => Box::new(RingPings {
            rounds: spec.steps,
            payload: spec.payload as usize,
        }),
        App::Sleepy => Box::new(SleepyProgram {
            steps: spec.steps,
            nap: VirtualTime::from_micros(50),
        }),
        App::Wave => Box::new(WaveMpi {
            npoints: spec.payload as usize,
            nsteps: spec.steps,
            ..WaveMpi::default()
        }),
        App::Comd => Box::new(CoMdMini {
            nx: spec.payload as usize,
            nsteps: spec.steps,
            ..CoMdMini::default()
        }),
    }
}

/// A row with [`ScenarioSpec::named`]'s defaults: a ring on 3 nodes × 2
/// ranks, 24 steps, payload 64, a checkpoint every 8 steps, the local
/// store alone.
fn row(name: &str, vendor: Vendor, schedule: FaultSchedule) -> ScenarioSpec {
    ScenarioSpec {
        vendor,
        schedule,
        ..ScenarioSpec::named(name)
    }
}

/// A wave_mpi row. The §5 applications run with deterministic
/// reductions: their floating-point sums are bitwise vendor-independent
/// only in the shim's canonical order.
fn wave(name: &str, vendor: Vendor, schedule: FaultSchedule) -> ScenarioSpec {
    ScenarioSpec {
        app: Wave,
        payload: 1200,
        steps: 16,
        ckpt_every: 5,
        det: true,
        ..row(name, vendor, schedule)
    }
}

/// A CoMD row (deterministic reductions, as for [`wave`]).
fn comd(name: &str, vendor: Vendor, schedule: FaultSchedule) -> ScenarioSpec {
    ScenarioSpec {
        app: Comd,
        payload: 6,
        steps: 12,
        ckpt_every: 4,
        det: true,
        ..row(name, vendor, schedule)
    }
}

/// The committed scenario matrix, in the order `BENCH_matrix.json`
/// reports it. Every kill lands after the first checkpoint and before
/// the last step ([`ScenarioSpec::validate`]).
pub fn matrix() -> Vec<ScenarioSpec> {
    let faults = FaultSchedule::default;
    let us = VirtualTime::from_micros;
    vec![
        // --- family: rank fail-storms ---
        row("ring-storm-mpich", Mpich, faults().kill_ranks(14, [1, 3])),
        row(
            "ring-storm-openmpi",
            OpenMpi,
            faults().kill_ranks(14, [1, 3]),
        ),
        row(
            "storm-repeat-mpich",
            Mpich,
            faults().kill_ranks(12, [2]).kill_ranks(18, [0, 4]),
        ),
        row(
            "storm-repeat-openmpi",
            OpenMpi,
            faults().kill_ranks(12, [2]).kill_ranks(18, [0, 4]),
        ),
        ScenarioSpec {
            app: Sleepy,
            ..row("sleepy-storm-mpich", Mpich, faults().kill_ranks(10, [5]))
        },
        row("world-kill-mpich", Mpich, faults().kill_world(14)),
        row("world-kill-openmpi", OpenMpi, faults().kill_world(14)),
        // The kill lands on a checkpoint step: the job dies on entry to
        // step 16, before that step's checkpoint, and restarts from the
        // step-8 epoch — never from the checkpoint it did not take.
        row("ckpt-step-kill-mpich", Mpich, faults().kill_ranks(16, [1])),
        // --- family: correlated node-group kills ---
        row("node-kill-mpich", Mpich, faults().kill_nodes(12, [1])),
        row("node-kill-openmpi", OpenMpi, faults().kill_nodes(12, [1])),
        ScenarioSpec {
            nodes: 4,
            ..row(
                "node-pair-kill-mpich",
                Mpich,
                faults().kill_nodes(12, [1, 3]),
            )
        },
        wave("wave-node-openmpi", OpenMpi, faults().kill_nodes(8, [2])),
        // --- family: slow / straggler ranks ---
        row(
            "straggler-ring-mpich",
            Mpich,
            faults().straggle(2, 6, 18, us(50)),
        ),
        row(
            "straggler-ring-openmpi",
            OpenMpi,
            faults().straggle(2, 6, 18, us(50)),
        ),
        row(
            "straggler-storm-mpich",
            Mpich,
            faults().straggle(1, 4, 20, us(50)).kill_ranks(14, [3]),
        ),
        ScenarioSpec {
            app: Sleepy,
            ..row(
                "sleepy-straggle-openmpi",
                OpenMpi,
                faults().straggle(0, 2, 22, us(500)),
            )
        },
        // --- family: torn tier uploads ---
        ScenarioSpec {
            durability: Tier,
            ..row(
                "torn-upload-mpich",
                Mpich,
                faults().tier_put_faults([Torn]).kill_ranks(14, [1]),
            )
        },
        ScenarioSpec {
            durability: Tier,
            ..row(
                "torn-upload-openmpi",
                OpenMpi,
                faults().tier_put_faults([Torn]).kill_ranks(14, [1]),
            )
        },
        // The tests/tier_faults.rs port: a torn then failed upload must be
        // caught by CRC and re-shipped, and the wiped-local restart
        // hydrates the chain from the tier alone.
        ScenarioSpec {
            durability: Tier,
            wipe_local: true,
            ..row(
                "torn-ship-hydrate",
                Mpich,
                faults()
                    .tier_put_faults([Torn, Fail])
                    .kill_ranks(14, [1, 3]),
            )
        },
        ScenarioSpec {
            durability: Tier,
            wipe_local: true,
            ..row(
                "torn-hydrate-openmpi",
                OpenMpi,
                faults().tier_get_faults([Torn, Fail]).kill_nodes(12, [0]),
            )
        },
        // --- family: coordinator leader kills ---
        ScenarioSpec {
            durability: Replica,
            ..row(
                "leader-preseal-mpich",
                Mpich,
                faults().kill_leader_at(PreSeal).kill_ranks(14, [2]),
            )
        },
        ScenarioSpec {
            durability: Replica,
            ..row(
                "leader-arrive-openmpi",
                OpenMpi,
                faults().kill_leader_at(Arrive).kill_ranks(14, [2]),
            )
        },
        ScenarioSpec {
            durability: Replica,
            ..row(
                "leader-postseal-mpich",
                Mpich,
                faults().kill_leader_at(PostSeal),
            )
        },
        // The release-phase kill strikes *after* epoch 8's commit, so the
        // failover election only happens at epoch 16's commit — the world
        // kill must land after that barrier.
        ScenarioSpec {
            durability: Replica,
            ..row(
                "leader-release-openmpi",
                OpenMpi,
                faults().kill_leader_at(Release).kill_world(18),
            )
        },
        // --- application coverage (paper §5 workloads) ---
        comd("comd-storm-openmpi", OpenMpi, faults().kill_ranks(6, [1])),
        ScenarioSpec {
            durability: Replica,
            ..comd(
                "comd-leader-mpich",
                Mpich,
                faults().kill_leader_at(PreSeal).kill_nodes(6, [1]),
            )
        },
        wave("wave-storm-mpich", Mpich, faults().kill_ranks(8, [0, 5])),
        // --- combined: every leg at once ---
        ScenarioSpec {
            durability: TierReplica,
            wipe_local: true,
            ..row(
                "kitchen-sink-openmpi",
                OpenMpi,
                faults()
                    .tier_put_faults([Torn])
                    .kill_leader_at(PreSeal)
                    .straggle(4, 6, 12, us(50))
                    .kill_nodes(14, [2]),
            )
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_resolves() {
        for app in [App::Ring, Sleepy, Wave, Comd] {
            let spec = ScenarioSpec {
                app,
                ..ScenarioSpec::named("t")
            };
            assert!(!app_for(&spec).name().is_empty());
        }
    }
}

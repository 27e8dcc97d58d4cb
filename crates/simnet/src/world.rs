//! Launching a world: one thread per rank, panic containment, result
//! collection — with a threading plan that keeps ≥ 512-rank worlds cheap.
//!
//! Rank bodies block on each other (condvar receives, collective
//! exchanges), so a communicating world needs every rank live at once:
//! the engine cannot multiplex blocked ranks onto fewer OS threads. What
//! it *can* bound is the per-thread cost — [`RunPlan::auto`] shrinks rank
//! stacks from the OS default (8 MiB) to 1 MiB once a world reaches 128
//! ranks, which keeps a 1024-rank world at ~1 GiB of address space
//! instead of ~8 GiB.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use crate::cluster::ClusterSpec;
use crate::error::{SimError, SimResult};
use crate::fabric::Fabric;
use crate::rank::{RankCounters, RankCtx};
use crate::time::VirtualTime;

/// World size at which [`RunPlan::auto`] starts bounding rank stacks.
pub const LARGE_WORLD_RANKS: usize = 128;

/// Per-rank stack size used for large worlds (1 MiB — far above what the
/// vendor-library/shim/checkpointer stack depth needs, far below the OS
/// default that would cost 8 GiB of address space at 1024 ranks).
pub const LARGE_WORLD_STACK_BYTES: usize = 1 << 20;

/// How rank threads are created for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunPlan {
    /// Per-rank thread stack size in bytes; `None` uses the OS default.
    pub stack_bytes: Option<usize>,
}

impl RunPlan {
    /// The plan [`World::run`] picks for a world of `nranks`: default
    /// stacks for small worlds, [`LARGE_WORLD_STACK_BYTES`] at or beyond
    /// [`LARGE_WORLD_RANKS`] ranks.
    pub fn auto(nranks: usize) -> RunPlan {
        RunPlan {
            stack_bytes: (nranks >= LARGE_WORLD_RANKS).then_some(LARGE_WORLD_STACK_BYTES),
        }
    }

    fn builder(&self, rank: usize) -> std::thread::Builder {
        let b = std::thread::Builder::new().name(format!("rank-{rank}"));
        match self.stack_bytes {
            Some(bytes) => b.stack_size(bytes),
            None => b,
        }
    }
}

/// Result of running a world to completion.
#[derive(Debug)]
pub struct WorldOutcome<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank final virtual clocks.
    pub clocks: Vec<VirtualTime>,
    /// Per-rank communication counters.
    pub counters: Vec<RankCounters>,
}

impl<R> WorldOutcome<R> {
    /// The makespan: the maximum final clock over all ranks — what a user
    /// would observe as the job's completion time.
    pub fn makespan(&self) -> VirtualTime {
        self.clocks
            .iter()
            .copied()
            .fold(VirtualTime::ZERO, VirtualTime::max)
    }
}

/// Launches rank threads over a fresh fabric.
pub struct World;

impl World {
    /// Run `f` once per rank on its own OS thread and collect the results,
    /// with the threading plan auto-selected by world size
    /// ([`RunPlan::auto`]).
    ///
    /// The closure receives an `Rc<RankCtx>` so that deep software stacks
    /// (vendor library → ABI shim → checkpoint wrappers → application) can
    /// each hold a shared handle to the rank context without lifetime
    /// plumbing; the `Rc` never leaves its thread.
    ///
    /// * If any rank returns an error, the fabric is shut down (so blocked
    ///   peers unwind) and the first error by rank order is returned.
    /// * If any rank panics, the panic is contained, the fabric is shut
    ///   down, and [`SimError::RankPanicked`] is returned.
    pub fn run<R, F>(spec: &ClusterSpec, f: F) -> SimResult<WorldOutcome<R>>
    where
        R: Send,
        F: Fn(Rc<RankCtx>) -> SimResult<R> + Sync,
    {
        spec.validate().map_err(SimError::InvalidConfig)?;
        let spec = Arc::new(spec.clone());
        let (fabric, endpoints) = Fabric::new(&spec);
        let plan = RunPlan::auto(spec.nranks());
        Self::run_plan(spec, fabric, endpoints, plan, f)
    }

    /// The general entry point: a caller-provided fabric — the
    /// checkpointing layers keep out-of-band coordinator channels and the
    /// recorder's counters alongside it — *and* threading plan.
    pub fn run_plan<R, F>(
        spec: Arc<ClusterSpec>,
        fabric: Fabric,
        endpoints: Vec<crate::fabric::Endpoint>,
        plan: RunPlan,
        f: F,
    ) -> SimResult<WorldOutcome<R>>
    where
        R: Send,
        F: Fn(Rc<RankCtx>) -> SimResult<R> + Sync,
    {
        let nranks = spec.nranks();
        assert_eq!(endpoints.len(), nranks, "one endpoint per rank required");
        let f = &f;

        let mut slots: Vec<Option<(SimResult<R>, VirtualTime, RankCounters)>> =
            (0..nranks).map(|_| None).collect();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nranks);
            for (rank, ep) in endpoints.into_iter().enumerate() {
                let spec = spec.clone();
                let fabric = fabric.clone();
                let handle = plan
                    .builder(rank)
                    .spawn_scoped(scope, move || Self::rank_body(rank, spec, fabric, ep, f))
                    .expect("spawn rank thread");
                handles.push(handle);
            }
            for handle in handles {
                // The closure itself contains panics, so join only fails if
                // the containment machinery is broken; propagate in that case.
                let (rank, res, clock, counters) = handle.join().expect("rank thread join failed");
                slots[rank] = Some((res, clock, counters));
            }
        });

        Self::collect(slots)
    }

    /// One rank's execution: context construction, panic containment,
    /// fabric shutdown on error.
    fn rank_body<R, F>(
        rank: usize,
        spec: Arc<ClusterSpec>,
        fabric: Fabric,
        ep: crate::fabric::Endpoint,
        f: &F,
    ) -> (usize, SimResult<R>, VirtualTime, RankCounters)
    where
        R: Send,
        F: Fn(Rc<RankCtx>) -> SimResult<R> + Sync,
    {
        let ctx = Rc::new(RankCtx::new(
            rank,
            spec.clone(),
            ep,
            spec.noise.stream_for_rank(rank),
        ));
        let outcome = catch_unwind(AssertUnwindSafe(|| f(ctx.clone())));
        match outcome {
            Ok(res) => {
                if res.is_err() {
                    fabric.shutdown();
                }
                (rank, res, ctx.now(), ctx.counters())
            }
            Err(payload) => {
                if let Some(tel) = fabric.telemetry() {
                    tel.emit_rank(
                        rank,
                        crate::telemetry::EventKind::RankUnwind,
                        ctx.now().as_nanos(),
                        rank as u64,
                        0,
                        0,
                    );
                    tel.note_incident();
                }
                fabric.shutdown();
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".into());
                (
                    rank,
                    Err(SimError::RankPanicked { rank, message }),
                    ctx.now(),
                    ctx.counters(),
                )
            }
        }
    }

    fn collect<R>(
        slots: Vec<Option<(SimResult<R>, VirtualTime, RankCounters)>>,
    ) -> SimResult<WorldOutcome<R>> {
        let mut results = Vec::with_capacity(slots.len());
        let mut clocks = Vec::with_capacity(slots.len());
        let mut counters = Vec::with_capacity(slots.len());
        let mut first_err = None;
        for slot in slots {
            let (res, clock, ctrs) = slot.expect("all ranks recorded");
            clocks.push(clock);
            counters.push(ctrs);
            match res {
                Ok(r) => results.push(r),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(WorldOutcome {
                results,
                clocks,
                counters,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::recv_raw_blocking;
    use bytes::Bytes;

    #[test]
    fn all_ranks_run_and_report() {
        let spec = ClusterSpec::builder().nodes(2).ranks_per_node(3).build();
        let outcome = World::run(&spec, |ctx| Ok(ctx.rank() * 10)).unwrap();
        assert_eq!(outcome.results, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(outcome.clocks.len(), 6);
    }

    #[test]
    fn makespan_is_max_clock() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(3).build();
        let outcome = World::run(&spec, |ctx| {
            ctx.advance(VirtualTime::from_micros(ctx.rank() as u64 * 7));
            Ok(())
        })
        .unwrap();
        assert_eq!(outcome.makespan(), VirtualTime::from_micros(14));
    }

    #[test]
    fn ring_exchange_works_across_nodes() {
        let spec = ClusterSpec::builder().nodes(2).ranks_per_node(2).build();
        let outcome = World::run(&spec, |ctx| {
            let n = ctx.nranks();
            let next = (ctx.rank() + 1) % n;
            ctx.endpoint()
                .send_raw(next, 0, 1, Bytes::from(vec![ctx.rank() as u8]), &ctx)?;
            let env = recv_raw_blocking(&ctx)?;
            Ok(env.payload[0] as usize)
        })
        .unwrap();
        assert_eq!(outcome.results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn panic_in_one_rank_is_contained() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(3).build();
        let err = World::run(&spec, |ctx| {
            if ctx.rank() == 1 {
                panic!("deliberate test panic");
            }
            // Other ranks block awaiting a message that never comes; they
            // must be unblocked by the shutdown triggered by the panic.
            let _ = ctx.endpoint().recv_raw();
            Ok(())
        })
        .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("deliberate"));
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn error_in_one_rank_shuts_down_world() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
        let err = World::run(&spec, |ctx| {
            if ctx.rank() == 0 {
                Err(SimError::InvalidConfig("rank 0 aborts".into()))
            } else {
                let _ = ctx.endpoint().recv_raw();
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, SimError::InvalidConfig("rank 0 aborts".into()));
    }

    #[test]
    fn invalid_spec_rejected_up_front() {
        let mut spec = ClusterSpec::discovery();
        spec.nodes = 0;
        assert!(matches!(
            World::run(&spec, |_| Ok(())),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn deterministic_across_runs_without_noise() {
        let spec = ClusterSpec::builder().nodes(2).ranks_per_node(2).build();
        let run = || {
            World::run(&spec, |ctx| {
                let n = ctx.nranks();
                let next = (ctx.rank() + 1) % n;
                for _ in 0..8 {
                    ctx.endpoint()
                        .send_raw(next, 0, 0, Bytes::from(vec![0u8; 256]), &ctx)?;
                    recv_raw_blocking(&ctx)?;
                }
                Ok(ctx.now())
            })
            .unwrap()
            .results
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn auto_plan_bounds_stacks_for_large_worlds() {
        assert_eq!(RunPlan::auto(48).stack_bytes, None);
        assert_eq!(
            RunPlan::auto(LARGE_WORLD_RANKS).stack_bytes,
            Some(LARGE_WORLD_STACK_BYTES)
        );
        assert_eq!(
            RunPlan::auto(1024).stack_bytes,
            Some(LARGE_WORLD_STACK_BYTES)
        );
    }

    #[test]
    fn bounded_stack_world_runs_fine() {
        let spec = Arc::new(ClusterSpec::builder().nodes(1).ranks_per_node(4).build());
        let (fabric, endpoints) = Fabric::new(&spec);
        let plan = RunPlan {
            stack_bytes: Some(256 * 1024),
        };
        let outcome = World::run_plan(spec, fabric, endpoints, plan, |ctx| {
            let n = ctx.nranks();
            let next = (ctx.rank() + 1) % n;
            ctx.endpoint()
                .send_raw(next, 0, 0, Bytes::from(vec![7u8]), &ctx)?;
            let env = recv_raw_blocking(&ctx)?;
            Ok(env.payload[0])
        })
        .unwrap();
        assert_eq!(outcome.results, vec![7; 4]);
    }
}

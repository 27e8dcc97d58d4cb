//! The application programming model.
//!
//! An [`MpiProgram`] is the "application binary": written once against the
//! standard ABI, with its evolving state in checkpointable [`Memory`] and a
//! step-structured main loop that calls [`AppCtx::checkpoint_point`] at
//! safe points. See DESIGN.md §1 for why this cooperative-memory model is
//! the safe-Rust substitute for MANA's raw page capture — the MPI-facing
//! behaviour (wrappers, drain, virtual ids, cross-vendor restart) is
//! unchanged.

use std::rc::Rc;
use std::sync::Arc;

use dmtcp_sim::coordinator::{CkptMode, Coordinator, RankAgent};
use dmtcp_sim::memory::Memory;
use mana_sim::ckpt::CkptAction;
use mpi_abi::MpiAbi;
use simnet::telemetry::{EventKind, Telemetry};
use simnet::{RankCtx, VirtualTime};

use crate::error::{StoolError, StoolResult};
use crate::mpix::Pmpi;
use crate::scenario::{ResolvedKill, Straggler};
use crate::session::CkptPolicy;
use crate::stack::Stack;

/// Whether the application should keep running after a safe point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep computing.
    Continue,
    /// A checkpoint-and-stop was taken: unwind the main loop and return.
    Stop,
}

impl Flow {
    /// Convenience for `if ctx.checkpoint_point(s)?.is_stop() { return .. }`.
    pub fn is_stop(self) -> bool {
        self == Flow::Stop
    }
}

/// A portable MPI application.
///
/// Programs must be deterministic functions of (rank, size, memory): that
/// is what makes a restored run continue exactly where the checkpoint left
/// off. All state that must survive a checkpoint lives in the memory.
pub trait MpiProgram: Sync {
    /// Short identifier (used in reports and image metadata).
    fn name(&self) -> &'static str;

    /// The program body, executed once per rank.
    fn run(&self, app: &mut AppCtx<'_>) -> StoolResult<()>;
}

/// Everything a rank's application code can touch.
pub struct AppCtx<'a> {
    pub(crate) stack: &'a mut Stack,
    /// The rank's checkpointable memory ("upper-half memory").
    pub mem: &'a mut Memory,
    pub(crate) sim: Rc<RankCtx>,
    pub(crate) resume: Option<u64>,
    pub(crate) policy: CkptPolicy,
    /// Resolved kill schedule, sorted by step; shared read-only across
    /// ranks.
    pub(crate) kills: Arc<Vec<ResolvedKill>>,
    /// This rank's straggler window, if the schedule delays it.
    pub(crate) straggle: Option<Straggler>,
    pub(crate) tel: Arc<Telemetry>,
    pub(crate) coordinator: Option<Coordinator>,
    pub(crate) agent: Option<RankAgent>,
    pub(crate) stopped: bool,
    pub(crate) failed_at: Option<u64>,
}

impl AppCtx<'_> {
    /// The standard ABI function table (the raw interface).
    pub fn mpi(&mut self) -> &mut dyn MpiAbi {
        self.stack.mpi()
    }

    /// Typed convenience wrapper over the ABI.
    pub fn pmpi(&mut self) -> Pmpi<'_> {
        Pmpi::new(self.stack.mpi())
    }

    /// This rank's id (world).
    pub fn rank(&self) -> usize {
        self.sim.rank()
    }

    /// World size.
    pub fn nranks(&self) -> usize {
        self.sim.nranks()
    }

    /// The step to resume from: 0 on a fresh launch, the checkpointed step
    /// after a restore.
    pub fn resume_step(&self) -> u64 {
        self.resume.unwrap_or(0)
    }

    /// Current virtual time on this rank.
    pub fn now(&self) -> VirtualTime {
        self.sim.now()
    }

    /// Charge modelled computation time.
    pub fn compute(&self, work: VirtualTime) {
        self.sim.advance(work);
    }

    /// Sleep in virtual time (the Fig. 6 OSU modification uses a 10 s
    /// window like this one to leave room for the checkpoint).
    pub fn sleep(&self, dt: VirtualTime) {
        self.sim.advance(dt);
    }

    /// A checkpoint **safe point**: the application guarantees it has no
    /// incomplete nonblocking requests and is between steps. `next_step` is
    /// recorded as the resume position if a checkpoint is taken here.
    ///
    /// Returns [`Flow::Stop`] if a checkpoint-and-stop was executed; the
    /// application must then unwind without further MPI calls.
    pub fn checkpoint_point(&mut self, next_step: u64) -> StoolResult<Flow> {
        if self.stopped || self.failed_at.is_some() {
            return Ok(Flow::Stop);
        }
        // Injected straggler delay: a slow-but-alive rank stalls its
        // virtual clock on entry to the safe point. The cut must not care
        // — every rank still announces the same step, so the coordinator
        // pins the checkpoint there regardless of arrival skew.
        if let Some(s) = self.straggle {
            if s.rank == self.sim.rank() && (s.from_step..s.until_step).contains(&next_step) {
                self.sim.stall(s.delay);
                self.tel.emit_rank(
                    self.sim.rank(),
                    EventKind::RankStall,
                    self.sim.now().as_nanos(),
                    self.sim.rank() as u64,
                    s.delay.as_nanos(),
                    next_step,
                );
            }
        }
        // Injected failure: the job dies on entry to this step, before any
        // checkpoint it might have taken here (the adversarial ordering —
        // recovery must come from an *earlier* image). Victims record a
        // RankKill incident carrying the blamed node-group; every other
        // rank unwinds cooperatively at the same safe point.
        if let Some(kill) = self.kills.iter().find(|k| k.at_step == next_step) {
            self.failed_at = Some(next_step);
            let rank = self.sim.rank();
            if kill.victims.contains(&rank) {
                self.tel.emit_rank(
                    rank,
                    EventKind::RankKill,
                    self.sim.now().as_nanos(),
                    rank as u64,
                    next_step,
                    kill.node as u64,
                );
                self.tel.note_incident();
            }
            return Ok(Flow::Stop);
        }
        // Checkpoints are *scheduled*, the one way a coordinator round
        // opens: every rank runs the same policy and announces the same
        // step before polling there, so the cut is this exact step.
        if self.policy.at_step == Some(next_step) {
            if let Some(coord) = &self.coordinator {
                coord.schedule_checkpoint_at(next_step, self.policy.mode);
            }
        }
        // Periodic checkpointing (always Continue).
        if let Some(n) = self.policy.every_steps {
            if next_step > 0
                && next_step.is_multiple_of(n)
                && self.policy.at_step != Some(next_step)
            {
                if let Some(coord) = &self.coordinator {
                    coord.schedule_checkpoint_at(next_step, CkptMode::Continue);
                }
            }
        }
        let action = self
            .stack
            .maybe_checkpoint(self.agent.as_mut(), self.mem, next_step)
            .map_err(StoolError::Abi)?;
        match action {
            CkptAction::Stop { .. } => {
                self.stopped = true;
                Ok(Flow::Stop)
            }
            CkptAction::Taken { .. } | CkptAction::None => Ok(Flow::Continue),
        }
    }

    /// Whether the run ended in a checkpoint-and-stop.
    pub fn was_stopped(&self) -> bool {
        self.stopped
    }

    /// The step at which an injected failure struck, if any.
    pub fn failed_at(&self) -> Option<u64> {
        self.failed_at
    }
}

//! Assembling the software stack under an application.
//!
//! The paper's Fig. 1, as code: depending on the session configuration, an
//! application's MPI calls flow through
//!
//! * `vendor wrap` (the "native" baseline — the app recompiled against the
//!   vendor, zero interposition cost),
//! * `libmuk.so → vendor wrap` (ABI-portable binary, Mukautuva shim), or
//! * `libmana.so → libmuk.so → vendor wrap` (the full three-legged stool),
//! * `libmana.so → vendor wrap` (the older vendor-specific "virtual id"
//!   MANA mode, kept for the ablation benchmarks).
//!
//! The layer below MANA is always one [`MukShim`]; `muk` says whether
//! Mukautuva is in front of its wrap library (charged) or not (native).

use std::rc::Rc;

use dmtcp_sim::coordinator::RankAgent;
use dmtcp_sim::memory::Memory;
use mana_sim::ckpt::{maybe_checkpoint, CkptAction};
use mana_sim::{ManaConfig, ManaMpi};
use mpi_abi::{AbiResult, MpiAbi};
use muk::{MukShim, Vendor};
use simnet::RankCtx;

/// Which layers to put under the application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackSpec {
    /// The vendor MPI library at the bottom.
    pub vendor: Vendor,
    /// Interpose the Mukautuva shim (charged per call)?
    pub muk: bool,
    /// Interpose the MANA wrappers (with their cost model)?
    pub mana: Option<ManaConfig>,
    /// Route predefined-type reductions through the shim's canonical
    /// rank-ordered fold, making results bitwise identical across vendors
    /// (requires the shim; see `muk::shim`).
    pub deterministic_reductions: bool,
}

impl StackSpec {
    /// The native baseline: vendor only.
    pub fn native(vendor: Vendor) -> StackSpec {
        StackSpec {
            vendor,
            muk: false,
            mana: None,
            deterministic_reductions: false,
        }
    }

    /// Vendor + Mukautuva.
    pub fn with_muk(vendor: Vendor) -> StackSpec {
        StackSpec {
            vendor,
            muk: true,
            mana: None,
            deterministic_reductions: false,
        }
    }

    /// The full stool: vendor + Mukautuva + MANA (the paper's
    /// "`X` + Mukautuva + MANA" configurations).
    pub fn full(vendor: Vendor) -> StackSpec {
        StackSpec {
            vendor,
            muk: true,
            mana: Some(ManaConfig::default()),
            deterministic_reductions: false,
        }
    }

    /// A short label for reports ("MPICH + Mukautuva + MANA").
    pub fn label(&self) -> String {
        let mut s = self.vendor.name().to_string();
        if self.muk {
            s.push_str(" + Mukautuva");
        }
        if self.mana.is_some() {
            s.push_str(" + MANA");
        }
        s
    }

    /// Build the ABI-facing layer below MANA (wrap, optionally shimmed).
    pub fn build_lower(&self, ctx: &Rc<RankCtx>) -> Box<dyn MpiAbi> {
        Box::new(MukShim::open(
            self.vendor,
            ctx.clone(),
            self.muk,
            self.deterministic_reductions,
        ))
    }
}

/// The assembled per-rank stack.
pub enum Stack {
    /// No checkpointer: calls go straight to the (possibly shimmed) vendor.
    Plain(Box<dyn MpiAbi>),
    /// MANA interposed: checkpointable.
    Mana(Box<ManaMpi>),
}

impl Stack {
    /// Assemble a fresh stack per `spec`.
    pub fn build(spec: &StackSpec, ctx: &Rc<RankCtx>) -> Stack {
        let lower = spec.build_lower(ctx);
        match spec.mana {
            Some(config) => Stack::Mana(Box::new(ManaMpi::launch(ctx.clone(), config, lower))),
            None => Stack::Plain(lower),
        }
    }

    /// The ABI the application talks to.
    pub fn mpi(&mut self) -> &mut dyn MpiAbi {
        match self {
            Stack::Plain(b) => b.as_mut(),
            Stack::Mana(m) => m.as_mut(),
        }
    }

    /// Poll/execute a checkpoint at a safe point (no-op for plain stacks).
    pub fn maybe_checkpoint(
        &mut self,
        agent: Option<&mut RankAgent>,
        memory: &Memory,
        resume_step: u64,
    ) -> AbiResult<CkptAction> {
        match (self, agent) {
            (Stack::Mana(mana), Some(agent)) => {
                maybe_checkpoint(mana.as_mut(), agent, memory, resume_step)
            }
            _ => Ok(CkptAction::None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_abi::Handle;
    use simnet::{ClusterSpec, World};

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(StackSpec::native(Vendor::Mpich).label(), "MPICH");
        assert_eq!(
            StackSpec::full(Vendor::OpenMpi).label(),
            "Open MPI + Mukautuva + MANA"
        );
        let mana_only = |vendor| StackSpec {
            mana: Some(ManaConfig::default()),
            ..StackSpec::native(vendor)
        };
        assert_eq!(mana_only(Vendor::Mpich).label(), "MPICH + MANA");
        assert_eq!(
            StackSpec::with_muk(Vendor::Mpich).label(),
            "MPICH + Mukautuva"
        );
    }

    #[test]
    fn all_four_stacks_run_the_same_call() {
        let spec = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
        for ss in [
            StackSpec::native(Vendor::Mpich),
            StackSpec::with_muk(Vendor::OpenMpi),
            StackSpec::full(Vendor::Mpich),
            StackSpec {
                mana: Some(ManaConfig::default()),
                ..StackSpec::native(Vendor::OpenMpi)
            },
        ] {
            let out = World::run(&spec, |ctx| {
                let mut stack = Stack::build(&ss, &ctx);
                let mpi = stack.mpi();
                let n = mpi
                    .comm_size(Handle::COMM_WORLD)
                    .map_err(|e| simnet::SimError::InvalidConfig(e.to_string()))?;
                Ok(n)
            })
            .unwrap();
            assert_eq!(out.results, vec![2, 2], "{}", ss.label());
        }
    }

    #[test]
    fn interposition_layers_add_virtual_time() {
        // Ordering pinned: native < +muk < +muk+mana on the same workload
        // and old kernel — the qualitative fact behind the paper's §5.1.
        let cluster = ClusterSpec::builder().nodes(1).ranks_per_node(2).build();
        let time_for = |ss: StackSpec| {
            World::run(&cluster, |ctx| {
                let mut stack = Stack::build(&ss, &ctx);
                let mpi = stack.mpi();
                let me = mpi
                    .comm_rank(Handle::COMM_WORLD)
                    .map_err(|e| simnet::SimError::InvalidConfig(e.to_string()))?;
                let mut buf = [0u8; 8];
                for _ in 0..50 {
                    mpi.sendrecv(
                        &[1u8; 8],
                        1 - me,
                        0,
                        &mut buf,
                        1 - me,
                        0,
                        mpi_abi::Datatype::Byte.handle(),
                        Handle::COMM_WORLD,
                    )
                    .map_err(|e| simnet::SimError::InvalidConfig(e.to_string()))?;
                }
                Ok(ctx.now().as_nanos())
            })
            .unwrap()
            .results[0]
        };
        let native = time_for(StackSpec::native(Vendor::Mpich));
        let muk = time_for(StackSpec::with_muk(Vendor::Mpich));
        let full = time_for(StackSpec::full(Vendor::Mpich));
        assert!(native < muk, "muk must add overhead: {native} vs {muk}");
        assert!(muk < full, "mana must add overhead: {muk} vs {full}");
    }
}

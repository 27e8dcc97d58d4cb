//! The per-rank library instance: the shared engine ([`Process`]) built
//! with this library's header and tuning. Collective algorithms live in
//! [`crate::coll`].

use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use simnet::mpi::{P2pCosts, Process};
use simnet::{RankCtx, WireArrival};

use crate::ompi_h::OpenMpi;
use crate::tuning::Tuning;

/// One rank's instance of the Open MPI-flavoured library: point-to-point
/// and object management through [`Process`], collectives through
/// [`simnet::mpi::Collectives`].
pub struct OmpiProcess {
    base: Process<OpenMpi>,
    pub(crate) tuning: Tuning,
}

impl OmpiProcess {
    /// `MPI_Init`.
    pub fn init(ctx: Rc<RankCtx>) -> OmpiProcess {
        Self::init_with_tuning(ctx, Tuning::default())
    }

    /// `MPI_Init` with explicit tuning.
    pub fn init_with_tuning(ctx: Rc<RankCtx>, tuning: Tuning) -> OmpiProcess {
        let costs = P2pCosts {
            o_send: tuning.o_send,
            o_recv: tuning.o_recv,
            eager_threshold: tuning.eager_threshold,
        };
        OmpiProcess {
            base: Process::new(ctx, costs, WireArrival),
            tuning,
        }
    }
}

impl Deref for OmpiProcess {
    type Target = Process<OpenMpi>;

    fn deref(&self) -> &Process<OpenMpi> {
        &self.base
    }
}

impl DerefMut for OmpiProcess {
    fn deref_mut(&mut self) -> &mut Process<OpenMpi> {
        &mut self.base
    }
}

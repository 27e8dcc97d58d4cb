//! The per-rank library instance: the shared engine ([`Process`]) built
//! with this library's header and tuning. Collective algorithms live in
//! [`crate::coll`].

use std::ops::{Deref, DerefMut};
use std::rc::Rc;

use simnet::mpi::{P2pCosts, Process};
use simnet::RankCtx;

use crate::mpih::Mpich;
use crate::tuning::{SockArrival, Tuning};

/// One rank's instance of the MPICH-flavoured library.
///
/// Constructed by `init` (the analogue of `MPI_Init`), used through native
/// calls that mirror the C API — point-to-point and object management
/// through [`Process`], collectives through [`simnet::mpi::Collectives`] —
/// destroyed by `finalize` + drop.
pub struct MpichProcess {
    base: Process<Mpich>,
    pub(crate) tuning: Tuning,
}

impl MpichProcess {
    /// `MPI_Init`: attach to the fabric and set up predefined objects.
    pub fn init(ctx: Rc<RankCtx>) -> MpichProcess {
        Self::init_with_tuning(ctx, Tuning::default())
    }

    /// `MPI_Init` with explicit tuning (used by ablation benchmarks).
    pub fn init_with_tuning(ctx: Rc<RankCtx>, tuning: Tuning) -> MpichProcess {
        let costs = P2pCosts {
            o_send: tuning.o_send,
            o_recv: tuning.o_recv,
            eager_threshold: tuning.eager_threshold,
        };
        let arrival = SockArrival {
            small_latency: tuning.sock_small_latency,
            small_max: tuning.sock_small_max,
        };
        MpichProcess {
            base: Process::new(ctx, costs, arrival),
            tuning,
        }
    }
}

impl Deref for MpichProcess {
    type Target = Process<Mpich>;

    fn deref(&self) -> &Process<Mpich> {
        &self.base
    }
}

impl DerefMut for MpichProcess {
    fn deref_mut(&mut self) -> &mut Process<Mpich> {
        &mut self.base
    }
}

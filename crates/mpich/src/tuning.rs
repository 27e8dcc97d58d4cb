//! MPICH-flavour tuning: per-message software costs, the ch3:sock
//! arrival model, and the collective selection table.
//!
//! This table is what makes the library *perform* like the MPICH family:
//! a heavier per-message software path than the Open MPI flavour, and
//! the MPICH lineage of algorithms with MPICH-like switch-over points:
//!
//! | collective  | selected algorithm ([`simnet::mpi::algos`])                   |
//! |-------------|----------------------------------------------------------------|
//! | `barrier`   | dissemination                                                  |
//! | `bcast`     | binomial ≤ 512 KiB, van de Geijn scatter + ring above          |
//! | `reduce`    | binomial (rooted at rank 0 for a non-commutative op)          |
//! | `allreduce` | recursive doubling ≤ 32 KiB, for fewer elements than ranks or a non-commutative op, Rabenseifner otherwise (even ranks fold into odd) |
//! | `gather`    | binomial                                                       |
//! | `scatter`   | binomial                                                       |
//! | `allgather` | Bruck ≤ 4 KiB gathered, ring above                             |
//! | `alltoall`  | Bruck ≤ 256 B blocks, pairwise ≥ 32 KiB, posted in between     |
//! | `scan`      | recursive doubling                                             |

use simnet::mpi::algos::{
    Allgather, Allreduce, Alltoall, Barrier, Bcast, Fold, Gather, Reduce, Scan, Scatter,
};
use simnet::mpi::{P2pCosts, Shape, Tuning};
use simnet::{ArrivalModel, Envelope, LinkClass, RankCtx, VirtualTime};

use crate::mpih::Mpich;

/// ch3:sock cost model: small inter-node messages pay the sock channel's
/// progress-engine wakeup latency on top of the wire arrival. This is
/// MPICH's [`ArrivalModel`], applied once per message when the shared
/// matcher ingests it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SockArrival {
    /// Latency added to qualifying messages.
    pub small_latency: VirtualTime,
    /// Payloads up to this size qualify.
    pub small_max: usize,
}

impl ArrivalModel for SockArrival {
    fn arrival(&self, ctx: &RankCtx, env: &Envelope) -> VirtualTime {
        let mut arrival = ctx.arrival_time(env);
        if env.payload.len() <= self.small_max
            && ctx.spec().link_class(env.src, ctx.rank()) == LinkClass::InterNode
        {
            arrival += self.small_latency;
        }
        arrival
    }
}

/// Alltoall: Bruck for blocks up to this many bytes.
pub const ALLTOALL_BRUCK_MAX: usize = 256;
/// Alltoall: pairwise exchange for blocks from this many bytes up
/// (between the two: posted nonblocking all-to-all).
pub const ALLTOALL_PAIRWISE_MIN: usize = 32 * 1024;
/// Bcast: binomial tree up to this payload; above it, the van de Geijn
/// scatter + allgather algorithm. On the paper testbed's high-latency
/// 10 GbE the allgather phase is latency-bound until well past the OSU
/// sweep, so the switch-over sits far above MPICH's low-latency-fabric
/// default of 12 KiB.
pub const BCAST_BINOMIAL_MAX: usize = 512 * 1024;
/// Allreduce: recursive doubling up to this payload; above it,
/// Rabenseifner's reduce-scatter + allgather.
pub const ALLREDUCE_DOUBLING_MAX: usize = 32 * 1024;
/// Allgather: Bruck up to this many gathered bytes, ring above.
pub const ALLGATHER_BRUCK_MAX: usize = 4 * 1024;

impl Tuning for Mpich {
    type Arrival = SockArrival;
    /// ch3:sock progress-engine latency added to each small inter-node
    /// message. MPICH 3.3.2 over plain 10 GbE runs the sock channel, whose
    /// poll-driven progress loop wakes noticeably later than Open MPI's
    /// leaner btl/tcp event path. Collectives hide most of it (few
    /// inter-node hops on the critical path); latency-bound halo exchanges
    /// like `wave_mpi` feel the full cost per step — which is what makes
    /// the paper's Fig. 5 wave bars differ by ~3x between vendors while
    /// Figs. 2-4 stay within ~1.3x.
    const ARRIVAL: SockArrival = SockArrival {
        small_latency: VirtualTime::from_micros(60),
        small_max: 256,
    };
    /// Matching, descriptor setup and the copy into the eager buffer;
    /// rendezvous above 64 KiB.
    const P2P: P2pCosts = P2pCosts {
        o_send: VirtualTime::from_nanos(1_800),
        o_recv: VirtualTime::from_nanos(1_800),
        eager_threshold: 64 * 1024,
    };
    /// ~1.5 GB/s effective combine rate on the simulated Xeon.
    const REDUCE_BYTES_PER_NS: f64 = 1.5;

    fn barrier(_: Shape) -> Barrier {
        Barrier::Dissemination
    }

    fn bcast(s: Shape) -> Bcast {
        if s.bytes <= BCAST_BINOMIAL_MAX {
            Bcast::Binomial
        } else {
            Bcast::ScatterRing
        }
    }

    fn reduce(_: Shape) -> Reduce {
        Reduce::Binomial
    }

    fn allreduce(s: Shape) -> Allreduce {
        // Recursive doubling keeps rank order; Rabenseifner's halving
        // does not.
        if s.bytes <= ALLREDUCE_DOUBLING_MAX || s.count < s.ranks || !s.commute {
            Allreduce::RecursiveDoubling(Fold::EvenIntoOdd)
        } else {
            Allreduce::Rabenseifner(Fold::EvenIntoOdd)
        }
    }

    fn gather(_: Shape) -> Gather {
        Gather::Binomial
    }

    fn scatter(_: Shape) -> Scatter {
        Scatter::Binomial
    }

    fn allgather(s: Shape) -> Allgather {
        if s.bytes * s.ranks <= ALLGATHER_BRUCK_MAX {
            Allgather::Bruck
        } else {
            Allgather::Ring
        }
    }

    fn alltoall(s: Shape) -> Alltoall {
        if s.bytes <= ALLTOALL_BRUCK_MAX {
            Alltoall::Bruck
        } else if s.bytes >= ALLTOALL_PAIRWISE_MIN {
            Alltoall::Pairwise
        } else {
            Alltoall::Posted
        }
    }

    fn scan(_: Shape) -> Scan {
        Scan::RecursiveDoubling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_ordered() {
        const {
            assert!(ALLTOALL_BRUCK_MAX < ALLTOALL_PAIRWISE_MIN);
            // The sock-channel penalty only applies to genuinely small
            // messages (it models per-wakeup latency, not bandwidth).
            assert!(Mpich::ARRIVAL.small_max <= Mpich::P2P.eager_threshold);
        }
        assert!(Mpich::P2P.o_send > VirtualTime::ZERO);
        assert!(Mpich::ARRIVAL.small_latency > VirtualTime::ZERO);
    }

    #[test]
    fn sock_latency_applies_to_small_internode_only() {
        use simnet::{ClusterSpec, Fabric, MatchCore, NoiseModel, SrcPattern, TagPattern};
        use std::sync::Arc;

        let spec = Arc::new(ClusterSpec::builder().nodes(2).ranks_per_node(1).build());
        let (_fabric, mut eps) = Fabric::new(&spec);
        let ep1 = eps.pop().unwrap();
        let ep0 = eps.pop().unwrap();
        let c0 = RankCtx::new(
            0,
            spec.clone(),
            ep0,
            NoiseModel::disabled().stream_for_rank(0),
        );
        let c1 = RankCtx::new(1, spec, ep1, NoiseModel::disabled().stream_for_rank(1));
        let sock = VirtualTime::from_micros(50);
        for (tag, data) in [(0, &b"small"[..]), (1, &[0u8; 4096][..])] {
            c0.endpoint()
                .send_raw(1, 0, tag, bytes::Bytes::copy_from_slice(data), &c0)
                .unwrap();
        }
        let mut core = MatchCore::with_model(SockArrival {
            small_latency: sock,
            small_max: 1024,
        });
        let mut matched = |tag| {
            core.try_match(&c1, 0, SrcPattern::Any, TagPattern::Is(tag))
                .unwrap()
                .unwrap()
        };
        let (small, big) = (matched(0), matched(1));
        let wire_small = small.env.depart + c1.spec().link_between(0, 1).alpha;
        assert_eq!(
            small.arrival,
            wire_small + sock,
            "small message pays sock latency"
        );
        let wire_big = big.env.depart + c1.spec().link_between(0, 1).alpha;
        assert_eq!(big.arrival, wire_big, "large message does not");
    }
}

//! MPICH-flavour tuning: per-message software costs and collective
//! algorithm selection thresholds.
//!
//! These knobs are what make this library *perform* like the MPICH family:
//! a heavier per-message software path than the Open MPI flavour, Bruck /
//! pairwise alltoall, binomial / van-de-Geijn broadcast, recursive-doubling
//! / Rabenseifner allreduce, with MPICH-like switchover points.

use simnet::{ArrivalModel, Envelope, LinkClass, RankCtx, VirtualTime};

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

/// Tuning parameters for the MPICH-flavoured library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuning {
    /// CPU time charged on the sender per message (matching, descriptor
    /// setup, copy into the eager buffer).
    pub o_send: VirtualTime,
    /// CPU time charged on the receiver per matched message.
    pub o_recv: VirtualTime,
    /// Messages larger than this use the rendezvous protocol, which costs
    /// an extra round trip of the link latency before data flows.
    pub eager_threshold: usize,
    /// Alltoall: use Bruck's algorithm for block sizes up to this.
    pub alltoall_bruck_max: usize,
    /// Alltoall: use pairwise exchange for block sizes from this up
    /// (between the two: posted nonblocking all-to-all).
    pub alltoall_pairwise_min: usize,
    /// Bcast: binomial tree up to this payload; above it, the van de Geijn
    /// scatter + allgather algorithm. On the paper testbed's high-latency
    /// 10 GbE the allgather phase is latency-bound until well past the OSU
    /// sweep, so the switchover sits far above MPICH's low-latency-fabric
    /// default of 12 KiB.
    pub bcast_binomial_max: usize,
    /// Allreduce: recursive doubling up to this payload; above it,
    /// Rabenseifner's reduce-scatter + allgather.
    pub allreduce_recdbl_max: usize,
    /// Allgather: Bruck up to this payload, ring above.
    pub allgather_bruck_max: usize,
    /// ch3:sock progress-engine latency added to each small inter-node
    /// message. MPICH 3.3.2 over plain 10 GbE runs the sock channel, whose
    /// poll-driven progress loop wakes noticeably later than Open MPI's
    /// leaner btl/tcp event path. Collectives hide most of it (few
    /// inter-node hops on the critical path); latency-bound halo exchanges
    /// like `wave_mpi` feel the full cost per step — which is what makes
    /// the paper's Fig. 5 wave bars differ by ~3x between vendors while
    /// Figs. 2-4 stay within ~1.3x.
    pub sock_small_latency: VirtualTime,
    /// Payloads up to this size pay `sock_small_latency`.
    pub sock_small_max: usize,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            o_send: VirtualTime::from_nanos(1_800),
            o_recv: VirtualTime::from_nanos(1_800),
            eager_threshold: 64 * 1024,
            alltoall_bruck_max: 256,
            alltoall_pairwise_min: 32 * 1024,
            bcast_binomial_max: 512 * 1024,
            allreduce_recdbl_max: 32 * 1024,
            allgather_bruck_max: 4 * 1024,
            sock_small_latency: VirtualTime::from_micros(60),
            sock_small_max: 256,
        }
    }
}

impl Tuning {
    /// Library version string advertised through the ABI.
    pub const VERSION: &'static str = "mpich-sim 3.3.2 (native ABI: integer handles)";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_ordered() {
        let t = Tuning::default();
        assert!(t.alltoall_bruck_max < t.alltoall_pairwise_min);
        assert!(t.o_send > VirtualTime::ZERO);
        // The sock-channel penalty only applies to genuinely small
        // messages (it models per-wakeup latency, not bandwidth).
        assert!(t.sock_small_max <= t.eager_threshold);
        assert!(t.sock_small_latency > VirtualTime::ZERO);
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

//! Link cost model: the α/β (latency/bandwidth) half of LogGP.

use crate::time::VirtualTime;

/// Which kind of link connects two ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Both ranks on the same node: shared-memory transport.
    IntraNode,
    /// Ranks on different nodes: the cluster interconnect.
    InterNode,
}

/// An α/β link model: transferring an `m`-byte message costs
/// `α + m·β` of wire time, where `β = 1 / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way small-message latency.
    pub alpha: VirtualTime,
    /// Bandwidth in bytes per second (β is its inverse).
    pub beta_inv_bps: f64,
}

impl LinkModel {
    /// Construct from latency and bandwidth (bytes/second).
    pub fn new(alpha: VirtualTime, bandwidth_bps: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        LinkModel {
            alpha,
            beta_inv_bps: bandwidth_bps,
        }
    }

    /// Pure serialization time for `m` bytes (the `m·β` term).
    pub fn serialize_time(&self, bytes: usize) -> VirtualTime {
        let ns = bytes as f64 / self.beta_inv_bps * 1e9;
        VirtualTime::from_nanos(ns.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_time_is_m_over_bandwidth() {
        // 1 GB/s, 10 us alpha: 1000 bytes serialize in 1 us.
        let link = LinkModel::new(VirtualTime::from_micros(10), 1e9);
        assert_eq!(link.serialize_time(1000), VirtualTime::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkModel::new(VirtualTime::ZERO, 0.0);
    }

    #[test]
    fn serialize_time_monotone_in_bytes() {
        let link = LinkModel::new(VirtualTime::from_micros(1), 1.1e9);
        let mut last = VirtualTime::ZERO;
        for m in [0usize, 1, 64, 4096, 1 << 20] {
            let t = link.serialize_time(m);
            assert!(t >= last);
            last = t;
        }
    }
}

//! Cluster description: nodes, interconnect, operating-system features.
//!
//! The defaults reproduce the paper's testbed: the Discovery cluster at
//! MGHPCC — 4 compute nodes, 48 MPI processes total, 10 GbE interconnect,
//! CentOS 7 with Linux kernel 3.10 (so **no** user-space FSGSBASE).

use crate::link::{LinkClass, LinkModel};
use crate::noise::NoiseModel;
use crate::time::VirtualTime;

/// A Linux kernel version, used to gate kernel features the paper depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelVersion {
    /// Major version (e.g. 3 in 3.10.0).
    pub major: u32,
    /// Minor version (e.g. 10 in 3.10.0).
    pub minor: u32,
    /// Patch level.
    pub patch: u32,
}

impl KernelVersion {
    /// Construct a kernel version.
    pub const fn new(major: u32, minor: u32, patch: u32) -> Self {
        KernelVersion {
            major,
            minor,
            patch,
        }
    }

    /// CentOS 7's kernel, as used on the paper's Discovery cluster.
    pub const CENTOS7: KernelVersion = KernelVersion::new(3, 10, 0);

    /// A modern kernel with user-space FSGSBASE support.
    pub const MODERN: KernelVersion = KernelVersion::new(5, 15, 0);

    /// Whether user-space programs may write the FS/GS base registers
    /// directly (introduced in Linux 5.9). Without this, MANA's split-process
    /// context switch must fall back to `arch_prctl(2)` — a syscall — on
    /// every crossing between the upper and lower half, which the paper
    /// identifies as the main cause of its small-message overhead.
    pub fn has_userspace_fsgsbase(self) -> bool {
        (self.major, self.minor) >= (5, 9)
    }
}

impl std::fmt::Display for KernelVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// The inter-node interconnect technology.
///
/// Each variant carries a canned latency/bandwidth point; custom hardware can
/// be described with [`Interconnect::Custom`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interconnect {
    /// 10-gigabit Ethernet with a TCP software stack (the paper's testbed).
    TenGbE,
    /// 100-gigabit Ethernet (RoCE-style latencies).
    HundredGbE,
    /// EDR InfiniBand-class network.
    Infiniband,
    /// Custom parameters: one-way latency and bandwidth in bytes/second.
    Custom {
        /// One-way small-message latency.
        latency: VirtualTime,
        /// Sustained point-to-point bandwidth, bytes per second.
        bandwidth_bps: f64,
    },
}

impl Interconnect {
    /// The link model for this interconnect.
    pub fn link_model(self) -> LinkModel {
        match self {
            // ~28 us one-way small message latency over TCP on 10 GbE and
            // ~1.1 GB/s achievable bandwidth match common measurements and
            // put the simulated OSU curves on the paper's absolute scale.
            Interconnect::TenGbE => LinkModel::new(VirtualTime::from_nanos(28_000), 1.10e9),
            Interconnect::HundredGbE => LinkModel::new(VirtualTime::from_nanos(6_000), 11.0e9),
            Interconnect::Infiniband => LinkModel::new(VirtualTime::from_nanos(1_300), 11.5e9),
            Interconnect::Custom {
                latency,
                bandwidth_bps,
            } => LinkModel::new(latency, bandwidth_bps),
        }
    }

    /// Short human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Interconnect::TenGbE => "10GbE",
            Interconnect::HundredGbE => "100GbE",
            Interconnect::Infiniband => "InfiniBand",
            Interconnect::Custom { .. } => "custom",
        }
    }
}

/// Full description of a simulated cluster.
///
/// Construct with [`ClusterSpec::builder`]; [`ClusterSpec::discovery`] gives
/// the paper's testbed verbatim.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of compute nodes.
    pub nodes: usize,
    /// MPI processes (ranks) per node.
    pub ranks_per_node: usize,
    /// Inter-node network.
    pub interconnect: Interconnect,
    /// Intra-node (shared-memory) link model.
    pub shm_link: LinkModel,
    /// Kernel version on the compute nodes.
    pub kernel: KernelVersion,
    /// Relative compute speed of the nodes (1.0 = the paper's Xeon E5-2690v3).
    pub cpu_speed: f64,
    /// Stochastic jitter applied to message costs (off by default).
    pub noise: NoiseModel,
    /// Extra wire bytes charged per message (headers, framing).
    pub header_bytes: usize,
}

impl ClusterSpec {
    /// Begin building a cluster description.
    pub fn builder() -> ClusterSpecBuilder {
        ClusterSpecBuilder::default()
    }

    /// The paper's testbed: 4 nodes × 12 ranks = 48 MPI processes,
    /// 10 GbE, CentOS 7 (kernel 3.10, no user-space FSGSBASE).
    pub fn discovery() -> ClusterSpec {
        ClusterSpec::builder()
            .nodes(4)
            .ranks_per_node(12)
            .interconnect(Interconnect::TenGbE)
            .kernel(KernelVersion::CENTOS7)
            .build()
    }

    /// Total number of ranks.
    pub fn nranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    /// The node hosting a given rank (block distribution, as with typical
    /// `mpirun` defaults).
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node.max(1)
    }

    /// Whether two ranks share a node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The link class connecting two ranks.
    pub fn link_class(&self, a: usize, b: usize) -> LinkClass {
        if self.same_node(a, b) {
            LinkClass::IntraNode
        } else {
            LinkClass::InterNode
        }
    }

    /// The link model for a (src, dst) rank pair.
    pub fn link_between(&self, a: usize, b: usize) -> LinkModel {
        match self.link_class(a, b) {
            LinkClass::IntraNode => self.shm_link,
            LinkClass::InterNode => self.interconnect.link_model(),
        }
    }

    /// Validate the spec. Returns an error message for nonsense configs.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("cluster must have at least one node".into());
        }
        if self.ranks_per_node == 0 {
            return Err("cluster must have at least one rank per node".into());
        }
        if self.cpu_speed <= 0.0 {
            return Err("cpu_speed must be positive".into());
        }
        Ok(())
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::discovery()
    }
}

/// Builder for [`ClusterSpec`].
#[derive(Debug, Clone)]
pub struct ClusterSpecBuilder {
    nodes: usize,
    ranks_per_node: usize,
    interconnect: Interconnect,
    shm_link: LinkModel,
    kernel: KernelVersion,
    cpu_speed: f64,
    noise: NoiseModel,
    header_bytes: usize,
}

impl Default for ClusterSpecBuilder {
    fn default() -> Self {
        ClusterSpecBuilder {
            nodes: 1,
            ranks_per_node: 2,
            interconnect: Interconnect::TenGbE,
            // Shared-memory transport: sub-microsecond latency, ~6 GB/s
            // effective copy bandwidth (two copies through a CMA-style path).
            shm_link: LinkModel::new(VirtualTime::from_nanos(400), 6.0e9),
            kernel: KernelVersion::CENTOS7,
            cpu_speed: 1.0,
            noise: NoiseModel::disabled(),
            header_bytes: 64,
        }
    }
}

impl ClusterSpecBuilder {
    /// Set the number of compute nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Set the number of ranks per node.
    pub fn ranks_per_node(mut self, rpn: usize) -> Self {
        self.ranks_per_node = rpn;
        self
    }

    /// Set the inter-node interconnect.
    pub fn interconnect(mut self, ic: Interconnect) -> Self {
        self.interconnect = ic;
        self
    }

    /// Set the kernel version (controls FSGSBASE availability).
    pub fn kernel(mut self, kernel: KernelVersion) -> Self {
        self.kernel = kernel;
        self
    }

    /// Set the relative CPU speed (scales modelled compute time).
    pub fn cpu_speed(mut self, speed: f64) -> Self {
        self.cpu_speed = speed;
        self
    }

    /// Enable stochastic jitter on message costs.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Finish building.
    pub fn build(self) -> ClusterSpec {
        ClusterSpec {
            nodes: self.nodes,
            ranks_per_node: self.ranks_per_node,
            interconnect: self.interconnect,
            shm_link: self.shm_link,
            kernel: self.kernel,
            cpu_speed: self.cpu_speed,
            noise: self.noise,
            header_bytes: self.header_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_matches_paper_testbed() {
        let spec = ClusterSpec::discovery();
        assert_eq!(spec.nodes, 4);
        assert_eq!(spec.nranks(), 48);
        assert_eq!(spec.interconnect.name(), "10GbE");
        assert_eq!(spec.kernel, KernelVersion::CENTOS7);
        assert!(!spec.kernel.has_userspace_fsgsbase());
    }

    #[test]
    fn fsgsbase_gate_is_5_9() {
        assert!(!KernelVersion::new(3, 10, 0).has_userspace_fsgsbase());
        assert!(!KernelVersion::new(5, 8, 18).has_userspace_fsgsbase());
        assert!(KernelVersion::new(5, 9, 0).has_userspace_fsgsbase());
        assert!(KernelVersion::new(6, 1, 0).has_userspace_fsgsbase());
    }

    #[test]
    fn node_mapping_is_block() {
        let spec = ClusterSpec::builder().nodes(4).ranks_per_node(12).build();
        assert_eq!(spec.node_of(0), 0);
        assert_eq!(spec.node_of(11), 0);
        assert_eq!(spec.node_of(12), 1);
        assert_eq!(spec.node_of(47), 3);
        assert!(spec.same_node(0, 11));
        assert!(!spec.same_node(11, 12));
    }

    #[test]
    fn link_selection_by_topology() {
        let spec = ClusterSpec::builder().nodes(2).ranks_per_node(2).build();
        assert_eq!(spec.link_class(0, 1), LinkClass::IntraNode);
        assert_eq!(spec.link_class(0, 2), LinkClass::InterNode);
        // Intra-node latency must be far below inter-node latency.
        assert!(spec.link_between(0, 1).alpha < spec.link_between(0, 2).alpha);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut spec = ClusterSpec::discovery();
        spec.nodes = 0;
        assert!(spec.validate().is_err());
        let mut spec = ClusterSpec::discovery();
        spec.ranks_per_node = 0;
        assert!(spec.validate().is_err());
        let mut spec = ClusterSpec::discovery();
        spec.cpu_speed = 0.0;
        assert!(spec.validate().is_err());
        assert!(ClusterSpec::discovery().validate().is_ok());
    }

    #[test]
    fn interconnect_ordering_is_physical() {
        let ten = Interconnect::TenGbE.link_model();
        let hundred = Interconnect::HundredGbE.link_model();
        let ib = Interconnect::Infiniband.link_model();
        assert!(ten.alpha > hundred.alpha);
        assert!(hundred.alpha > ib.alpha);
        assert!(ten.beta_inv_bps < hundred.beta_inv_bps);
    }

    #[test]
    fn kernel_display() {
        assert_eq!(KernelVersion::CENTOS7.to_string(), "3.10.0");
    }
}

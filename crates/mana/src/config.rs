//! The MANA cost model.
//!
//! Every wrapper call crosses from the upper half to the lower half and
//! back. Each crossing must switch the thread context (the x86 `fs` base
//! register): a cheap user-space `wrfsbase` on Linux ≥ 5.9, an
//! `arch_prctl(2)` **syscall** on older kernels — the paper's Discovery
//! cluster runs CentOS 7 (kernel 3.10) and pays the syscall on every
//! crossing, which the paper names as the dominant overhead cause for
//! small messages (§5.1).

use simnet::{KernelVersion, VirtualTime};

/// Wrapper bookkeeping per call (virtual-id translation, counters).
pub const WRAPPER_OVERHEAD: VirtualTime = VirtualTime::from_nanos(150);
/// One context switch via user-space FSGSBASE (kernel ≥ 5.9).
pub const SWITCH_FSGSBASE: VirtualTime = VirtualTime::from_nanos(40);
/// One context switch via the `arch_prctl` syscall path (old kernels).
pub const SWITCH_SYSCALL: VirtualTime = VirtualTime::from_nanos(500);
/// Collective-support bookkeeping per dissemination round: MANA's
/// topological-sort collective algorithm maintains sequence state with
/// extra upper↔lower crossings proportional to log₂(nranks).
pub const COLL_ROUND_OVERHEAD: VirtualTime = VirtualTime::from_nanos(150);
/// Modelled checkpoint-image write bandwidth (bytes/second) to the
/// parallel filesystem.
pub const CKPT_WRITE_BW: f64 = 1.0e9;
/// Per-message cost of draining an in-flight message into the pool.
pub const DRAIN_MSG_OVERHEAD: VirtualTime = VirtualTime::from_nanos(400);
/// Cost of handing an image to the background writer (queue insert +
/// ownership transfer), charged per checkpoint when
/// [`ManaConfig::async_image_writes`] is on.
pub const CKPT_SUBMIT_OVERHEAD: VirtualTime = VirtualTime::from_micros(5);

/// The MANA layer's per-run settings; its costs are the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ManaConfig {
    /// When `true`, image writes are asynchronous: the rank hands its
    /// image to the background store at the rendezvous and resumes, paying
    /// only [`CKPT_SUBMIT_OVERHEAD`] instead of the full
    /// [`ManaConfig::image_write_time`]. Set by the session when a
    /// delta-checkpoint store is attached.
    pub async_image_writes: bool,
    /// Modelled size of the **static upper half** each rank image
    /// carries: program text, read-only data, allocator slack — the part
    /// of a real MANA image that never changes between epochs and, on
    /// big binaries, dominates image size. When nonzero, the checkpoint
    /// path adds a deterministic `text` section of this many bytes,
    /// marked clean via a constant generation hint, so the delta store's
    /// dirty-segment tracking can skip hashing it entirely. `0` (the
    /// default) omits the section and keeps images app-state-only.
    pub static_image_bytes: usize,
}

impl ManaConfig {
    /// Cost of one upper↔lower context switch on the given kernel.
    pub fn switch_cost(&self, kernel: KernelVersion) -> VirtualTime {
        if kernel.has_userspace_fsgsbase() {
            SWITCH_FSGSBASE
        } else {
            SWITCH_SYSCALL
        }
    }

    /// Cost of one full wrapper crossing (enter lower half + return).
    pub fn crossing_cost(&self, kernel: KernelVersion) -> VirtualTime {
        self.switch_cost(kernel) + self.switch_cost(kernel) + WRAPPER_OVERHEAD
    }

    /// Extra cost charged on collective calls: the topological-sort
    /// collective support keeps per-communicator sequence state, with one
    /// bookkeeping call into the lower half per dissemination round
    /// (hence one extra context switch per round on top of the fixed
    /// bookkeeping work).
    pub fn collective_extra(&self, kernel: KernelVersion, nranks: usize) -> VirtualTime {
        let rounds = usize::BITS - nranks.saturating_sub(1).leading_zeros();
        let per_round = COLL_ROUND_OVERHEAD + self.switch_cost(kernel);
        VirtualTime::from_nanos(per_round.as_nanos() * rounds as u64)
    }

    /// Modelled time to write `bytes` of checkpoint image.
    pub fn image_write_time(&self, bytes: usize) -> VirtualTime {
        VirtualTime::from_nanos((bytes as f64 / CKPT_WRITE_BW * 1e9) as u64)
    }

    /// What the checkpoint costs on the rank's critical path: the full
    /// synchronous image write, or just the hand-off to the background
    /// store when asynchronous writes are enabled.
    pub fn ckpt_critical_path_time(&self, bytes: usize) -> VirtualTime {
        if self.async_image_writes {
            CKPT_SUBMIT_OVERHEAD
        } else {
            self.image_write_time(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn old_kernel_pays_syscall_cost() {
        let c = ManaConfig::default();
        let old = c.crossing_cost(KernelVersion::CENTOS7);
        let new = c.crossing_cost(KernelVersion::MODERN);
        assert!(
            old.as_nanos() >= 4 * new.as_nanos(),
            "syscall path must dominate: {old} vs {new}"
        );
        assert_eq!(old, SWITCH_SYSCALL + SWITCH_SYSCALL + WRAPPER_OVERHEAD);
    }

    #[test]
    fn collective_extra_scales_logarithmically() {
        let c = ManaConfig::default();
        let k = KernelVersion::CENTOS7;
        let small = c.collective_extra(k, 2);
        let mid = c.collective_extra(k, 48);
        let big = c.collective_extra(k, 64);
        assert!(small < mid);
        assert_eq!(mid, c.collective_extra(k, 33), "same ceil(log2)");
        assert_eq!(mid, big, "48 and 64 both take 6 rounds");
    }

    #[test]
    fn image_write_time_proportional() {
        let c = ManaConfig::default();
        let t1 = c.image_write_time(1_000_000);
        let t2 = c.image_write_time(2_000_000);
        assert_eq!(t2.as_nanos(), 2 * t1.as_nanos());
        // 1 MB at 1 GB/s = 1 ms.
        assert_eq!(t1, VirtualTime::from_millis(1));
    }

    #[test]
    fn async_writes_decouple_cost_from_image_size() {
        let mut c = ManaConfig::default();
        assert_eq!(
            c.ckpt_critical_path_time(1_000_000),
            c.image_write_time(1_000_000)
        );
        c.async_image_writes = true;
        assert_eq!(c.ckpt_critical_path_time(1_000_000), CKPT_SUBMIT_OVERHEAD);
        assert_eq!(
            c.ckpt_critical_path_time(1),
            c.ckpt_critical_path_time(1_000_000_000),
            "submit cost must not scale with image size"
        );
        assert!(CKPT_SUBMIT_OVERHEAD < c.image_write_time(1_000_000));
    }
}

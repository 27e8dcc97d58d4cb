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

/// Tunable costs of the MANA layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManaConfig {
    /// Wrapper bookkeeping per call (virtual-id translation, counters).
    pub wrapper_overhead: VirtualTime,
    /// One context switch via user-space FSGSBASE (kernel ≥ 5.9).
    pub switch_fsgsbase: VirtualTime,
    /// One context switch via the `arch_prctl` syscall path (old kernels).
    pub switch_syscall: VirtualTime,
    /// Collective-support bookkeeping per dissemination round: MANA's
    /// topological-sort collective algorithm maintains sequence state with
    /// extra upper↔lower crossings proportional to log₂(nranks).
    pub coll_round_overhead: VirtualTime,
    /// Modelled checkpoint-image write bandwidth (bytes/second) to the
    /// parallel filesystem.
    pub ckpt_write_bw: f64,
    /// Per-message cost of draining an in-flight message into the pool.
    pub drain_msg_overhead: VirtualTime,
    /// When `true`, image writes are asynchronous: the rank hands its
    /// image to the background store at the rendezvous and resumes, paying
    /// only [`ManaConfig::ckpt_submit_overhead`] instead of the full
    /// [`ManaConfig::image_write_time`]. Set by the session when a
    /// delta-checkpoint store is attached.
    pub async_image_writes: bool,
    /// Cost of handing an image to the background writer (queue insert +
    /// ownership transfer), charged per checkpoint when
    /// [`ManaConfig::async_image_writes`] is on.
    pub ckpt_submit_overhead: VirtualTime,
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

impl Default for ManaConfig {
    fn default() -> Self {
        ManaConfig {
            wrapper_overhead: VirtualTime::from_nanos(150),
            switch_fsgsbase: VirtualTime::from_nanos(40),
            switch_syscall: VirtualTime::from_nanos(500),
            coll_round_overhead: VirtualTime::from_nanos(150),
            ckpt_write_bw: 1.0e9,
            drain_msg_overhead: VirtualTime::from_nanos(400),
            async_image_writes: false,
            ckpt_submit_overhead: VirtualTime::from_micros(5),
            static_image_bytes: 0,
        }
    }
}

impl ManaConfig {
    /// Cost of one upper↔lower context switch on the given kernel.
    pub fn switch_cost(&self, kernel: KernelVersion) -> VirtualTime {
        if kernel.has_userspace_fsgsbase() {
            self.switch_fsgsbase
        } else {
            self.switch_syscall
        }
    }

    /// Cost of one full wrapper crossing (enter lower half + return).
    pub fn crossing_cost(&self, kernel: KernelVersion) -> VirtualTime {
        self.switch_cost(kernel) + self.switch_cost(kernel) + self.wrapper_overhead
    }

    /// Extra cost charged on collective calls: the topological-sort
    /// collective support keeps per-communicator sequence state, with one
    /// bookkeeping call into the lower half per dissemination round
    /// (hence one extra context switch per round on top of the fixed
    /// bookkeeping work).
    pub fn collective_extra(&self, kernel: KernelVersion, nranks: usize) -> VirtualTime {
        let rounds = usize::BITS - nranks.saturating_sub(1).leading_zeros();
        let per_round = self.coll_round_overhead + self.switch_cost(kernel);
        VirtualTime::from_nanos(per_round.as_nanos() * rounds as u64)
    }

    /// Modelled time to write `bytes` of checkpoint image.
    pub fn image_write_time(&self, bytes: usize) -> VirtualTime {
        VirtualTime::from_nanos((bytes as f64 / self.ckpt_write_bw * 1e9) as u64)
    }

    /// What the checkpoint costs on the rank's critical path: the full
    /// synchronous image write, or just the hand-off to the background
    /// store when asynchronous writes are enabled.
    pub fn ckpt_critical_path_time(&self, bytes: usize) -> VirtualTime {
        if self.async_image_writes {
            self.ckpt_submit_overhead
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
        assert_eq!(
            old,
            c.switch_syscall + c.switch_syscall + c.wrapper_overhead
        );
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
        assert_eq!(c.ckpt_critical_path_time(1_000_000), c.ckpt_submit_overhead);
        assert_eq!(
            c.ckpt_critical_path_time(1),
            c.ckpt_critical_path_time(1_000_000_000),
            "submit cost must not scale with image size"
        );
        assert!(c.ckpt_submit_overhead < c.image_write_time(1_000_000));
    }
}

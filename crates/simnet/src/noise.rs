//! Seeded stochastic jitter for message costs.
//!
//! The paper repeats every experiment 5 times and reports medians with
//! error bars; Fig. 4 explicitly attributes cases where MANA+Mukautuva
//! *outperformed* native MPI to run-to-run variance. To reproduce those
//! error bars and occasional inversions we jitter each message's wire cost
//! by a deterministic, seeded multiplicative factor.
//!
//! What is keyed on what — the whole simulation stays bit-reproducible
//! for a fixed seed, a property the test suite relies on:
//!
//! * A **message's** factor ([`NoiseModel::message_factor`]) is a pure
//!   function of `(seed, destination, source, the source's send sequence
//!   number)`. The receiver applies it when its matcher ingests the
//!   envelope, and ingest order is host delivery order — which thread the
//!   OS ran first — so a draw from a receiver-side *stream* would hand
//!   the same message a different factor from run to run.
//! * **Other costs** ([`NoiseStream::factor`], e.g. a file-system write)
//!   draw from a per-`(seed, rank)` xorshift* stream in the rank's own
//!   program order, which no other thread can reorder.

/// Multiplicative jitter model for message costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Relative standard deviation of the multiplicative jitter
    /// (0.0 disables jitter entirely).
    pub rel_sigma: f64,
    /// Base seed; combined with the rank id to derive per-rank streams.
    pub seed: u64,
}

impl NoiseModel {
    /// No jitter: fully deterministic timing (the default for tests).
    pub fn disabled() -> NoiseModel {
        NoiseModel {
            rel_sigma: 0.0,
            seed: 0,
        }
    }

    /// Jitter with the given relative sigma and seed.
    ///
    /// `rel_sigma` around 0.05–0.15 reproduces error bars of the magnitude
    /// seen in the paper's Figs. 4 and 5.
    pub fn with_sigma(rel_sigma: f64, seed: u64) -> NoiseModel {
        assert!(
            (0.0..1.0).contains(&rel_sigma),
            "rel_sigma must be in [0, 1)"
        );
        NoiseModel { rel_sigma, seed }
    }

    /// Whether jitter is active.
    pub fn enabled(&self) -> bool {
        self.rel_sigma > 0.0
    }

    /// The jitter factor of the message `src` sent to `dst` as its
    /// `seq`-th: the same for a message however the host interleaves the
    /// deliveries.
    pub fn message_factor(&self, dst: usize, src: usize, seq: u64) -> f64 {
        if self.rel_sigma == 0.0 {
            return 1.0;
        }
        // splitmix64's finalizer between the key's parts: neighbouring
        // (dst, src, seq) must not start neighbouring xorshift states.
        let mix = |x: u64| {
            let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let key = mix(mix(mix(self.seed ^ dst as u64) ^ src as u64) ^ seq);
        NoiseStream::new(key, self.rel_sigma).factor()
    }

    /// Create the per-rank jitter stream (for costs other than messages).
    pub fn stream_for_rank(&self, rank: usize) -> NoiseStream {
        NoiseStream::new(
            self.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            self.rel_sigma,
        )
    }
}

/// A per-rank deterministic stream of jitter factors.
#[derive(Debug, Clone)]
pub struct NoiseStream {
    state: u64,
    rel_sigma: f64,
}

impl NoiseStream {
    fn new(seed: u64, rel_sigma: f64) -> NoiseStream {
        // xorshift* must not start at zero.
        NoiseStream {
            state: seed | 1,
            rel_sigma,
        }
    }

    /// Next raw 64-bit value (xorshift64*).
    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Next multiplicative jitter factor, ≥ 0.05.
    ///
    /// Uses a sum of three uniforms (Irwin–Hall) for an approximately normal
    /// bump centred on 1.0 with standard deviation `rel_sigma` — cheap, has
    /// bounded tails, and needs no external RNG crate in the hot path.
    pub fn factor(&mut self) -> f64 {
        if self.rel_sigma == 0.0 {
            return 1.0;
        }
        // Irwin–Hall(3): mean 1.5, variance 3/12 = 0.25, sd 0.5.
        let ih = self.next_f64() + self.next_f64() + self.next_f64();
        let standard = (ih - 1.5) / 0.5; // ~N(0, 1), support [-3, 3]
        (1.0 + standard * self.rel_sigma).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_noise_is_identity() {
        let mut s = NoiseModel::disabled().stream_for_rank(3);
        for _ in 0..100 {
            assert_eq!(s.factor(), 1.0);
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_rank() {
        let model = NoiseModel::with_sigma(0.1, 42);
        let a: Vec<f64> = (0..32)
            .map({
                let mut s = model.stream_for_rank(5);
                move |_| s.factor()
            })
            .collect();
        let b: Vec<f64> = (0..32)
            .map({
                let mut s = model.stream_for_rank(5);
                move |_| s.factor()
            })
            .collect();
        assert_eq!(a, b);
        let c: Vec<f64> = (0..32)
            .map({
                let mut s = model.stream_for_rank(6);
                move |_| s.factor()
            })
            .collect();
        assert_ne!(a, c, "different ranks must get different streams");
    }

    #[test]
    fn message_factor_is_a_pure_function_of_its_key() {
        assert_eq!(NoiseModel::disabled().message_factor(1, 2, 3), 1.0);
        let model = NoiseModel::with_sigma(0.1, 42);
        let f = model.message_factor(1, 2, 3);
        assert_eq!(f, model.message_factor(1, 2, 3));
        let others = [
            model.message_factor(2, 2, 3),
            model.message_factor(1, 3, 3),
            model.message_factor(1, 2, 4),
            NoiseModel::with_sigma(0.1, 43).message_factor(1, 2, 3),
        ];
        assert!(others.iter().all(|&g| g != f), "{f} among {others:?}");
        let n = 10_000;
        let mean = (0..n)
            .map(|seq| model.message_factor(0, 1, seq))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean message factor was {mean}");
    }

    #[test]
    fn factors_center_on_one() {
        let mut s = NoiseModel::with_sigma(0.1, 7).stream_for_rank(0);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| s.factor()).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean jitter factor was {mean}");
    }

    #[test]
    fn factors_never_negative_or_zero() {
        let mut s = NoiseModel::with_sigma(0.5, 9).stream_for_rank(1);
        for _ in 0..10_000 {
            assert!(s.factor() >= 0.05);
        }
    }

    #[test]
    #[should_panic(expected = "rel_sigma")]
    fn sigma_out_of_range_rejected() {
        let _ = NoiseModel::with_sigma(1.5, 0);
    }
}

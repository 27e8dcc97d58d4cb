//! The cost model for the translation layer.
//!
//! Mukautuva's runtime price is a handful of table lookups and a status
//! conversion per MPI call. [`crate::MukShim`] charges these constants to
//! the rank's virtual clock before each call when Mukautuva is in front
//! (never for the native baseline), and they are part of what the paper's
//! §5.1 measures (the other part is MANA's context switches).

/// Fixed cost per call, in virtual ns: argument marshalling and the
/// function-pointer dispatch into the wrap library.
pub const PER_CALL_NS: u64 = 60;
/// Cost per dynamic-handle table lookup, in virtual ns (predefined
/// handles translate by constant-time arithmetic, inside
/// [`PER_CALL_NS`]).
pub const PER_DYNAMIC_HANDLE_NS: u64 = 25;
/// Cost of converting one status object between layouts, in virtual ns.
pub const PER_STATUS_NS: u64 = 15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_sub_microsecond() {
        // Mukautuva's measured overhead is small; the model must keep the
        // per-call cost well under the cheapest network latency.
        const {
            assert!(PER_CALL_NS < 400);
            assert!(PER_DYNAMIC_HANDLE_NS < PER_CALL_NS);
        }
    }
}

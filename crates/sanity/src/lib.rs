//! The invariant gate: correctness tooling for the workspace.
//!
//! Three enforcement layers, one crate (dependency-free on purpose —
//! the gate must build even when the rest of the workspace is broken):
//!
//! * [`lint`] — the `stoolint` engine: a lightweight Rust tokenizer and
//!   data-driven rule visitors that turn the ROADMAP's prose
//!   architecture invariants (no ad-hoc stderr tracing, no sleeping on
//!   hot paths, no allocation on emit paths, no guard live across a
//!   rank barrier, no registry dependencies) into CI-gated findings
//!   with `benchgate`-style exit-2 semantics. Run it with
//!   `cargo run -p sanity --bin stoolint`.
//! * [`lockcheck`] — runtime lock-order detection:
//!   [`lockcheck::TrackedMutex`] / [`lockcheck::TrackedCondvar`]
//!   wrappers (zero-cost unless the `lockcheck` feature is on) that
//!   build a global acquisition-order graph, flag cycles and guards
//!   held across rendezvous points, and report through the flight
//!   recorder as `LockCycle` incidents.
//! * The `loom` shim (`shims/loom`) complements both with bounded
//!   exhaustive-interleaving model checking of the lock-free protocols
//!   a lint cannot reason about; see `docs/static-analysis.md`.

pub mod lint;
pub mod lockcheck;

/// `s` as a quoted JSON string, with quotes, backslashes and control
/// characters escaped: the one escaper behind every JSON document the
/// workspace writes (stoolint's report, the flight recorder's dumps,
/// the scenario matrix).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

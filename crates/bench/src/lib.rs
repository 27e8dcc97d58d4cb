//! # stool-bench — the paper's evaluation, regenerated and gated
//!
//! Every target here ends in a `BENCH_*.json` report that `benchgate`
//! validates strictly and holds against the committed baselines under
//! `benches/baselines/`, each through its table in [`gate`] — nothing
//! prints and forgets (see `docs/ci.md`).
//!
//! | target | emits | what |
//! |---|---|---|
//! | bin `figs` | `BENCH_figs.json` | the paper's Figs. 2–6 and the layer / FSGSBASE / algorithm / drain / deterministic-reduction ablations at the 4 × 12 testbed shape ([`figs`]); gated exactly and against the paper's bands |
//! | bin `scenario` | `BENCH_matrix.json` | the fault-scenario matrix ([`matrix`], `docs/scenarios.md`) |
//! | bench `store` | `BENCH_ckpt.json` | the delta store's byte counts (gated exactly) and sync vs async makespans |
//! | bench `scale` | `BENCH_scale.json` | 64–1024-rank worlds: rendezvous curves, virtual makespans, failover and multi-tenant batteries |
//! | bench `telemetry` | `BENCH_telemetry.json` | what the always-on flight recorder costs |
//! | bin `benchgate` | — | the gate: exit 0 pass, 1 regression, 2 malformed input |
//!
//! The three benches are plain `harness = false` mains (`cargo bench -p
//! stool-bench --bench store`). Wall-clock cost per layer is the repo
//! benchmark's business (`BENCHMARK.json`, `benches/e2e/`), not this
//! crate's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figs;
pub mod gate;
pub mod matrix;

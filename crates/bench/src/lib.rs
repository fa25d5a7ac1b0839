//! # pogo-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§5), plus the
//! design-choice ablations called out in `DESIGN.md`. Each module
//! exposes a `run(...)` function returning structured results and a
//! `render(...)` producing the paper-style table; the `experiments`
//! bench target and the per-experiment binaries print both the paper's
//! numbers and the measured ones side by side.
//!
//! | module | reproduces |
//! |---|---|
//! | [`table2`] | Table 2 — application code complexity |
//! | [`table3`] | Table 3 — hourly energy with/without Pogo per carrier |
//! | [`table4`] | Table 4 — the 24-day localization deployment |
//! | [`fig3`] | Figure 3 — the 3G tail power trace |
//! | [`fig4`] | Figure 4 — tail-synchronized transmission timeline |
//! | [`ablation`] | batching-policy and freeze/thaw ablations |
//!
//! Nothing here times the host: performance is measured by the
//! standalone `benchmark/` package (`BENCHMARK.json`) alone.

pub mod ablation;
pub mod fig3;
pub mod fig4;
mod report;
mod session;
pub mod table2;
pub mod table3;
pub mod table4;

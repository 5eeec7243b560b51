//! `petal_analysis` — the static-analysis layer over the lowered [`Plan`]
//! IR and the tuner's choice space, run *before* execution.
//!
//! Three passes (see `docs/verify.md` for the full contract):
//!
//! 1. **Hazard/race detection** ([`legality::check_hazards`]) — every pair
//!    of steps touching the same matrix with at least one write must be
//!    ordered by the dependence DAG, or the plan's result depends on the
//!    scheduler.
//! 2. **Placement/movement legality** ([`legality::check_placements`],
//!    [`legality::check_movement`]) — placements must be realizable on the
//!    target machine, and the §3.2 copy-out classification must match an
//!    order-independent replay over the dependence graph: no GPU-produced
//!    value may reach a host consumer without a transfer on every path.
//! 3. **Choice-space linting** ([`lint::lint_config`],
//!    [`lint::lint_choice_space`]) — shadowed selector arms, out-of-range
//!    values, and dead tunables/selectors that never change the lowered
//!    plan (probed by structural fingerprinting,
//!    [`petal_core::plan::plan_fingerprint`]).
//!
//! Errors are never allowlistable; warnings fail a `--deny` run unless a
//! committed [`allowlist`] entry with a written justification covers them.
//!
//! [`Plan`]: petal_core::plan::Plan

#![warn(missing_docs)]

pub mod allowlist;
#[cfg(test)]
mod fingerprint;
pub mod legality;
pub mod lint;
pub mod report;
pub mod verify;

pub use report::{Finding, Pass, Severity, VerifyReport};
pub use verify::{verify_benchmark, VerifyOptions};

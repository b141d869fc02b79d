//! Generalized Assignment Problem (GAP) solvers.
//!
//! The paper's GAP-based GEPC algorithm (Section III-A) reduces the
//! ξ-GEPC problem (with time conflicts ignored) to a GAP instance:
//! jobs are event copies, machines are users, `p_{i,j} = 2·d(u_i,e_j)`,
//! `T_i = (2+ε)·B_i`, `c_{i,j} = 1 − μ(u_i,e_j)`. It then solves the LP
//! relaxation ("linear programming with the relaxation method of
//! Plotkin–Shmoys–Tardos \[5\]") and rounds with the Shmoys–Tardos
//! slot-matching scheme \[6\], which yields cost at most the fractional
//! optimum and per-machine load at most `T_i + max_j p_{i,j}`.
//!
//! This crate implements the whole pipeline from scratch:
//!
//! * [`GapInstance`] — capacities and per-event candidate rows of
//!   costs and processing times (absent pairs are forbidden);
//! * [`lp_relaxation`] — exact fractional optimum via the `epplan-lp`
//!   simplex (small/medium instances);
//! * [`packing`] — a multiplicative-weights approximate fractional
//!   solver in the spirit of \[5\] for large instances;
//! * [`round_shmoys_tardos`] — slot construction + integral min-cost
//!   matching via `epplan-flow`;
//! * [`GreedySolver`](greedy::greedy_assign) — regret-based heuristic
//!   baseline;
//! * [`exact::branch_and_bound`] — exact optimum for small instances
//!   (used in tests and the approximation-ratio ablation);
//! * [`GapSolver`] — the composed pipeline with automatic method
//!   selection.
//!
//! Every solver follows the fallible contract of `epplan-solve`:
//! malformed instances are `BadInput` errors (construction *poisons*
//! the instance instead of panicking), genuinely over-constrained
//! systems are `Infeasible`, and each entry point has a
//! `*_with_budget` variant that spends an [`epplan_solve::SolveBudget`]
//! and fails with `BudgetExhausted` — carrying the best partial
//! artifact produced so far — when the allowance runs out.


// Solver code must degrade with typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod fractional;
pub mod greedy;
pub mod lp_relax;
pub mod packing;
pub mod rounding;
mod solver;

mod instance;

pub use fractional::FractionalSolution;
pub use instance::{GapInstance, GapSolution};
pub use lp_relax::{lp_relaxation, lp_relaxation_with_budget};
pub use rounding::{round_shmoys_tardos, round_shmoys_tardos_with_budget};
pub use solver::{FractionalMethod, GapConfig, GapSolver};

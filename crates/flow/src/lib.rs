//! Minimum-cost flow and bipartite assignment.
//!
//! The Shmoys–Tardos rounding step of the paper's GAP-based algorithm
//! (Section III-A, \[6\]) converts a fractional GAP solution into an
//! integral assignment by computing a **minimum-cost matching that
//! saturates every job** in a bipartite "slot graph". This crate
//! provides the two pieces needed for that:
//!
//! * [`MinCostFlow`] — successive-shortest-path min-cost max-flow with
//!   Dijkstra path search over Johnson potentials (one Bellman–Ford
//!   pass absorbs the negative-cost arcs that appear when utilities are
//!   converted to costs `1 − μ`);
//! * [`min_cost_assignment`] — a job→slot assignment layer on top,
//!   with per-slot capacities, requiring every left vertex be matched.
//!
//! Both follow the fallible contract of `epplan-solve`: malformed
//! graphs are `BadInput` errors rather than panics, an incomplete
//! matching is an `Infeasible` error carrying the partial assignment,
//! and the augmentation loops spend an [`epplan_solve::SolveBudget`]
//! (one iteration per augmentation).
//!
//! Capacities are `f64` but all callers use integral capacities, for
//! which successive shortest paths provably returns integral flows.


// Solver code must degrade with typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matching;
mod mcmf;

pub use matching::{min_cost_assignment, min_cost_assignment_with_budget, Assignment};
pub use mcmf::{EdgeId, FlowResult, MinCostFlow};

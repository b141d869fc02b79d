//! Minimum-cost bipartite assignment.
//!
//! The Shmoys–Tardos rounding step of the paper's GAP-based algorithm
//! (Section III-A, \[6\]) converts a fractional GAP solution into an
//! integral assignment by computing a **minimum-cost matching that
//! saturates every job** in a bipartite "slot graph".
//! [`min_cost_assignment`] computes it: every left vertex (job) goes to
//! one adjacent right vertex (slot) under integral per-right
//! capacities, at minimum total cost. Each left is added by one
//! shortest augmenting path — Dijkstra from that left alone over
//! reduced costs, stopped at the first slot with spare capacity — so
//! the work per job stays local to the part of the slot graph it
//! competes for. Costs may be negative (utilities are converted to
//! costs `1 − μ`).
//!
//! The solver follows the fallible contract of `epplan-solve`:
//! malformed graphs are `BadInput` errors rather than panics, an
//! incomplete matching is an `Infeasible` error carrying a
//! maximum-cardinality partial assignment, and the augmentation loop
//! spends an [`epplan_solve::SolveBudget`] (one iteration per
//! augmentation).

// Solver code must degrade with typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matching;

pub use matching::{min_cost_assignment, min_cost_assignment_with_budget, Assignment};

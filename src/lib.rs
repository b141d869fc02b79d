//! # epplan — complex event-participant planning
//!
//! A Rust implementation of the GEPC (Global Event Planning with
//! Constraints) and IEP (Incremental Event Planning) problems from
//! *"Complex Event-Participant Planning and Its Incremental Variant"*
//! (Cheng, Yuan, Chen, Giraud-Carrier, Wang — ICDE 2017), together with
//! every substrate the paper depends on: a simplex LP solver, a
//! min-cost-flow/matching engine, a Generalized Assignment Problem
//! solver with Shmoys–Tardos rounding, a spatial index, a synthetic
//! Meetup-like data generator, and a memory-tracking allocator.
//!
//! This umbrella crate re-exports the public API of all member crates
//! so downstream users can depend on a single crate:
//!
//! ```
//! use epplan::prelude::*;
//!
//! // Build the 5-user / 4-event instance from Example 1 of the paper
//! // and solve it with the greedy algorithm.
//! let instance = epplan::datagen::paper_example();
//! let solver = GreedySolver::seeded(42);
//! let solution = solver.solve(&instance);
//! assert!(certify(&instance, &solution.plan).hard_ok());
//! ```

// Solver-adjacent code must not panic (uniform workspace gate; the
// epplan-lint `robustness/unwrap` rule enforces the same contract).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use epplan_core as core;
pub use epplan_datagen as datagen;
pub use epplan_fault as fault;
pub use epplan_flow as flow;
pub use epplan_gap as gap;
pub use epplan_geo as geo;
pub use epplan_lp as lp;
pub use epplan_memtrack as memtrack;
pub use epplan_obs as obs;
pub use epplan_par as par;
pub use epplan_serve as serve;
pub use epplan_solve as solve;

/// Commonly used items, re-exported for `use epplan::prelude::*`.
pub mod prelude {
    pub use epplan_core::incremental::{AtomicOp, IncrementalPlanner};
    pub use epplan_core::certify::certify;
    pub use epplan_core::model::{Event, EventId, Instance, TimeInterval, User, UserId};
    pub use epplan_core::plan::Plan;
    pub use epplan_core::solver::{
        ExactSolver, GapBasedSolver, GepcSolver, GreedySolver, Solution,
    };
    pub use epplan_geo::Point;
}

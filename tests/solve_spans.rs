//! Every solver certifies the plan it returns exactly once: a solve
//! records one `solve.certify` span, whichever tier wins and whether
//! the plan is returned or attached to the error as its partial. The GAP
//! solver's success arm reads the certificate its `Solution` was built
//! with.
//!
//! The trace sink is process-global, so this file holds a single test.

use std::sync::Arc;

use epplan::core::solver::{ExactSolver, GapBasedSolver, GepcSolver, GreedySolver, SolveBudget};
use epplan::datagen::{generate, GeneratorConfig};
use epplan::obs::CollectingSink;

#[test]
fn every_solver_certifies_exactly_once() {
    let instance = generate(&GeneratorConfig {
        n_users: 8,
        n_events: 4,
        seed: 5,
        ..GeneratorConfig::default()
    });
    let solvers: [&dyn GepcSolver; 3] = [
        &GreedySolver::seeded(5),
        &GapBasedSolver::default(),
        &ExactSolver::default(),
    ];
    for solver in solvers {
        let sink = Arc::new(CollectingSink::new());
        epplan::obs::install_sink(sink.clone());
        let solved = solver.try_solve(&instance, SolveBudget::UNLIMITED);
        epplan::obs::uninstall_sink();
        // A solve that misses a lower bound returns its plan as the
        // error's partial; that plan is certified once too.
        let solution = solved.unwrap_or_else(|e| {
            e.partial
                .unwrap_or_else(|| panic!("{}: {}", solver.name(), e.message))
        });
        assert!(solution.certified(), "{}", solver.name());
        let certifies = sink
            .events()
            .iter()
            .filter(|e| e.span == "solve.certify")
            .count();
        assert_eq!(certifies, 1, "{} certified other than once", solver.name());
    }
}

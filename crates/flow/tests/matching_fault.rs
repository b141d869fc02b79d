//! The `flow.mcmf.augment` fault site inside the matcher. Fault plans
//! are process-global, so this lives in its own test binary.

use epplan_fault::{FaultAction, FaultPlan};
use epplan_flow::min_cost_assignment;
use epplan_solve::FailureKind;

#[test]
fn augment_fault_carries_the_assignment_matched_so_far() {
    // Three lefts on their own slots; the fault fires on the second
    // augmentation, after left 0 is placed and before left 1 is.
    let edges = [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)];
    epplan_fault::install(
        FaultPlan::single_at("flow.mcmf.augment", 2, FaultAction::DeadlineTrip).unwrap(),
    );
    let result = min_cost_assignment(3, 3, &edges, &[1, 1, 1]);
    let hits = epplan_fault::hits("flow.mcmf.augment");
    epplan_fault::clear();
    let e = result.unwrap_err();
    assert_eq!(hits, 2);
    assert_eq!(e.kind, FailureKind::BudgetExhausted);
    assert_eq!(e.stage, "flow.matching");
    assert!(e.message.contains("flow.mcmf.augment"), "{}", e.message);
    let partial = e.partial.expect("fault carries a partial");
    assert_eq!(partial.left_to_right, vec![0, usize::MAX, usize::MAX]);
    assert_eq!(partial.cost, 1.0);
}

//! Fixture: budget/poll-coverage.
pub struct BudgetGuard;

impl BudgetGuard {
    pub fn tick(&self) {}
}

fn bad(inst: &Instance, guard: &BudgetGuard) {
    for u in inst.user_ids() {
        drop(u);
    }
    drop(guard);
}

fn good_direct(inst: &Instance, guard: &BudgetGuard) {
    for u in inst.user_ids() {
        guard.tick();
        drop(u);
    }
}

fn good_via_helper(inst: &Instance, guard: &BudgetGuard) {
    for u in inst.user_ids() {
        reach(guard);
        drop(u);
    }
}

fn reach(guard: &BudgetGuard) {
    guard.tick();
}

fn ungoverned(inst: &Instance) {
    for u in inst.user_ids() {
        drop(u);
    }
}

fn vetted(inst: &Instance, budget: SolveBudget) {
    // epplan-lint: allow(budget/poll-coverage) — fixture: loop bounded elsewhere
    for u in inst.user_ids() {
        drop(u);
    }
    drop(budget);
}

fn unvetted(inst: &Instance, budget: SolveBudget) {
    // epplan-lint: allow(budget/poll-coverage)
    for u in inst.user_ids() {
        drop(u);
    }
    drop(budget);
}

//! Fixture: sparse/dense-scan — dense event loops reachable from a
//! batch entry point.
pub struct GapBasedSolver;

impl GapBasedSolver {
    pub fn try_solve(&self, inst: &Instance) {
        helper(inst);
        vetted(inst);
        unvetted(inst);
    }
}

fn helper(inst: &Instance) {
    for e in inst.event_ids() {
        drop(e);
    }
    let m = inst.n_events();
    for k in 0..m {
        drop(k);
    }
}

fn vetted(inst: &Instance) {
    // epplan-lint: allow(sparse/dense-scan) — fixture: vetted O(|E|) pass
    for e in inst.event_ids() {
        drop(e);
    }
}

fn unvetted(inst: &Instance) {
    // epplan-lint: allow(sparse/dense-scan)
    for e in inst.event_ids() {
        drop(e);
    }
}

fn cold(inst: &Instance) {
    for e in inst.event_ids() {
        drop(e);
    }
}

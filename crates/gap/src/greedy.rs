//! Regret-based greedy GAP heuristic.
//!
//! Used as (a) the fallback when the LP pipeline cannot produce a
//! complete assignment, and (b) a fast baseline in the substrate
//! benchmarks. At each step the unassigned job with the largest
//! *regret* — the cost gap between its best and second-best remaining
//! feasible machine — is committed to its best machine. Large-regret
//! jobs are the ones that become expensive if deferred, so fixing them
//! early empirically tracks the optimum closely.

use crate::{GapInstance, GapSolution};

/// Greedily assigns jobs by maximum regret. Jobs that fit nowhere are
/// left unassigned (`None` in the returned solution).
pub fn greedy_assign(inst: &GapInstance) -> GapSolution {
    let n = inst.n_jobs();
    let m = inst.n_machines();
    let mut assign: Vec<Option<usize>> = vec![None; n];
    let mut loads = vec![0.0; m];
    let mut remaining: Vec<usize> = (0..n).collect();

    while !remaining.is_empty() {
        // For each remaining job, find its best and second-best machine
        // under current loads.
        let mut pick: Option<(usize, usize, f64)> = None; // (slot in remaining, machine, regret)
        for (slot, &j) in remaining.iter().enumerate() {
            let mut best: Option<(usize, f64)> = None;
            let mut second: Option<f64> = None;
            for (i, c, t) in inst.allowed_triples(j) {
                if loads[i] + t > inst.capacity(i) + 1e-12 {
                    continue;
                }
                match best {
                    None => best = Some((i, c)),
                    Some((_, bc)) if c < bc => {
                        second = Some(bc);
                        best = Some((i, c));
                    }
                    Some(_) => {
                        if second.is_none_or(|s| c < s) {
                            second = Some(c);
                        }
                    }
                }
            }
            if let Some((i, bc)) = best {
                // No alternative = infinite regret: must fix it now.
                let regret = second.map_or(f64::INFINITY, |s| s - bc);
                if pick.is_none_or(|(_, _, r)| regret > r) {
                    pick = Some((slot, i, regret));
                }
            }
        }
        match pick {
            Some((slot, i, _)) => {
                let j = remaining.swap_remove(slot);
                loads[i] += inst.time(i, j);
                assign[j] = Some(i);
            }
            None => break, // nothing left fits anywhere
        }
    }
    GapSolution::from_assignment(inst, assign)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_cheapest_when_capacity_ample() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 9.0], vec![9.0, 1.0]],
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![5.0, 5.0],
        );
        let s = greedy_assign(&g);
        assert!(s.is_complete());
        assert_eq!(s.cost, 2.0);
    }

    #[test]
    fn regret_fixes_constrained_job_first() {
        // Job 1 can only go to machine 0 (regret ∞); job 0 has both.
        // If job 0 were assigned to machine 0 first, job 1 would fail.
        let g = GapInstance::from_matrices(
            vec![vec![0.0, 1.0], vec![1.0, f64::INFINITY]], // job 1 not allowed on machine 1
            vec![vec![1.0, 1.0], vec![1.0, 1.0]],
            vec![1.0, 1.0],
        );
        let s = greedy_assign(&g);
        assert!(s.is_complete());
        assert_eq!(s.assignment[1], Some(0));
        assert_eq!(s.assignment[0], Some(1));
    }

    #[test]
    fn leaves_unfittable_jobs_unassigned() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 1.0, 1.0]],
            vec![vec![1.0, 1.0, 1.0]],
            vec![2.0],
        );
        let s = greedy_assign(&g);
        assert_eq!(s.unassigned_jobs().len(), 1);
        assert!(s.within_capacity(&g, 1.0));
    }

    #[test]
    fn capacity_never_violated() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 2.0, 3.0, 4.0], vec![4.0, 3.0, 2.0, 1.0]],
            vec![vec![2.0, 2.0, 2.0, 2.0], vec![2.0, 2.0, 2.0, 2.0]],
            vec![4.0, 4.0],
        );
        let s = greedy_assign(&g);
        assert!(s.within_capacity(&g, 1.0));
        assert!(s.is_complete());
    }

    #[test]
    fn empty_instance() {
        let g = GapInstance::from_matrices(vec![], vec![], vec![]);
        let s = greedy_assign(&g);
        assert!(s.assignment.is_empty());
    }

    #[test]
    fn near_optimal_on_easy_instance() {
        let g = GapInstance::from_matrices(
            vec![vec![1.0, 4.0, 2.0], vec![2.0, 1.0, 3.0]],
            vec![vec![1.0, 2.0, 1.5], vec![2.0, 1.0, 1.0]],
            vec![2.5, 2.0],
        );
        let greedy = greedy_assign(&g);
        let exact = crate::exact::branch_and_bound(&g).unwrap();
        assert!(greedy.cost >= exact.cost - 1e-9);
        assert!(greedy.is_complete());
    }
}

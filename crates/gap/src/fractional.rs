//! Fractional (relaxed) GAP solutions shared by the exact LP and the
//! multiplicative-weights solvers.

use crate::GapInstance;

/// A fractional assignment: `x(i, j) ∈ [0, 1]` with `Σ_i x(i, j) = 1`
/// for every job `j` that is fractionally assignable.
///
/// Storage is job-major sparse: each job keeps its machine support as a
/// machine-ascending `(machine, fraction)` list. A job's support is
/// small (the LP's basic solutions are sparse; the MW average touches
/// at most one machine per round), so every operation is
/// O(support) — never O(machines × jobs), which matters once the GEPC
/// reduction puts 10⁵–10⁶ machines in play.
#[derive(Debug, Clone)]
pub struct FractionalSolution {
    n_machines: usize,
    n_jobs: usize,
    /// Per-job support, machine-ascending `(machine, fraction)` pairs.
    x: Vec<Vec<(u32, f64)>>,
    /// Jobs that could not be (fractionally) assigned at all.
    pub unassigned: Vec<usize>,
}

impl FractionalSolution {
    /// Creates an all-zero solution.
    pub fn zero(n_machines: usize, n_jobs: usize) -> Self {
        FractionalSolution {
            n_machines,
            n_jobs,
            x: vec![Vec::new(); n_jobs],
            unassigned: Vec::new(),
        }
    }

    /// Number of machines.
    pub fn n_machines(&self) -> usize {
        self.n_machines
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.n_jobs
    }

    /// Machine support of job `j`: machine-ascending
    /// `(machine, fraction)` pairs with non-zero fractions.
    #[inline]
    pub fn support(&self, job: usize) -> &[(u32, f64)] {
        &self.x[job]
    }

    /// Fraction of job `j` on machine `i`.
    #[inline]
    pub fn get(&self, machine: usize, job: usize) -> f64 {
        let row = &self.x[job];
        match row.binary_search_by_key(&(machine as u32), |&(i, _)| i) {
            Ok(k) => row[k].1,
            Err(_) => 0.0,
        }
    }

    /// Sets the fraction of job `j` on machine `i` (zero removes the
    /// entry).
    #[inline]
    pub fn set(&mut self, machine: usize, job: usize, v: f64) {
        let row = &mut self.x[job];
        match row.binary_search_by_key(&(machine as u32), |&(i, _)| i) {
            Ok(k) => {
                // epplan-lint: allow(float/exact-eq) — sparse storage: exact 0.0 means "absent", no tolerance wanted
                if v == 0.0 {
                    row.remove(k);
                } else {
                    row[k].1 = v;
                }
            }
            Err(k) => {
                // epplan-lint: allow(float/exact-eq) — sparse storage: exact 0.0 means "absent", no tolerance wanted
                if v != 0.0 {
                    row.insert(k, (machine as u32, v));
                }
            }
        }
    }

    /// Adds to the fraction of job `j` on machine `i`.
    #[inline]
    pub fn add(&mut self, machine: usize, job: usize, v: f64) {
        let row = &mut self.x[job];
        match row.binary_search_by_key(&(machine as u32), |&(i, _)| i) {
            Ok(k) => row[k].1 += v,
            Err(k) => row.insert(k, (machine as u32, v)),
        }
    }

    /// Scales every fraction by `f` (used to average MW iterates).
    pub fn scale(&mut self, f: f64) {
        for row in &mut self.x {
            for (_, v) in row.iter_mut() {
                *v *= f;
            }
        }
    }

    /// Fractional cost `Σ c(i,j) · x(i,j)` over non-forbidden pairs.
    pub fn cost(&self, inst: &GapInstance) -> f64 {
        let mut total = 0.0;
        for (j, row) in self.x.iter().enumerate() {
            for &(i, v) in row {
                if v > 0.0 {
                    total += v * inst.cost(i as usize, j);
                }
            }
        }
        total
    }

    /// Per-machine fractional loads `Σ p(i,j) · x(i,j)`. Each machine's
    /// sum accumulates in ascending job order, so the floats are
    /// independent of thread count and storage layout.
    pub fn loads(&self, inst: &GapInstance) -> Vec<f64> {
        let mut loads = vec![0.0; self.n_machines];
        for (j, row) in self.x.iter().enumerate() {
            for &(i, v) in row {
                loads[i as usize] += v * inst.time(i as usize, j);
            }
        }
        loads
    }

    /// Total assigned fraction of job `j` (should be 1 for assigned
    /// jobs, 0 for unassigned ones).
    pub fn job_mass(&self, job: usize) -> f64 {
        self.x[job].iter().map(|&(_, v)| v).sum()
    }

    /// Keeps only each job's `k` largest machine fractions,
    /// renormalizing so job masses stay at 1.
    ///
    /// The multiplicative-weights solver can spread a job's mass over
    /// many machines; the Shmoys–Tardos rounding then builds a slot
    /// graph whose edge count (and min-cost-flow time) grows with that
    /// support. Pruning to the dominant machines changes the fractional
    /// cost only marginally (the dropped tail carries little mass) and
    /// keeps the rounding near-linear. Exact LP solutions are basic and
    /// already sparse, so pruning is a no-op for them in practice.
    ///
    /// `k = 0` would destroy every job's mass, so it is treated as a
    /// no-op (pruning disabled) rather than a panic.
    pub fn prune_top_k(&mut self, k: usize) {
        if k == 0 {
            return;
        }
        for j in 0..self.n_jobs {
            if self.x[j].len() <= k || self.unassigned.contains(&j) {
                continue;
            }
            let mass = self.job_mass(j);
            let mut fracs: Vec<(u32, f64)> = self
                .x[j]
                .iter()
                .copied()
                .filter(|&(_, v)| v > 0.0)
                .collect();
            if fracs.len() <= k {
                continue;
            }
            fracs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let keep: f64 = fracs[..k].iter().map(|&(_, v)| v).sum();
            if keep <= 0.0 {
                continue;
            }
            let scale = mass / keep;
            fracs.truncate(k);
            fracs.sort_by_key(|&(i, _)| i);
            for (_, v) in fracs.iter_mut() {
                *v *= scale;
            }
            self.x[j] = fracs;
        }
    }

    /// Validates the structural invariants within `tol`:
    /// non-negativity, job masses ≈ 1 (or 0 for unassigned), and zero
    /// mass on forbidden pairs.
    pub fn check(&self, inst: &GapInstance, tol: f64) -> Result<(), String> {
        for (j, row) in self.x.iter().enumerate() {
            for &(i, v) in row {
                if v < -tol {
                    return Err("negative fraction".into());
                }
                if v > tol && !inst.allowed(i as usize, j) {
                    return Err(format!("mass on forbidden pair ({i}, {j})"));
                }
            }
            let mass = self.job_mass(j);
            let expect = if self.unassigned.contains(&j) { 0.0 } else { 1.0 };
            if (mass - expect).abs() > tol {
                return Err(format!("job {j} mass {mass}, expected {expect}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> GapInstance {
        GapInstance::from_matrices(
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            vec![vec![1.0, 2.0], vec![2.0, 1.0]],
            vec![10.0, 10.0],
        )
    }

    #[test]
    fn cost_and_loads() {
        let g = inst();
        let mut x = FractionalSolution::zero(2, 2);
        x.set(0, 0, 0.5);
        x.set(1, 0, 0.5);
        x.set(0, 1, 1.0);
        assert!((x.cost(&g) - (0.5 + 1.5 + 2.0)).abs() < 1e-12);
        assert_eq!(x.loads(&g), vec![0.5 + 2.0, 1.0]);
        assert!(x.check(&g, 1e-9).is_ok());
    }

    #[test]
    fn support_is_machine_ascending_and_sparse() {
        let mut x = FractionalSolution::zero(3, 1);
        x.add(2, 0, 0.25);
        x.add(0, 0, 0.5);
        x.add(2, 0, 0.25);
        assert_eq!(x.support(0), &[(0, 0.5), (2, 0.5)]);
        assert_eq!(x.get(1, 0), 0.0);
        x.set(0, 0, 0.0);
        assert_eq!(x.support(0), &[(2, 0.5)]);
    }

    #[test]
    fn check_rejects_bad_mass() {
        let g = inst();
        let mut x = FractionalSolution::zero(2, 2);
        x.set(0, 0, 0.7); // job 0 mass 0.7, job 1 mass 0
        assert!(x.check(&g, 1e-9).is_err());
    }

    #[test]
    fn check_rejects_forbidden_mass() {
        let g = GapInstance::from_matrices(
            vec![vec![f64::INFINITY, 2.0], vec![3.0, 4.0]],
            vec![vec![1.0, 2.0], vec![2.0, 1.0]],
            vec![10.0, 10.0],
        );
        let mut x = FractionalSolution::zero(2, 2);
        x.set(0, 0, 1.0);
        x.set(0, 1, 1.0);
        assert!(x.check(&g, 1e-9).is_err());
    }

    #[test]
    fn prune_keeps_mass_and_top_fractions() {
        let g = inst();
        let mut x = FractionalSolution::zero(2, 2);
        x.set(0, 0, 0.7);
        x.set(1, 0, 0.3);
        x.set(0, 1, 1.0);
        x.prune_top_k(1);
        assert!((x.job_mass(0) - 1.0).abs() < 1e-12);
        assert_eq!(x.get(1, 0), 0.0);
        assert!((x.get(0, 0) - 1.0).abs() < 1e-12);
        assert_eq!(x.get(0, 1), 1.0);
        assert!(x.check(&g, 1e-9).is_ok());
    }

    #[test]
    fn prune_noop_when_support_small() {
        let mut x = FractionalSolution::zero(3, 1);
        x.set(0, 0, 0.5);
        x.set(1, 0, 0.5);
        let before = x.clone();
        x.prune_top_k(2);
        assert_eq!(x.get(0, 0), before.get(0, 0));
        assert_eq!(x.get(1, 0), before.get(1, 0));
    }

    #[test]
    fn unassigned_jobs_expect_zero_mass() {
        let g = inst();
        let mut x = FractionalSolution::zero(2, 2);
        x.set(0, 0, 1.0);
        x.unassigned = vec![1];
        assert!(x.check(&g, 1e-9).is_ok());
    }
}

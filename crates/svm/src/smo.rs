//! Sequential Minimal Optimization (SMO) solver for the SVM dual problem.
//!
//! This is the same algorithm LIBSVM implements (Fan, Chen & Lin, JMLR 2005):
//! it minimises
//!
//! ```text
//!     min_a  0.5 aᵀ Q a + pᵀ a
//!     s.t.   yᵀ a = Δ,   0 <= a_i <= C_i
//! ```
//!
//! with `Q_ij = y_i y_j K(x_i, x_j)`, by repeatedly selecting a maximal
//! violating pair with second-order working-set selection (WSS2) and solving
//! the two-variable subproblem analytically.
//!
//! Both ε-SVR ([`crate::svr`]) and C-SVC ([`crate::svc`]) reduce to this
//! form; the regression case uses the standard expansion to `2l` variables.

use crate::kernel::Kernel;
use crate::matrix::DenseMatrix;

/// Numerical floor for the second derivative of the two-variable subproblem,
/// as in LIBSVM (`TAU`).
const TAU: f64 = 1e-12;

/// The dual matrix `Q_st = y_s y_t K(x_{s mod l}, x_{t mod l})` over `n`
/// variables placed on `l` training points: variable `t` sits on point
/// `t mod l` with sign `y_t = ±1`. C-SVC and one-class use `n = l`; the
/// ε-SVR expansion uses `n = 2l`, α (sign +1) first, then α* (sign −1).
///
/// Only kernel rows are stored, one per point, each computed on its first
/// request and kept for the whole solve (at most `l²` floats). The solver
/// applies the signs as it reads a row; multiplying by ±1 is exact, so a
/// `Q` entry formed that way is bitwise the signed kernel value.
pub(crate) struct QMatrix<'a> {
    kernel: Kernel,
    points: &'a DenseMatrix,
    /// The ±1 sign of each variable.
    y: Vec<f64>,
    /// `Q_tt = K(x_{t mod l}, x_{t mod l})` per variable.
    diag: Vec<f64>,
    /// Kernel row of each point; empty until first requested.
    rows: Vec<Vec<f64>>,
    /// Precomputed `‖r‖²` per training row when the RBF row pass rides
    /// `eval_row_batch_prenorm`; `None` keeps the scalar-bitwise pass.
    row_norms: Option<Vec<f64>>,
    hits: u64,
    misses: u64,
}

impl<'a> QMatrix<'a> {
    /// `Q` for the variables signed by `y`, whose length must be a
    /// multiple of `points.rows()`.
    pub(crate) fn new(kernel: Kernel, points: &'a DenseMatrix, y: Vec<f64>) -> Self {
        let l = points.rows();
        debug_assert!(
            y.len().is_multiple_of(l),
            "{} variables on {l} points",
            y.len()
        );
        let point_diag: Vec<f64> = points.iter().map(|p| kernel.eval(p, p)).collect();
        let diag = point_diag.iter().cycle().take(y.len()).copied().collect();
        QMatrix {
            kernel,
            points,
            y,
            diag,
            rows: vec![Vec::new(); l],
            row_norms: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Routes RBF kernel rows through [`Kernel::eval_row_batch_prenorm`].
    /// Q entries then agree with the scalar pass only to the documented
    /// ≤1e-12 relative tolerance — acceptable inside the solver, whose
    /// KKT stopping tolerance is nine orders of magnitude looser. A
    /// no-op for non-RBF kernels (their prenorm pass is bitwise anyway).
    pub(crate) fn with_prenorm_rows(mut self, enabled: bool) -> Self {
        self.row_norms = (enabled && matches!(self.kernel, Kernel::Rbf { .. }))
            .then(|| self.points.row_squared_norms());
        self
    }

    /// Number of variables in the dual problem.
    pub(crate) fn len(&self) -> usize {
        self.y.len()
    }

    /// The ±1 sign of every variable.
    pub(crate) fn signs(&self) -> &[f64] {
        &self.y
    }

    /// The diagonal `Q_tt` of every variable.
    pub(crate) fn diag(&self) -> &[f64] {
        &self.diag
    }

    /// The training point variable `t` sits on.
    fn point(&self, t: usize) -> usize {
        t % self.points.rows()
    }

    /// Makes the kernel row of variable `t`'s point available to
    /// [`QMatrix::row`], computing it on the point's first request.
    pub(crate) fn load(&mut self, t: usize) {
        let b = self.point(t);
        if !self.rows[b].is_empty() {
            self.hits += 1;
            return;
        }
        self.misses += 1;
        let mut row = vec![0.0; self.points.rows()];
        let x = self.points.row(b);
        match &self.row_norms {
            Some(norms) => self
                .kernel
                .eval_row_batch_prenorm(x, self.points, norms, &mut row),
            None => self.kernel.eval_row_batch(x, self.points, &mut row),
        }
        self.rows[b] = row;
    }

    /// Kernel row `K(x_{t mod l}, ·)` over the `l` points, loaded by
    /// [`QMatrix::load`]. `Q_ts = y_t y_s K_t[s mod l]`.
    pub(crate) fn row(&self, t: usize) -> &[f64] {
        let row = &self.rows[self.point(t)];
        debug_assert!(!row.is_empty(), "kernel row of variable {t} not loaded");
        row
    }

    /// Kernel-row `(hits, misses)` of [`QMatrix::load`] so far, for the
    /// observability layer.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// `acc_t += y_t · (K_t · scale)` for every variable `t`, walking the
/// length-`l` kernel row `krow` once per block of `l` variables. With
/// `scale = y_i · a` this is bitwise `acc_t += a · Q_it`: the ±1 factors
/// are exact.
fn add_signed_row(acc: &mut [f64], y: &[f64], krow: &[f64], scale: f64) {
    let l = krow.len();
    for (acc_block, y_block) in acc.chunks_mut(l).zip(y.chunks(l)) {
        for ((a, &yt), &k) in acc_block.iter_mut().zip(y_block).zip(krow) {
            *a += yt * (k * scale);
        }
    }
}

/// Parameters controlling a single SMO solve.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SolveOptions {
    /// KKT violation tolerance (LIBSVM default 1e-3).
    pub tolerance: f64,
    /// Hard cap on iterations; `usize::MAX` effectively disables it.
    pub max_iterations: usize,
    /// Enable the shrinking heuristic: variables confidently at their
    /// bounds are removed from the working set and the gradient is only
    /// maintained over the remainder, then reconstructed before the final
    /// optimality check (LIBSVM `-h 1`).
    pub shrinking: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-3,
            max_iterations: 10_000_000,
            shrinking: true,
        }
    }
}

/// Result of an SMO solve.
#[derive(Debug, Clone)]
pub(crate) struct Solution {
    /// Optimal dual variables.
    pub alpha: Vec<f64>,
    /// Offset `rho`; the decision function is `f(x) = Σ y_i a_i K(x_i,x) − rho`.
    pub rho: f64,
    /// Final dual objective value (diagnostic; exercised by tests).
    #[allow(dead_code)]
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the KKT tolerance was reached within the iteration cap.
    pub converged: bool,
}

/// Solves the dual problem over `q` and its signs. `p` is the linear term,
/// `c` the per-variable upper bounds, `alpha` the (feasible) starting point.
pub(crate) fn solve(
    q: &mut QMatrix<'_>,
    p: &[f64],
    c: &[f64],
    mut alpha: Vec<f64>,
    options: SolveOptions,
) -> Solution {
    let n = q.len();
    debug_assert_eq!(p.len(), n);
    debug_assert_eq!(c.len(), n);
    debug_assert_eq!(alpha.len(), n);

    // G_i = (Q a)_i + p_i; G̅_i tracks the bound-variable contribution
    // Σ_{α_j = C_j} C_j Q_ij needed to reconstruct G for shrunk variables.
    let mut grad: Vec<f64> = p.to_vec();
    let mut g_bar = vec![0.0; n];
    for i in 0..n {
        if alpha[i] != 0.0 {
            let ai = alpha[i];
            q.load(i);
            let (y, ki) = (q.signs(), q.row(i));
            add_signed_row(&mut grad, y, ki, y[i] * ai);
            if ai >= c[i] {
                add_signed_row(&mut g_bar, y, ki, y[i] * c[i]);
            }
        }
    }

    let mut active = vec![true; n];
    let mut n_active = n;
    let mut unshrunk = false;
    let shrink_period = n.clamp(1, 1000);
    let mut counter = shrink_period;
    let mut iterations = 0;
    let mut converged = false;

    while iterations < options.max_iterations {
        counter -= 1;
        if counter == 0 {
            counter = shrink_period;
            if options.shrinking {
                do_shrinking(
                    q,
                    &mut grad,
                    &g_bar,
                    p,
                    c,
                    &alpha,
                    &mut active,
                    &mut n_active,
                    &mut unshrunk,
                    options.tolerance,
                );
            }
        }

        let pair = select_working_set(q, &grad, c, &alpha, options.tolerance, &active);
        let (i, j) = match pair {
            Some(pair) => pair,
            None => {
                if n_active == n {
                    converged = true;
                    break;
                }
                // Optimal on the shrunk set: reconstruct and re-check on
                // the full set.
                reconstruct_gradient(q, &mut grad, &g_bar, p, c, &alpha, &active);
                active.iter_mut().for_each(|a| *a = true);
                n_active = n;
                match select_working_set(q, &grad, c, &alpha, options.tolerance, &active) {
                    Some(pair) => {
                        counter = 1; // shrink again next iteration
                        pair
                    }
                    None => {
                        converged = true;
                        break;
                    }
                }
            }
        };
        iterations += 1;

        q.load(i);
        q.load(j);
        let (y, ki, kj) = (q.signs(), q.row(i), q.row(j));
        // Q_ij from row i: the prenorm pass does not promise K_ij and K_ji
        // agree bitwise.
        let qij = y[i] * y[j] * ki[q.point(j)];
        let (di, dj) = (q.diag()[i], q.diag()[j]);
        let ci = c[i];
        let cj = c[j];
        let old_ai = alpha[i];
        let old_aj = alpha[j];

        if (y[i] - y[j]).abs() > 0.5 {
            // y_i != y_j
            let mut quad = di + dj + 2.0 * qij;
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (-grad[i] - grad[j]) / quad;
            let diff = alpha[i] - alpha[j];
            alpha[i] += delta;
            alpha[j] += delta;
            if diff > 0.0 {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = -diff;
            }
            if diff > ci - cj {
                if alpha[i] > ci {
                    alpha[i] = ci;
                    alpha[j] = ci - diff;
                }
            } else if alpha[j] > cj {
                alpha[j] = cj;
                alpha[i] = cj + diff;
            }
        } else {
            // y_i == y_j
            let mut quad = di + dj - 2.0 * qij;
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (grad[i] - grad[j]) / quad;
            let sum = alpha[i] + alpha[j];
            alpha[i] -= delta;
            alpha[j] += delta;
            if sum > ci {
                if alpha[i] > ci {
                    alpha[i] = ci;
                    alpha[j] = sum - ci;
                }
            } else if alpha[j] < 0.0 {
                alpha[j] = 0.0;
                alpha[i] = sum;
            }
            if sum > cj {
                if alpha[j] > cj {
                    alpha[j] = cj;
                    alpha[i] = sum - cj;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = sum;
            }
        }

        let dai = alpha[i] - old_ai;
        let daj = alpha[j] - old_aj;
        if dai == 0.0 && daj == 0.0 {
            // Numerical dead-end on this pair; tolerance effectively reached.
            converged = true;
            break;
        }
        // Maintain G over the active set only (the point of shrinking),
        // G_t += Q_it Δa_i + Q_jt Δa_j with each product signed on its own:
        // factoring y_t out of the sum could flip the sign of a zero.
        let (yi_dai, yj_daj) = (y[i] * dai, y[j] * daj);
        let l = ki.len();
        let blocks = grad.chunks_mut(l).zip(active.chunks(l)).zip(y.chunks(l));
        for ((g_block, on_block), y_block) in blocks {
            for ((((g, &on), &yt), &kit), &kjt) in g_block
                .iter_mut()
                .zip(on_block)
                .zip(y_block)
                .zip(ki)
                .zip(kj)
            {
                if on {
                    *g += yt * (kit * yi_dai) + yt * (kjt * yj_daj);
                }
            }
        }
        // …and G̅ over everything when a variable crosses its upper bound.
        let was_ub_i = old_ai >= ci;
        let is_ub_i = alpha[i] >= ci;
        if was_ub_i != is_ub_i {
            let sign = if is_ub_i { 1.0 } else { -1.0 };
            add_signed_row(&mut g_bar, y, ki, sign * ci * y[i]);
        }
        let was_ub_j = old_aj >= cj;
        let is_ub_j = alpha[j] >= cj;
        if was_ub_j != is_ub_j {
            let sign = if is_ub_j { 1.0 } else { -1.0 };
            add_signed_row(&mut g_bar, y, kj, sign * cj * y[j]);
        }
    }

    if n_active < n {
        // Hit the iteration cap while shrunk: make the gradient whole so
        // rho and the objective are computed from consistent values.
        reconstruct_gradient(q, &mut grad, &g_bar, p, c, &alpha, &active);
    }

    let rho = compute_rho(&grad, q.signs(), c, &alpha);

    // Dual objective: 0.5 aᵀQa + pᵀa = 0.5 Σ a_i (G_i + p_i).
    let objective = 0.5
        * alpha
            .iter()
            .zip(grad.iter().zip(p))
            .map(|(a, (g, pi))| a * (g + pi))
            .sum::<f64>();

    // Box feasibility 0 ≤ α_i ≤ C_i is maintained by every clip above;
    // a violation here means the update arithmetic itself went wrong.
    debug_assert!(
        alpha
            .iter()
            .zip(c)
            .all(|(a, ci)| (-1e-12..=ci + 1e-12).contains(a)),
        "SMO produced an alpha outside [0, C]"
    );
    debug_assert!(rho.is_finite(), "SMO produced a non-finite rho");
    debug_assert!(
        objective.is_finite(),
        "SMO produced a non-finite dual objective"
    );

    Solution {
        alpha,
        rho,
        objective,
        iterations,
        converged,
    }
}

/// Whether variable `t` can be confidently removed from the working set
/// (LIBSVM `be_shrunk`): it sits at a bound and its KKT multiplier is
/// strictly on the optimal side of both current extremes.
fn be_shrunk(
    t: usize,
    gmax1: f64,
    gmax2: f64,
    grad: &[f64],
    y: &[f64],
    c: &[f64],
    alpha: &[f64],
) -> bool {
    if alpha[t] >= c[t] {
        if y[t] > 0.0 {
            -grad[t] > gmax1
        } else {
            -grad[t] > gmax2
        }
    } else if alpha[t] <= 0.0 {
        if y[t] > 0.0 {
            grad[t] > gmax2
        } else {
            grad[t] > gmax1
        }
    } else {
        false
    }
}

/// Periodic shrink pass (LIBSVM `do_shrinking`).
#[allow(clippy::too_many_arguments)]
fn do_shrinking(
    q: &mut QMatrix<'_>,
    grad: &mut [f64],
    g_bar: &[f64],
    p: &[f64],
    c: &[f64],
    alpha: &[f64],
    active: &mut [bool],
    n_active: &mut usize,
    unshrunk: &mut bool,
    tolerance: f64,
) {
    let n = grad.len();
    let y = q.signs();
    // m(α) and M(α) over the active set.
    let mut gmax1 = f64::NEG_INFINITY;
    let mut gmax2 = f64::NEG_INFINITY;
    for t in 0..n {
        if !active[t] {
            continue;
        }
        if y[t] > 0.0 {
            if alpha[t] < c[t] && -grad[t] >= gmax1 {
                gmax1 = -grad[t];
            }
            if alpha[t] > 0.0 && grad[t] >= gmax2 {
                gmax2 = grad[t];
            }
        } else {
            if alpha[t] > 0.0 && -grad[t] >= gmax2 {
                gmax2 = -grad[t];
            }
            if alpha[t] < c[t] && grad[t] >= gmax1 {
                gmax1 = grad[t];
            }
        }
    }

    if !*unshrunk && gmax1 + gmax2 <= tolerance * 10.0 {
        // Close to optimal: bring everyone back once so the final
        // convergence check is exact.
        *unshrunk = true;
        reconstruct_gradient(q, grad, g_bar, p, c, alpha, active);
        active.iter_mut().for_each(|a| *a = true);
        *n_active = n;
    }

    let y = q.signs();
    for t in 0..n {
        if active[t] && be_shrunk(t, gmax1, gmax2, grad, y, c, alpha) {
            active[t] = false;
            *n_active -= 1;
        }
    }
}

/// Recomputes G for inactive variables from G̅ and the free variables
/// (LIBSVM `reconstruct_gradient`). Free variables are never shrunk, so
/// their G entries are always current.
fn reconstruct_gradient(
    q: &mut QMatrix<'_>,
    grad: &mut [f64],
    g_bar: &[f64],
    p: &[f64],
    c: &[f64],
    alpha: &[f64],
    active: &[bool],
) {
    let n = grad.len();
    // (point, y_j a_j) of each free variable j, in variable order.
    let free: Vec<(usize, f64)> = (0..n)
        .filter(|&j| alpha[j] > 0.0 && alpha[j] < c[j])
        .map(|j| (q.point(j), q.signs()[j] * alpha[j]))
        .collect();
    for t in 0..n {
        if active[t] {
            continue;
        }
        q.load(t);
        let (yt, kt) = (q.signs()[t], q.row(t));
        let mut g = p[t] + g_bar[t];
        for &(b, yj_aj) in &free {
            g += yt * (kt[b] * yj_aj);
        }
        grad[t] = g;
    }
}

/// Second-order working-set selection (WSS2 from Fan, Chen & Lin 2005),
/// restricted to `active` variables.
///
/// Returns `None` when the maximal KKT violation over the active set is
/// below `tolerance`.
fn select_working_set(
    q: &mut QMatrix<'_>,
    grad: &[f64],
    c: &[f64],
    alpha: &[f64],
    tolerance: f64,
    active: &[bool],
) -> Option<(usize, usize)> {
    let n = grad.len();
    let y = q.signs();
    // i = argmax over I_up of -y_t G_t
    let mut gmax = f64::NEG_INFINITY;
    let mut i_best: Option<usize> = None;
    for t in 0..n {
        if !active[t] {
            continue;
        }
        let in_up = if y[t] > 0.0 {
            alpha[t] < c[t]
        } else {
            alpha[t] > 0.0
        };
        if in_up {
            let v = -y[t] * grad[t];
            if v >= gmax {
                gmax = v;
                i_best = Some(t);
            }
        }
    }
    let i = i_best?;
    q.load(i);
    let (y, ki, diag) = (q.signs(), q.row(i), q.diag());
    let di = diag[i];

    let mut gmax2 = f64::NEG_INFINITY;
    let mut obj_min = f64::INFINITY;
    let mut j_best: Option<usize> = None;
    for (t, ((&yt, &kit), &dt)) in y.iter().zip(ki.iter().cycle()).zip(diag).enumerate() {
        if !active[t] {
            continue;
        }
        let in_low = if yt > 0.0 {
            alpha[t] > 0.0
        } else {
            alpha[t] < c[t]
        };
        if !in_low {
            continue;
        }
        // Stopping criterion tracks max over I_low of y_t G_t, so that
        // gmax + gmax2 = m(α) − M(α), the maximal KKT violation.
        let ygt = yt * grad[t];
        if ygt > gmax2 {
            gmax2 = ygt;
        }
        let grad_diff = gmax + ygt;
        if grad_diff > 0.0 {
            // quad = K_ii + K_tt − 2 K_it = Q_ii + Q_tt − 2 y_i y_t Q_it.
            let mut quad = di + dt - 2.0 * kit;
            if quad <= 0.0 {
                quad = TAU;
            }
            let obj = -(grad_diff * grad_diff) / quad;
            if obj <= obj_min {
                obj_min = obj;
                j_best = Some(t);
            }
        }
    }

    if gmax + gmax2 < tolerance {
        return None;
    }
    j_best.map(|j| (i, j))
}

/// Computes `rho` from the final gradient, as LIBSVM does: average of
/// `y_t G_t` over free variables, else the midpoint of the active bounds.
fn compute_rho(grad: &[f64], y: &[f64], c: &[f64], alpha: &[f64]) -> f64 {
    let n = grad.len();
    let mut upper = f64::INFINITY;
    let mut lower = f64::NEG_INFINITY;
    let mut free_sum = 0.0;
    let mut free_count = 0usize;
    for t in 0..n {
        let yg = y[t] * grad[t];
        if alpha[t] >= c[t] {
            if y[t] < 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else if alpha[t] <= 0.0 {
            if y[t] > 0.0 {
                upper = upper.min(yg);
            } else {
                lower = lower.max(yg);
            }
        } else {
            free_sum += yg;
            free_count += 1;
        }
    }
    if free_count > 0 {
        free_sum / free_count as f64
    } else if upper.is_finite() && lower.is_finite() {
        (upper + lower) / 2.0
    } else if upper.is_finite() {
        // Only one side of the bracket exists (all variables at the same
        // kind of bound); the midpoint would be infinite.
        upper
    } else if lower.is_finite() {
        lower
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::gram_matrix;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Hand-solvable 2-point classification problem: points -1 and +1 on a
    /// line, labels -1 and +1, linear kernel. The dual optimum is
    /// a_0 = a_1 = min(C, 0.5) and the separating function is f(x) = x·w − rho
    /// with rho = 0.
    #[test]
    fn two_point_svc_dual() {
        let points = DenseMatrix::from_nested(vec![vec![-1.0], vec![1.0]]).unwrap();
        let y = vec![-1.0, 1.0];
        let mut q = QMatrix::new(Kernel::Linear, &points, y);
        let p = vec![-1.0, -1.0];
        let c = vec![10.0, 10.0];
        let sol = solve(&mut q, &p, &c, vec![0.0, 0.0], SolveOptions::default());
        assert!(sol.converged);
        assert!((sol.alpha[0] - 0.5).abs() < 1e-6, "alpha = {:?}", sol.alpha);
        assert!((sol.alpha[1] - 0.5).abs() < 1e-6);
        assert!(sol.rho.abs() < 1e-6);
    }

    /// Equality constraint Σ y_i a_i = 0 must hold throughout.
    #[test]
    fn solution_satisfies_equality_constraint() {
        let points = DenseMatrix::from_nested(
            (0..12)
                .map(|i| vec![i as f64 * 0.3, (i as f64 * 0.7).sin()])
                .collect(),
        )
        .unwrap();
        let y: Vec<f64> = (0..12)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut q = QMatrix::new(Kernel::rbf(0.5), &points, y.clone());
        let p = vec![-1.0; 12];
        let c = vec![1.0; 12];
        let sol = solve(&mut q, &p, &c, vec![0.0; 12], SolveOptions::default());
        let balance: f64 = sol.alpha.iter().zip(&y).map(|(a, yi)| a * yi).sum();
        assert!(balance.abs() < 1e-9, "balance = {balance}");
        for (t, a) in sol.alpha.iter().enumerate() {
            assert!(
                *a >= -1e-12 && *a <= 1.0 + 1e-12,
                "alpha[{t}] = {a} out of box"
            );
        }
    }

    /// With a tiny iteration cap the solver reports non-convergence instead
    /// of spinning.
    #[test]
    fn iteration_cap_reported() {
        let points =
            DenseMatrix::from_nested((0..40).map(|i| vec![(i as f64 * 1.37).sin()]).collect())
                .unwrap();
        let y: Vec<f64> = (0..40)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let mut q = QMatrix::new(Kernel::rbf(5.0), &points, y);
        let p = vec![-1.0; 40];
        let c = vec![100.0; 40];
        let sol = solve(
            &mut q,
            &p,
            &c,
            vec![0.0; 40],
            SolveOptions {
                tolerance: 1e-9,
                max_iterations: 2,
                shrinking: true,
            },
        );
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 2);
    }

    /// The dual objective must not increase across a solve with more
    /// iterations allowed (SMO is a descent method).
    #[test]
    fn objective_descends_with_more_iterations() {
        let points = DenseMatrix::from_nested(
            (0..20)
                .map(|i| vec![(i as f64 * 0.9).cos(), (i as f64 * 0.4).sin()])
                .collect(),
        )
        .unwrap();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { -1.0 }).collect();
        let p = vec![-1.0; 20];
        let c = vec![1.0; 20];

        let mut q1 = QMatrix::new(Kernel::rbf(1.0), &points, y.clone());
        let partial = solve(
            &mut q1,
            &p,
            &c,
            vec![0.0; 20],
            SolveOptions {
                tolerance: 1e-3,
                max_iterations: 3,
                shrinking: true,
            },
        );
        let mut q2 = QMatrix::new(Kernel::rbf(1.0), &points, y);
        let full = solve(&mut q2, &p, &c, vec![0.0; 20], SolveOptions::default());
        assert!(full.objective <= partial.objective + 1e-9);
    }

    /// On both layouts (n = l with mixed signs, and the n = 2l ε-SVR
    /// expansion) every signed entry `y_s y_t K` matches the Gram matrix:
    /// bitwise on the exact path, within the prenorm contract (≤1e-12
    /// relative for RBF, bitwise otherwise) on the prenorm path. Each
    /// point's row is computed once however many variables share it.
    #[test]
    fn q_matrix_matches_the_signed_gram_matrix() {
        let points = DenseMatrix::from_nested(
            (0..13)
                .map(|i| {
                    (0..4)
                        .map(|j| ((i * 4 + j) as f64 * 0.53).sin() * 2.5)
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let l = points.rows();
        let mixed: Vec<f64> = (0..l)
            .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let expanded: Vec<f64> = [vec![1.0; l], vec![-1.0; l]].concat();
        for kernel in [Kernel::rbf(0.6), Kernel::Linear] {
            let gram = gram_matrix(kernel, &points);
            for y in [&mixed, &expanded] {
                let n = y.len();
                let signed = |s: usize, t: usize, k: f64| y[s] * y[t] * k;
                let mut exact = QMatrix::new(kernel, &points, y.clone());
                let mut fast = QMatrix::new(kernel, &points, y.clone()).with_prenorm_rows(true);
                assert_eq!(exact.len(), n);
                for s in 0..n {
                    exact.load(s);
                    fast.load(s);
                    assert_eq!(exact.diag()[s], gram.row(s % l)[s % l]);
                    for t in 0..n {
                        let want = signed(s, t, gram.row(s % l)[t % l]);
                        let a = signed(s, t, exact.row(s)[t % l]);
                        let b = signed(s, t, fast.row(s)[t % l]);
                        assert_eq!(a.to_bits(), want.to_bits(), "exact Q[{s}][{t}]");
                        match kernel {
                            Kernel::Rbf { .. } => assert!(
                                (b - want).abs() <= 1e-12 * want.abs().max(1.0),
                                "prenorm Q[{s}][{t}] drifted: {b} vs {want}"
                            ),
                            _ => assert_eq!(b.to_bits(), want.to_bits(), "prenorm Q[{s}][{t}]"),
                        }
                    }
                }
                // Every variable was loaded once: one miss per point, the
                // rest (n − l of them) hits.
                assert_eq!(exact.cache_stats(), ((n - l) as u64, l as u64));
            }
        }
        // Touching three variables on two distinct points costs two misses.
        let mut q = QMatrix::new(Kernel::Linear, &points, expanded);
        for t in [2, l + 2, 5] {
            q.load(t);
        }
        assert_eq!(q.cache_stats(), (1, 2));
    }

    /// The three problem layouts the solver serves.
    #[derive(Debug, Clone, Copy)]
    enum Layout {
        Svr,
        Svc,
        OneClass,
    }

    /// Signs, linear term, bounds and feasible start of `layout`'s dual
    /// over `l` points with per-point `targets` (regression targets, or
    /// class labels by their sign), built as `svr`/`svc`/`oneclass` do.
    fn dual(layout: Layout, targets: &[f64], c: f64) -> [Vec<f64>; 4] {
        let l = targets.len();
        match layout {
            Layout::Svr => {
                let eps = 0.1;
                let p = targets
                    .iter()
                    .map(|t| eps - t)
                    .chain(targets.iter().map(|t| eps + t))
                    .collect();
                let y = [vec![1.0; l], vec![-1.0; l]].concat();
                [y, p, vec![c; 2 * l], vec![0.0; 2 * l]]
            }
            Layout::Svc => {
                let y = targets
                    .iter()
                    .map(|t| if *t > 0.0 { 1.0 } else { -1.0 })
                    .collect();
                [y, vec![-1.0; l], vec![c; l], vec![0.0; l]]
            }
            Layout::OneClass => {
                let budget = 0.5 * l as f64;
                let alpha = (0..l)
                    .map(|t| (budget - t as f64).clamp(0.0, 1.0))
                    .collect();
                [vec![1.0; l], vec![0.0; l], vec![1.0; l], alpha]
            }
        }
    }

    /// Checks a finished solve against the KKT conditions with a gradient
    /// `Qα + p` rebuilt from `gram_matrix`, not the solver's running one,
    /// and returns the dual objective computed from it.
    fn check_kkt(
        case: &str,
        kernel: Kernel,
        points: &DenseMatrix,
        [y, p, c, alpha0]: &[Vec<f64>; 4],
        sol: &Solution,
        tolerance: f64,
    ) -> f64 {
        let (n, l) = (y.len(), points.rows());
        let gram = gram_matrix(kernel, points);
        assert!(sol.converged, "{case}: did not converge");
        for (t, (a, ct)) in sol.alpha.iter().zip(c).enumerate() {
            assert!(
                (-1e-12..=ct + 1e-12).contains(a),
                "{case}: alpha[{t}] = {a} outside [0, {ct}]"
            );
        }
        let balance = |alpha: &[f64]| alpha.iter().zip(y).map(|(a, yt)| a * yt).sum::<f64>();
        let drift = balance(&sol.alpha) - balance(alpha0);
        assert!(drift.abs() <= 1e-9, "{case}: yᵀα drifted by {drift}");

        let grad: Vec<f64> = (0..n)
            .map(|t| {
                let krow = gram.row(t % l);
                p[t] + (0..n)
                    .map(|s| y[t] * y[s] * krow[s % l] * sol.alpha[s])
                    .sum::<f64>()
            })
            .collect();
        // m(α) over I_up and M(α) over I_low of −y_t G_t.
        let (mut m_up, mut m_low) = (f64::NEG_INFINITY, f64::INFINITY);
        for t in 0..n {
            let v = -y[t] * grad[t];
            let (below_c, above_0) = (sol.alpha[t] < c[t], sol.alpha[t] > 0.0);
            let (up, low) = if y[t] > 0.0 {
                (below_c, above_0)
            } else {
                (above_0, below_c)
            };
            if up {
                m_up = m_up.max(v);
            }
            if low {
                m_low = m_low.min(v);
            }
        }
        let violation = m_up - m_low;
        assert!(
            violation <= tolerance + 1e-9,
            "{case}: KKT violation {violation} above tolerance {tolerance}"
        );
        0.5 * sol
            .alpha
            .iter()
            .zip(grad.iter().zip(p))
            .map(|(a, (g, pt))| a * (g + pt))
            .sum::<f64>()
    }

    /// Solver oracle: on small random problems of every layout, including
    /// duplicate rows and a constant column, the solve converges to a
    /// box-feasible, balance-preserving point that meets the KKT tolerance
    /// under an independently rebuilt gradient, and its dual objective
    /// does not depend on the order of the rows beyond what the tolerance
    /// allows. A point within KKT violation τ is at most τ·ΣC above the
    /// optimum, so two such points differ by at most that.
    #[test]
    fn solver_oracle_holds_on_random_problems() {
        let options = SolveOptions::default();
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let layout = [Layout::Svr, Layout::Svc, Layout::OneClass][seed as usize % 3];
            let (l, d) = (rng.gen_range(4..=18usize), rng.gen_range(1..=4usize));
            let mut rows: Vec<Vec<f64>> = (0..l)
                .map(|_| (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            // A duplicate row and a constant column.
            rows[l - 1] = rows[0].clone();
            for row in &mut rows {
                row[0] = 0.75;
            }
            let targets: Vec<f64> = (0..l).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let kernel = if seed % 4 == 3 {
                Kernel::Linear
            } else {
                Kernel::rbf(rng.gen_range(0.1..2.0))
            };
            let c = rng.gen_range(0.1..10.0);
            let prenorm = seed % 2 == 0;

            let mut order: Vec<usize> = (0..l).collect();
            let mut objectives = Vec::new();
            for pass in 0..2 {
                if pass == 1 {
                    order.shuffle(&mut rng);
                }
                let points =
                    DenseMatrix::from_nested(order.iter().map(|&i| rows[i].clone()).collect())
                        .unwrap();
                let t: Vec<f64> = order.iter().map(|&i| targets[i]).collect();
                let problem = dual(layout, &t, c);
                let [y, p, bounds, alpha0] = &problem;
                let mut q = QMatrix::new(kernel, &points, y.clone()).with_prenorm_rows(prenorm);
                let sol = solve(&mut q, p, bounds, alpha0.clone(), options);
                let case = format!("seed {seed} {layout:?} pass {pass}");
                objectives.push(check_kkt(
                    &case,
                    kernel,
                    &points,
                    &problem,
                    &sol,
                    options.tolerance,
                ));
            }
            let scale = options.tolerance * dual(layout, &targets, c)[2].iter().sum::<f64>();
            let gap = (objectives[0] - objectives[1]).abs();
            assert!(
                gap <= scale + 1e-9,
                "seed {seed} {layout:?}: permuting rows moved the dual objective by {gap} > {scale}"
            );
        }
    }
}

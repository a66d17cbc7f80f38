//! Sparse inverse-NDFT by proximal gradient descent — the paper's
//! Algorithm 1 (§6.2).
//!
//! The inversion problem is under-determined (tens of measurements, hundreds
//! of grid delays), so Chronos regularizes it with an L1 penalty that favors
//! profiles with few dominant paths:
//!
//! ```text
//! minimize  || h - F p ||_2^2  +  alpha * || p ||_1
//! ```
//!
//! The solver alternates a gradient step on the smooth term with a complex
//! soft-threshold (the paper's SPARSIFY): magnitudes shrink by the
//! threshold, phases are preserved, and anything below the threshold
//! becomes exactly zero. We also provide FISTA acceleration (Nesterov
//! momentum) as a documented extension — same fixed points, fewer
//! iterations — selectable via [`IstaConfig::accelerated`].

use crate::ndft::Ndft;
use chronos_math::cmatrix::CMat;
use chronos_math::cvec;
use chronos_math::Complex64;

/// Solver settings.
#[derive(Debug, Clone, Copy)]
pub struct IstaConfig {
    /// Sparsity weight relative to `max |F* h|`. 0 disables shrinkage;
    /// 1 zeroes every component on the first step.
    pub alpha_rel: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Convergence threshold on `||p_{t+1} - p_t||_2` (the paper's
    /// epsilon), relative to `||p_t||_2 + 1`.
    pub epsilon: f64,
    /// Enable FISTA momentum.
    pub accelerated: bool,
}

impl Default for IstaConfig {
    fn default() -> Self {
        IstaConfig {
            alpha_rel: 0.12,
            max_iters: 400,
            epsilon: 1e-6,
            accelerated: true,
        }
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone)]
pub struct IstaSolution {
    /// The sparse profile over the NDFT's delay grid.
    pub p: Vec<Complex64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the epsilon criterion was met before the cap.
    pub converged: bool,
    /// Final data-fit residual `||h - F p||_2`.
    pub residual: f64,
}

/// Complex soft-threshold: shrinks magnitude by `t`, zeroing anything
/// smaller (the paper's SPARSIFY function, generalized to complex values).
pub fn sparsify(p: &mut [Complex64], t: f64) {
    if t <= 0.0 {
        return;
    }
    for z in p.iter_mut() {
        let mag = z.abs();
        if mag <= t {
            *z = Complex64::ZERO;
        } else {
            *z = z.scale((mag - t) / mag);
        }
    }
}

/// [`sparsify`] on one value, with a squared-magnitude pre-test in
/// front of `hypot` — the shrink of the fused FISTA step
/// ([`Ndft::fused_prox_step`]).
///
/// The pre-test zeroes `z` without `hypot` when
/// `re*re + im*im < t²·(1 − 2⁻²⁰)`. That decision is always the one
/// `sparsify` makes (`|z| <= t`, zero): the computed square sum is
/// within a relative `2·2⁻⁵³` of `|z|²` (plus absolute underflow error
/// below `2⁻¹⁰⁷³`, negligible against a normal `t²`), the computed bound
/// within `2·2⁻⁵³` of `t²·(1 − 2⁻²⁰)`, so a passing bin has
/// `|z| < t·(1 − 2⁻²²)` and even a `hypot` a few ulp off returns a
/// magnitude `<= t`. Bins that fail the test — near or above the
/// threshold, or with NaN/infinite parts — take `sparsify`'s own
/// arithmetic. The pre-test is off when `t²` is not a normal number
/// (subnormal, zero, infinite or NaN), where that error bound fails.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SoftThreshold {
    t: f64,
    /// Pre-test bound `t²·(1 − 2⁻²⁰)`, or `-inf` when the pre-test is off.
    t2_lo: f64,
}

impl SoftThreshold {
    /// Relative margin of the pre-test bound below `t²`.
    const MARGIN: f64 = 1.0 / 1_048_576.0;

    pub(crate) fn new(t: f64) -> Self {
        let t2 = t * t;
        let t2_lo = if t2.is_normal() {
            t2 * (1.0 - Self::MARGIN)
        } else {
            f64::NEG_INFINITY
        };
        SoftThreshold { t, t2_lo }
    }

    /// The soft-threshold of `(re, im)`, bit for bit `sparsify`'s.
    #[inline(always)]
    pub(crate) fn apply(&self, re: f64, im: f64) -> (f64, f64) {
        if self.t <= 0.0 {
            return (re, im);
        }
        if re * re + im * im < self.t2_lo {
            return (0.0, 0.0);
        }
        let mag = re.hypot(im);
        if mag <= self.t {
            (0.0, 0.0)
        } else {
            let s = (mag - self.t) / mag;
            (re * s, im * s)
        }
    }
}

/// Reusable solver buffers: the iterate, extrapolation point and
/// forward image [`solve_planned_into`] works in.
///
/// Allocated once (typically per engine worker, inside a
/// [`crate::pipeline::SweepPipeline`]); every later solve of any size up
/// to the largest seen reuses the capacity, so steady-state inversions
/// perform **zero heap allocations**.
#[derive(Debug, Clone, Default)]
pub struct IstaScratch {
    /// Current iterate; holds the solution after a solve.
    p: Vec<Complex64>,
    /// FISTA extrapolation point (the data's adjoint image before the
    /// first iteration).
    y: Vec<Complex64>,
    /// Forward image / residual buffer (measurement length).
    fy: Vec<Complex64>,
}

impl IstaScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The sparse profile produced by the most recent
    /// [`solve_planned_into`] call.
    pub fn solution(&self) -> &[Complex64] {
        &self.p
    }
}

/// Scalar outcome of a scratch solve; the profile stays in the scratch.
#[derive(Debug, Clone, Copy)]
pub struct IstaStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the epsilon criterion was met before the cap.
    pub converged: bool,
    /// Final data-fit residual `||h - F p||_2`.
    pub residual: f64,
}

/// Runs the sparse inversion of `h` under the operator `ndft`.
///
/// Computes the operator norm by power iteration on every call; when the
/// same operator is inverted repeatedly (every sweep of every client),
/// use [`solve_planned`] with a shared [`crate::plan::NdftPlan`] instead —
/// it produces bit-identical solutions without the per-call norm.
pub fn solve(ndft: &Ndft, h: &[Complex64], cfg: &IstaConfig) -> IstaSolution {
    solve_with_norm(ndft, h, cfg, ndft.op_norm(crate::plan::OP_NORM_ITERS))
}

/// Sparse inversion reusing a precomputed plan (see
/// [`crate::plan::PlanCache`]). Identical arithmetic to [`solve`]; the
/// plan only supplies the already-computed spectral norm.
pub fn solve_planned(
    plan: &crate::plan::NdftPlan,
    h: &[Complex64],
    cfg: &IstaConfig,
) -> IstaSolution {
    solve_with_norm(&plan.ndft, h, cfg, plan.op_norm)
}

/// [`solve_planned`] into a reusable scratch arena: identical arithmetic
/// (bit for bit — pinned by a proptest in `tests/alloc.rs`), zero heap
/// allocations once the scratch has seen the problem size. The solution
/// is read from [`IstaScratch::solution`].
pub fn solve_planned_into(
    plan: &crate::plan::NdftPlan,
    h: &[Complex64],
    cfg: &IstaConfig,
    scratch: &mut IstaScratch,
) -> IstaStats {
    solve_with_norm_into(&plan.ndft, h, cfg, plan.op_norm, scratch)
}

/// The shared solver body: proximal gradient with the step size derived
/// from the supplied spectral norm.
fn solve_with_norm(ndft: &Ndft, h: &[Complex64], cfg: &IstaConfig, op_norm: f64) -> IstaSolution {
    let mut scratch = IstaScratch::new();
    let stats = solve_with_norm_into(ndft, h, cfg, op_norm, &mut scratch);
    IstaSolution {
        p: scratch.p,
        iterations: stats.iterations,
        converged: stats.converged,
        residual: stats.residual,
    }
}

/// The solver body over caller-provided buffers. Each iteration is the
/// support-restricted forward `F y - h` plus one fused grid pass
/// ([`Ndft::fused_prox_step`]) that updates `p` and `y` in place; all
/// arithmetic — order included — matches the historical
/// per-iteration-allocating loop exactly.
fn solve_with_norm_into(
    ndft: &Ndft,
    h: &[Complex64],
    cfg: &IstaConfig,
    op_norm: f64,
    scratch: &mut IstaScratch,
) -> IstaStats {
    let m = ndft.n_taus();
    assert_eq!(
        h.len(),
        ndft.n_freqs(),
        "solve: measurement length mismatch"
    );

    // Step size: 1 / L with L = 2 ||F||^2 (gradient of ||h - Fp||^2 is
    // 2 F*(Fp - h)); power iteration gives ||F||.
    let op_norm = op_norm.max(1e-12);
    let gamma = 1.0 / (2.0 * op_norm * op_norm);

    let IstaScratch { p, y, fy, .. } = scratch;
    // Threshold from the adjoint image of the data: alpha_rel = 1 would
    // zero the first iterate entirely.
    ndft.adjoint_into(h, y);
    let alpha = cfg.alpha_rel * cvec::norm_inf(y) * 2.0; // matches L scaling
    let thresh = gamma * alpha;

    p.clear();
    p.resize(m, Complex64::ZERO);
    y.clear();
    y.resize(m, Complex64::ZERO); // FISTA extrapolation point
    let g2 = 2.0 * gamma;
    let mut t_momentum = 1.0f64;
    let mut iterations = 0;
    let mut converged = false;

    for _ in 0..cfg.max_iters {
        iterations += 1;
        // Gradient step at y: y - gamma * 2 F*(F y - h).
        ndft.forward_into(y, fy);
        for (r, hi) in fy.iter_mut().zip(h.iter()) {
            *r -= *hi;
        }
        let beta = cfg.accelerated.then(|| {
            let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t_momentum * t_momentum).sqrt());
            let beta = (t_momentum - 1.0) / t_next;
            t_momentum = t_next;
            beta
        });
        let (delta2, pnorm2) = ndft.fused_prox_step(fy, g2, thresh, beta, p, y);
        if delta2.sqrt() < cfg.epsilon * (pnorm2.sqrt() + 1.0) {
            converged = true;
            break;
        }
    }

    ndft.forward_into(p, fy);
    for (r, hi) in fy.iter_mut().zip(h.iter()) {
        *r -= *hi;
    }
    let residual = cvec::norm2(fy);

    IstaStats {
        iterations,
        converged,
        residual,
    }
}

/// LASSO **debiasing**: refits the amplitudes of the detected support by
/// unpenalized least squares, undoing the soft-threshold's shrinkage bias.
///
/// The L1 penalty that makes support detection work also shrinks every
/// surviving amplitude by roughly the threshold — enough to push a weak
/// direct path below the peak-dominance cut, and to leave spurious sidelobe
/// atoms with inflated relative weight. The standard cure is a two-step
/// estimator: keep ISTA's support, solve `min ||h - F_S w||_2` on it.
///
/// At most `max_atoms` strongest support atoms are refit (the system must
/// stay overdetermined: `max_atoms <= n_freqs / 2` is sensible), separated
/// by at least `min_sep` grid bins to avoid near-collinear columns. The
/// returned vector is zero off the refit support.
pub fn debias(
    ndft: &Ndft,
    h: &[Complex64],
    p: &[Complex64],
    max_atoms: usize,
    min_sep: usize,
) -> Vec<Complex64> {
    let mut ws = DebiasScratch::default();
    let mut out = Vec::new();
    debias_into(ndft, h, p, max_atoms, min_sep, &mut ws, &mut out);
    out
}

/// Reusable working storage for [`debias_into`]: support ranking, the
/// atom matrix and the least-squares workspace.
#[derive(Debug, Clone, Default)]
pub struct DebiasScratch {
    idx: Vec<usize>,
    chosen: Vec<usize>,
    atoms: CMat,
    lstsq: chronos_math::cmatrix::CLstsqScratch,
    w: Vec<Complex64>,
}

/// [`debias`] into a reusable workspace and output buffer — identical
/// results, zero heap allocations once the buffers have seen the problem
/// size.
pub fn debias_into(
    ndft: &Ndft,
    h: &[Complex64],
    p: &[Complex64],
    max_atoms: usize,
    min_sep: usize,
    ws: &mut DebiasScratch,
    out: &mut Vec<Complex64>,
) {
    assert_eq!(p.len(), ndft.n_taus(), "debias: profile length mismatch");
    // Rank support by magnitude (ties broken by grid index, which the
    // filter produced in ascending order — the stable-sort order).
    ws.idx.clear();
    ws.idx.extend((0..p.len()).filter(|k| p[*k].abs() > 1e-12));
    ws.idx.sort_unstable_by(|a, b| {
        p[*b]
            .abs()
            .partial_cmp(&p[*a].abs())
            .unwrap()
            .then(a.cmp(b))
    });
    let chosen = &mut ws.chosen;
    chosen.clear();
    for k in ws.idx.iter().copied() {
        if chosen.len() >= max_atoms {
            break;
        }
        if chosen.iter().all(|c| c.abs_diff(k) >= min_sep.max(1)) {
            chosen.push(k);
        }
    }
    if chosen.is_empty() {
        out.clear();
        out.resize(p.len(), Complex64::ZERO);
        return;
    }
    chosen.sort_unstable();

    // Build the atom matrix: columns are steering vectors at the chosen
    // grid delays.
    let grid = ndft.grid();
    ws.atoms.reset(ndft.n_freqs(), chosen.len());
    for (j, k) in chosen.iter().enumerate() {
        let tau_s = grid.tau_at(*k) * 1e-9;
        for (i, f) in ndft.freqs_hz().iter().enumerate() {
            ws.atoms.set(
                i,
                j,
                Complex64::cis(-2.0 * std::f64::consts::PI * f * tau_s),
            );
        }
    }
    match ws.atoms.lstsq_into(h, &mut ws.lstsq, &mut ws.w) {
        Ok(()) => {
            out.clear();
            out.resize(p.len(), Complex64::ZERO);
            for (k, wi) in chosen.iter().zip(ws.w.iter()) {
                out[*k] = *wi;
            }
        }
        // Refit can fail for pathological supports; fall back to the
        // biased estimate rather than nothing.
        Err(_) => {
            out.clear();
            out.extend_from_slice(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndft::TauGrid;
    use chronos_rf::bands::band_plan_5ghz;
    use std::f64::consts::PI;

    fn freqs() -> Vec<f64> {
        band_plan_5ghz().iter().map(|b| b.center_hz).collect()
    }

    fn channel_for(paths: &[(f64, f64)], freqs: &[f64]) -> Vec<Complex64> {
        freqs
            .iter()
            .map(|f| {
                let mut h = Complex64::ZERO;
                for (tau_ns, a) in paths {
                    h += Complex64::from_polar(*a, -2.0 * PI * f * tau_ns * 1e-9);
                }
                h
            })
            .collect()
    }

    #[test]
    fn sparsify_behaviour() {
        let mut p = vec![
            Complex64::from_polar(1.0, 0.3),
            Complex64::from_polar(0.05, -1.0),
            Complex64::ZERO,
        ];
        sparsify(&mut p, 0.1);
        assert!((p[0].abs() - 0.9).abs() < 1e-12);
        assert!((p[0].arg() - 0.3).abs() < 1e-12, "phase must be preserved");
        assert_eq!(p[1], Complex64::ZERO);
        assert_eq!(p[2], Complex64::ZERO);
        // Zero threshold is a no-op.
        let mut q = vec![Complex64::from_polar(0.5, 1.0)];
        sparsify(&mut q, 0.0);
        assert!((q[0].abs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recovers_single_path_on_grid() {
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(10.0, 1.0)], &f);
        let sol = solve(&ndft, &h, &IstaConfig::default());
        // The largest component must sit at tau = 10 ns (index 20).
        let (idx, _) = sol
            .p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert_eq!(idx, 20, "peak at {} ns", grid.tau_at(idx));
        assert!(sol.residual < 0.3 * (f.len() as f64).sqrt());
    }

    #[test]
    fn recovers_three_paths_fig4() {
        // The paper's Fig. 4 scenario: 5.2, 10, 16 ns with falling power.
        let f = freqs();
        let grid = TauGrid::span(40.0, 0.2);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(5.2, 1.0), (10.0, 0.7), (16.0, 0.4)], &f);
        let sol = solve(
            &ndft,
            &h,
            &IstaConfig {
                alpha_rel: 0.08,
                ..Default::default()
            },
        );
        let mags: Vec<f64> = sol.p.iter().map(|z| z.abs()).collect();
        let peaks = chronos_math::peaks::find_peaks(
            &mags,
            0.0,
            0.2,
            &chronos_math::peaks::PeakConfig {
                dominance: 0.2,
                min_separation: 4,
            },
        );
        assert!(peaks.len() >= 3, "found {} peaks", peaks.len());
        assert!((peaks[0].x - 5.2).abs() < 0.4, "first peak {}", peaks[0].x);
        // Find peaks near 10 and 16.
        assert!(peaks.iter().any(|p| (p.x - 10.0).abs() < 0.5));
        assert!(peaks.iter().any(|p| (p.x - 16.0).abs() < 0.6));
    }

    #[test]
    fn solution_is_sparse() {
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(7.0, 1.0), (22.0, 0.5)], &f);
        let sol = solve(&ndft, &h, &IstaConfig::default());
        let nonzero = sol.p.iter().filter(|z| z.abs() > 1e-9).count();
        // 200 grid points, but only a handful alive.
        assert!(nonzero < 30, "nonzero {nonzero}");
        assert!(nonzero >= 2);
    }

    #[test]
    fn larger_alpha_is_sparser() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(5.0, 1.0), (9.0, 0.6), (14.0, 0.3), (20.0, 0.2)], &f);
        let count = |alpha: f64| {
            let sol = solve(
                &ndft,
                &h,
                &IstaConfig {
                    alpha_rel: alpha,
                    ..Default::default()
                },
            );
            sol.p.iter().filter(|z| z.abs() > 1e-9).count()
        };
        assert!(
            count(0.4) <= count(0.05),
            "{} > {}",
            count(0.4),
            count(0.05)
        );
    }

    #[test]
    fn ista_and_fista_agree() {
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(12.0, 1.0), (19.0, 0.5)], &f);
        let plain = solve(
            &ndft,
            &h,
            &IstaConfig {
                accelerated: false,
                max_iters: 4000,
                epsilon: 1e-9,
                ..Default::default()
            },
        );
        let fast = solve(
            &ndft,
            &h,
            &IstaConfig {
                accelerated: true,
                max_iters: 4000,
                epsilon: 1e-9,
                ..Default::default()
            },
        );
        // Peak locations agree.
        let argmax = |p: &[Complex64]| {
            p.iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(argmax(&plain.p), argmax(&fast.p));
        // FISTA converges in fewer iterations.
        assert!(
            fast.iterations <= plain.iterations,
            "{} vs {}",
            fast.iterations,
            plain.iterations
        );
    }

    #[test]
    fn noise_does_not_create_spurious_dominant_peaks() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let mut h = channel_for(&[(8.0, 1.0)], &f);
        // Deterministic pseudo-noise at ~5% amplitude.
        for (i, z) in h.iter_mut().enumerate() {
            *z += Complex64::from_polar(0.05, (i as f64 * 2.399) % (2.0 * PI));
        }
        let sol = solve(&ndft, &h, &IstaConfig::default());
        let mags: Vec<f64> = sol.p.iter().map(|z| z.abs()).collect();
        let peaks = chronos_math::peaks::find_peaks(
            &mags,
            0.0,
            0.5,
            &chronos_math::peaks::PeakConfig {
                dominance: 0.3,
                min_separation: 3,
            },
        );
        assert_eq!(peaks.len(), 1, "spurious peaks: {peaks:?}");
        assert!((peaks[0].x - 8.0).abs() < 0.5);
    }

    #[test]
    fn empty_measurement_panics_cleanly() {
        let ndft = Ndft::new(&[5e9], TauGrid::span(10.0, 1.0));
        let sol = solve(&ndft, &[Complex64::ZERO], &IstaConfig::default());
        // All-zero input: all-zero output, converged.
        assert!(sol.p.iter().all(|z| *z == Complex64::ZERO));
        assert!(sol.converged);
    }

    /// A literal transcription of the pre-refactor solver loop (fresh
    /// `Vec` per iteration, `clone()`-based FISTA extrapolation), kept
    /// only to pin the fused solver bit for bit.
    fn reference_solve(
        ndft: &Ndft,
        h: &[Complex64],
        cfg: &IstaConfig,
        op_norm: f64,
    ) -> IstaSolution {
        let m = ndft.n_taus();
        let op_norm = op_norm.max(1e-12);
        let gamma = 1.0 / (2.0 * op_norm * op_norm);
        let atb = ndft.adjoint(h);
        let alpha = cfg.alpha_rel * chronos_math::cvec::norm_inf(&atb) * 2.0;
        let thresh = gamma * alpha;
        let mut p = vec![Complex64::ZERO; m];
        let mut y = p.clone();
        let mut t_momentum = 1.0f64;
        let mut iterations = 0;
        let mut converged = false;
        for _ in 0..cfg.max_iters {
            iterations += 1;
            let fy = ndft.forward(&y);
            let mut resid = fy;
            for (r, hi) in resid.iter_mut().zip(h.iter()) {
                *r -= *hi;
            }
            let grad = ndft.adjoint(&resid);
            let mut next: Vec<Complex64> = y
                .iter()
                .zip(grad.iter())
                .map(|(yi, gi)| *yi - gi.scale(2.0 * gamma))
                .collect();
            sparsify(&mut next, thresh);
            let delta = chronos_math::cvec::dist2(&next, &p);
            let scale = chronos_math::cvec::norm2(&p) + 1.0;
            if cfg.accelerated {
                let t_next = 0.5 * (1.0 + (1.0 + 4.0 * t_momentum * t_momentum).sqrt());
                let beta = (t_momentum - 1.0) / t_next;
                y = next
                    .iter()
                    .zip(p.iter())
                    .map(|(n, o)| *n + (*n - *o).scale(beta))
                    .collect();
                t_momentum = t_next;
            } else {
                y = next.clone();
            }
            p = next;
            if delta < cfg.epsilon * scale {
                converged = true;
                break;
            }
        }
        let fit = ndft.forward(&p);
        let mut resid = fit;
        for (r, hi) in resid.iter_mut().zip(h.iter()) {
            *r -= *hi;
        }
        let residual = chronos_math::cvec::norm2(&resid);
        IstaSolution {
            p,
            iterations,
            converged,
            residual,
        }
    }

    #[test]
    fn ping_pong_buffers_pin_reference_convergence() {
        // Bitwise contract: the in-place fused FISTA iteration must
        // reproduce the clone-per-iteration reference exactly — same
        // iterates, same iteration count, same residual — for both the
        // accelerated and plain solvers, including a reused scratch.
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let plan = crate::plan::NdftPlan::new(&f, grid, 60.0);
        let mut scratch = IstaScratch::new();
        for accelerated in [true, false] {
            let cfg = IstaConfig {
                accelerated,
                ..Default::default()
            };
            for paths in [
                vec![(9.0, 1.0), (14.0, 0.5)],
                vec![(5.5, 0.4), (21.0, 1.0), (33.0, 0.3)],
            ] {
                let h = channel_for(&paths, &f);
                let want = reference_solve(&plan.ndft, &h, &cfg, plan.op_norm);
                let stats = solve_planned_into(&plan, &h, &cfg, &mut scratch);
                assert_eq!(stats.iterations, want.iterations, "acc={accelerated}");
                assert_eq!(stats.converged, want.converged);
                assert_eq!(stats.residual.to_bits(), want.residual.to_bits());
                assert_eq!(scratch.solution().len(), want.p.len());
                for (a, b) in scratch.solution().iter().zip(want.p.iter()) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }
    }

    /// The 2.4 GHz group's band centers (inverted at delay scale 8).
    fn freqs_24() -> Vec<f64> {
        chronos_rf::bands::band_plan()
            .iter()
            .filter(|b| b.group.is_2g4())
            .map(|b| b.center_hz)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(3))]

        /// Bitwise contract at the production shape (800 bins of
        /// 0.25 ns): the fused solver reproduces the historical loop bit
        /// for bit on random multipath channels plus noise, for the
        /// 24-band 5 GHz group and the 11-band 2.4 GHz group at delay
        /// scale 8, with and without momentum, across thresholds — solves
        /// that stop at the 400-iteration cap included.
        #[test]
        fn fused_solver_matches_reference_at_production_shape(
            paths in proptest::collection::vec((1.0f64..22.0, 0.05f64..1.0, -PI..PI), 1..5),
            noise in proptest::collection::vec((0.0f64..0.05, -PI..PI), 24..25),
        ) {
            let grid = TauGrid::span(200.0, 0.25);
            let mut scratch = IstaScratch::new();
            let mut cap_hits = 0;
            for (f, scale) in [(freqs(), 2.0), (freqs_24(), 8.0)] {
                let plan = crate::plan::NdftPlan::new(&f, grid, 60.0);
                let h: Vec<Complex64> = f
                    .iter()
                    .zip(noise.iter())
                    .map(|(fi, (na, nph))| {
                        paths.iter().fold(Complex64::from_polar(*na, *nph), |acc, (tof, a, ph)| {
                            acc + Complex64::from_polar(*a, ph - 2.0 * PI * fi * scale * tof * 1e-9)
                        })
                    })
                    .collect();
                for accelerated in [true, false] {
                    for alpha_rel in [0.0, 0.12, 0.5] {
                        let cfg = IstaConfig {
                            alpha_rel,
                            accelerated,
                            max_iters: 400,
                            ..Default::default()
                        };
                        let want = reference_solve(&plan.ndft, &h, &cfg, plan.op_norm);
                        let got = solve_planned_into(&plan, &h, &cfg, &mut scratch);
                        let case = format!("bands={} acc={accelerated} alpha={alpha_rel}", f.len());
                        proptest::prop_assert_eq!(got.iterations, want.iterations, "{}", case);
                        proptest::prop_assert_eq!(got.converged, want.converged, "{}", case);
                        proptest::prop_assert_eq!(got.residual.to_bits(), want.residual.to_bits(), "{}", case);
                        for (k, (a, b)) in scratch.solution().iter().zip(want.p.iter()).enumerate() {
                            proptest::prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "{} bin {}", case, k);
                            proptest::prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "{} bin {}", case, k);
                        }
                        cap_hits += usize::from(!want.converged);
                    }
                }
            }
            proptest::prop_assert!(cap_hits > 0, "no solve reached the iteration cap");
        }
    }

    #[test]
    fn fused_shrink_matches_sparsify_at_the_threshold() {
        // The fused step's keep/zero/shrink decision must be `sparsify`'s,
        // bit for bit, where it is hardest to get right: magnitudes a few
        // ulp either side of the threshold and of the pre-test bound,
        // thresholds whose square is not normal, and non-finite parts.
        // A threshold whose square is subnormal also gets a constructed
        // value that only the disabled pre-test gets right.
        // `k` ulp up (or down, for negative `k`) from a positive finite `x`.
        let up = |x: f64, k: i64| f64::from_bits(x.to_bits().wrapping_add_signed(k));
        let thresholds = [
            0.37,
            1.0,
            3.0e-3,
            f64::MIN_POSITIVE.sqrt(), // t² at the normal boundary
            1.0e-160,                 // t² subnormal
            1.0e-170,                 // t² underflows to zero
            1.0e160,                  // t² overflows
            0.0,
            -0.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for t in thresholds {
            let mut values = vec![
                Complex64::ZERO,
                Complex64::new(-0.0, 0.0),
                Complex64::new(0.0, -0.0),
                Complex64::new(5e-324, 0.0),
                Complex64::new(1e300, -1e300),
                Complex64::new(f64::NAN, 0.0),
                Complex64::new(0.0, f64::NAN),
                Complex64::new(f64::INFINITY, 0.0),
                Complex64::new(f64::NEG_INFINITY, 1.0),
                Complex64::new(f64::INFINITY, f64::NAN),
                Complex64::new(f64::NAN, f64::NEG_INFINITY),
                Complex64::new(f64::INFINITY, f64::INFINITY),
            ];
            if t.is_finite() && t > 0.0 {
                // |z| = t·(1 ± k ulp), on the axes (hypot exact) and on
                // the diagonal (hypot rounded).
                let pre = t * (1.0 - SoftThreshold::MARGIN).sqrt();
                for centre in [t, pre] {
                    for k in -4..=4 {
                        let r = up(centre, k);
                        let d = up(centre / std::f64::consts::SQRT_2, k);
                        values.push(Complex64::new(r, 0.0));
                        values.push(Complex64::new(0.0, -r));
                        // A shrunk part keeps the sign of its zero.
                        values.push(Complex64::new(r, -0.0));
                        values.push(Complex64::new(-d, d));
                        values.push(Complex64::new(d, up(d, 1)));
                    }
                    for rel in [-1e-6, -1e-9, 1e-9, 1e-6] {
                        let d = centre * (1.0 + rel) / std::f64::consts::SQRT_2;
                        values.push(Complex64::new(d, -d));
                    }
                }
            }
            check_against_sparsify(t, &values);
        }
        let (a, t) = subnormal_square_trap();
        assert!(a * a + a * a < t * t && a.hypot(a) > t);
        check_against_sparsify(t, &[Complex64::new(a, a), Complex64::new(-a, a)]);
    }

    /// Runs the fused step with a zero residual, so its gradient is +0
    /// and it reduces to `p = SPARSIFY(y)`, and compares with `sparsify`.
    fn check_against_sparsify(t: f64, values: &[Complex64]) {
        let mut want = values.to_vec();
        sparsify(&mut want, t);
        let grid = TauGrid {
            start_ns: 0.0,
            step_ns: 1.0,
            len: values.len(),
        };
        let ndft = Ndft::new(&[5.0e9, 5.5e9], grid);
        let fy = [Complex64::ZERO; 2];
        let mut p = vec![Complex64::ZERO; values.len()];
        let mut y = values.to_vec();
        ndft.fused_prox_step(&fy, 0.5, t, None, &mut p, &mut y);
        // Bits must match, except that any NaN matches any NaN: Rust
        // leaves the sign and payload of a NaN result unspecified, and
        // the optimizer may commute the operands that choose them.
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        for (k, ((got, want), z)) in p.iter().zip(want.iter()).zip(values.iter()).enumerate() {
            assert!(
                same(got.re, want.re) && same(got.im, want.im),
                "t={t:e} value {k}: {z} -> {got} vs sparsify {want}"
            );
        }
    }

    #[test]
    fn fused_step_matches_unfused_iteration() {
        // One iteration from a dense mid-solve state, with and without
        // momentum: the fused pass against the historical sequence of
        // adjoint, gradient step, SPARSIFY, dist2, norm2 and
        // extrapolation — every output bit, the two sums included.
        let f = freqs();
        let grid = TauGrid::span(200.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(9.0, 1.0), (14.0, 0.5), (30.0, 0.2)], &f);
        let wave = |k: usize, a: f64, b: f64| {
            Complex64::from_polar(a * (1.0 + (b * k as f64).sin()), 0.7 * k as f64)
        };
        let p0: Vec<Complex64> = (0..grid.len).map(|k| wave(k, 0.01, 0.013)).collect();
        let y0: Vec<Complex64> = (0..grid.len).map(|k| wave(k, 0.012, 0.029)).collect();
        let mut fy = ndft.forward(&y0);
        for (r, hi) in fy.iter_mut().zip(h.iter()) {
            *r -= *hi;
        }
        let g2 = 2.0 / (2.0 * ndft.op_norm(40).powi(2));
        let thresh = 0.01;
        for beta in [Some(0.37), None] {
            let grad = ndft.adjoint(&fy);
            let mut next: Vec<Complex64> = y0
                .iter()
                .zip(grad.iter())
                .map(|(yi, gi)| *yi - gi.scale(g2))
                .collect();
            sparsify(&mut next, thresh);
            let survivors = next.iter().filter(|z| **z != Complex64::ZERO).count();
            assert!(survivors > 100 && survivors < 700, "survivors {survivors}");
            let delta = cvec::dist2(&next, &p0);
            let scale = cvec::norm2(&p0);
            let y_want: Vec<Complex64> = match beta {
                Some(b) => next
                    .iter()
                    .zip(p0.iter())
                    .map(|(n, o)| *n + (*n - *o).scale(b))
                    .collect(),
                None => next.clone(),
            };

            let (mut p, mut y) = (p0.clone(), y0.clone());
            let (delta2, pnorm2) = ndft.fused_prox_step(&fy, g2, thresh, beta, &mut p, &mut y);
            assert_eq!(delta2.sqrt().to_bits(), delta.to_bits(), "{beta:?}");
            assert_eq!(pnorm2.sqrt().to_bits(), scale.to_bits(), "{beta:?}");
            for (got, want) in [(&p, &next), (&y, &y_want)] {
                for (k, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{beta:?} bin {k}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{beta:?} bin {k}");
                }
            }
        }
    }

    /// A diagonal value `(a, a)` and a threshold `t` with `t²`
    /// subnormal where the rounded squares say `|z| < t` but `|z| > t`
    /// (and `hypot` sees it): the case that makes the pre-test unsound
    /// for a non-normal `t²`.
    ///
    /// With `a = m·2⁻⁵⁸²` and `t = m_t·2⁻⁵⁸²` (integer `m`, `m_t` below
    /// `2⁵³`), squares are exact integers times `2⁻¹¹⁶⁴`, i.e.
    /// `m²/2⁹⁰` units of the smallest subnormal, so their rounding can
    /// be computed exactly in `u128`.
    fn subnormal_square_trap() -> (f64, f64) {
        let units = |x: u128| {
            // Round-half-even of x / 2^90.
            let (q, r) = (x >> 90, x & ((1u128 << 90) - 1));
            let half = 1u128 << 89;
            q + u128::from(r > half || (r == half && q & 1 == 1))
        };
        let scale = 2f64.powi(-582);
        // Consecutive m barely move the fraction of m²/2⁹⁰, so the
        // candidates are spread by golden-ratio hashing instead.
        for j in 1u64.. {
            let m = (1u128 << 52) | u128::from(j.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 12);
            let m2 = m * m;
            let frac = m2 & ((1u128 << 90) - 1);
            // a² rounds down, by more than a quarter unit.
            if frac <= 1u128 << 88 || frac >= 1u128 << 89 {
                continue;
            }
            // m_t = floor(sqrt(2) m), from the f64 estimate corrected exactly.
            let mut mt = (m as f64 * std::f64::consts::SQRT_2) as u128;
            while mt * mt > 2 * m2 {
                mt -= 1;
            }
            while (mt + 1) * (mt + 1) <= 2 * m2 {
                mt += 1;
            }
            // sqrt(2) m - m_t > 0.6, so hypot(a, a) rounds above t.
            let gap_ok = (10 * mt + 6) * (10 * mt + 6) < 200 * m2;
            if mt < 1 << 53 && gap_ok && units(mt * mt) == 2 * units(m2) + 1 {
                return (m as f64 * scale, mt as f64 * scale);
            }
        }
        unreachable!()
    }

    #[test]
    fn debias_into_matches_debias_with_warm_scratch() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(10.0, 1.0), (20.0, 0.4)], &f);
        let sol = solve(&ndft, &h, &IstaConfig::default());
        let fresh = debias(&ndft, &h, &sol.p, 6, 3);
        let mut ws = DebiasScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            debias_into(&ndft, &h, &sol.p, 6, 3, &mut ws, &mut out);
            assert_eq!(out.len(), fresh.len());
            for (a, b) in out.iter().zip(fresh.iter()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn planned_solve_is_bitwise_identical() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let plan = crate::plan::NdftPlan::new(&f, grid, 60.0);
        let h = channel_for(&[(9.0, 1.0), (14.0, 0.5)], &f);
        let a = solve(&plan.ndft, &h, &IstaConfig::default());
        let b = solve_planned(&plan, &h, &IstaConfig::default());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        for (x, y) in a.p.iter().zip(b.p.iter()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    #[test]
    fn debias_restores_shrunk_amplitudes() {
        // ISTA shrinks every survivor by ~the threshold; the refit must
        // recover the physical amplitudes.
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let true_amps = [(10.0, 1.0), (20.0, 0.4)];
        let h = channel_for(&true_amps, &f);
        let sol = solve(
            &ndft,
            &h,
            &IstaConfig {
                alpha_rel: 0.25,
                ..Default::default()
            },
        );
        let biased_max = sol.p.iter().map(|z| z.abs()).fold(0.0, f64::max);
        assert!(biased_max < 1.0, "expected shrinkage, max {biased_max}");
        let d = debias(&ndft, &h, &sol.p, 6, 3);
        let at = |tau: f64| {
            let idx = (tau / 0.5).round() as usize;
            d[idx.saturating_sub(1)..=(idx + 1).min(d.len() - 1)]
                .iter()
                .map(|z| z.abs())
                .fold(0.0, f64::max)
        };
        assert!((at(10.0) - 1.0).abs() < 0.1, "strong atom {}", at(10.0));
        assert!((at(20.0) - 0.4).abs() < 0.1, "weak atom {}", at(20.0));
    }

    #[test]
    fn debias_zero_off_support() {
        let f = freqs();
        let grid = TauGrid::span(40.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(12.0, 1.0)], &f);
        let sol = solve(&ndft, &h, &IstaConfig::default());
        let d = debias(&ndft, &h, &sol.p, 5, 3);
        let nonzero = d.iter().filter(|z| z.abs() > 1e-12).count();
        assert!(nonzero <= 5, "nonzero {nonzero}");
    }

    #[test]
    fn debias_respects_max_atoms_and_separation() {
        let f = freqs();
        let grid = TauGrid::span(40.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(8.0, 1.0), (9.0, 0.9), (25.0, 0.5)], &f);
        let sol = solve(
            &ndft,
            &h,
            &IstaConfig {
                alpha_rel: 0.05,
                ..Default::default()
            },
        );
        let d = debias(&ndft, &h, &sol.p, 2, 4);
        let support: Vec<usize> = (0..d.len()).filter(|k| d[*k].abs() > 1e-12).collect();
        assert!(support.len() <= 2, "support {support:?}");
        for w in support.windows(2) {
            assert!(w[1] - w[0] >= 4, "separation violated: {support:?}");
        }
    }

    #[test]
    fn debias_on_empty_solution_is_zero() {
        let ndft = Ndft::new(&freqs(), TauGrid::span(20.0, 1.0));
        let p = vec![Complex64::ZERO; 20];
        let h = vec![Complex64::ONE; ndft.n_freqs()];
        let d = debias(&ndft, &h, &p, 5, 2);
        assert!(d.iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn debias_improves_data_fit() {
        let f = freqs();
        let grid = TauGrid::span(60.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        let h = channel_for(&[(7.3, 1.0), (15.1, 0.6)], &f);
        let sol = solve(
            &ndft,
            &h,
            &IstaConfig {
                alpha_rel: 0.2,
                ..Default::default()
            },
        );
        let d = debias(&ndft, &h, &sol.p, 8, 3);
        let resid = |p: &[Complex64]| {
            let fit = ndft.forward(p);
            fit.iter()
                .zip(h.iter())
                .map(|(a, b)| (*a - *b).norm_sq())
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            resid(&d) <= resid(&sol.p) + 1e-9,
            "debias worsened fit: {} vs {}",
            resid(&d),
            resid(&sol.p)
        );
    }
}

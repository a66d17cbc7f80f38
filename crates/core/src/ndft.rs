//! The non-uniform discrete Fourier transform over Wi-Fi band centers
//! (paper §6.1).
//!
//! Measurements live at the scattered band center frequencies
//! `{f_1, ..., f_n}`; the multipath profile lives on a uniform delay grid
//! `{tau_1, ..., tau_m}`. The forward operator is the `n x m` matrix
//! `F[i][k] = e^{-j 2 pi f_i tau_k}` (the paper's Fourier matrix). This
//! module materializes `F`, applies it and its adjoint, and estimates its
//! spectral norm by power iteration — the step size the proximal-gradient
//! solver needs.

use chronos_math::cvec;
use chronos_math::Complex64;
use std::f64::consts::PI;

/// A uniform delay grid in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauGrid {
    /// First grid point, ns.
    pub start_ns: f64,
    /// Grid step, ns.
    pub step_ns: f64,
    /// Number of points.
    pub len: usize,
}

impl TauGrid {
    /// Grid covering `[0, span)` with the given step.
    pub fn span(span_ns: f64, step_ns: f64) -> Self {
        assert!(span_ns > 0.0 && step_ns > 0.0, "grid must be positive");
        TauGrid {
            start_ns: 0.0,
            step_ns,
            len: (span_ns / step_ns).ceil() as usize,
        }
    }

    /// The delay at grid index `k`, ns.
    #[inline]
    pub fn tau_at(&self, k: usize) -> f64 {
        self.start_ns + k as f64 * self.step_ns
    }

    /// All grid delays.
    pub fn taus(&self) -> Vec<f64> {
        (0..self.len).map(|k| self.tau_at(k)).collect()
    }
}

/// The materialized NDFT operator.
///
/// The matrix is kept in the two layouts its two products stream
/// linearly — the innermost loops of the whole estimator:
///
/// * split re/im **row-major planes** (row `i` = frequency `i`) for the
///   adjoint and the fused FISTA step, which accumulate a register tile
///   of grid bins across all measurement rows;
/// * an interleaved **column-major** copy for the forward transform,
///   which skips the zero columns of a sparse profile.
///
/// Construction (and the power iteration for the operator norm) is the
/// expensive part; sessions that sweep the same band plan should build
/// the operator once via a `PlanCache` and share it.
#[derive(Debug, Clone)]
pub struct Ndft {
    freqs_hz: Vec<f64>,
    grid: TauGrid,
    /// Row-major real parts of the `n x m` matrix, row `i` = frequency `i`.
    re: Vec<f64>,
    /// Row-major imaginary parts, laid out as `re`.
    im: Vec<f64>,
    /// Column-major copy (`m x n`, column `k` contiguous): the forward
    /// transform walks *columns* so it can skip the zero entries of a
    /// sparse profile while streaming memory linearly. Same entries as
    /// the planes, copied at construction.
    mat_t: Vec<Complex64>,
}

/// Grid bins per register tile of the adjoint kernels.
const TILE: usize = 8;

impl Ndft {
    /// Builds the operator for measurement frequencies `freqs_hz` and the
    /// delay grid `grid`.
    ///
    /// # Panics
    /// Panics if `freqs_hz` is empty or the grid has no points.
    pub fn new(freqs_hz: &[f64], grid: TauGrid) -> Self {
        assert!(!freqs_hz.is_empty(), "need at least one frequency");
        assert!(grid.len > 0, "grid must be non-empty");
        let n = freqs_hz.len();
        let m = grid.len;
        let mut re = Vec::with_capacity(n * m);
        let mut im = Vec::with_capacity(n * m);
        for f in freqs_hz {
            for k in 0..m {
                let tau_s = grid.tau_at(k) * 1e-9;
                let z = Complex64::cis(-2.0 * PI * f * tau_s);
                re.push(z.re);
                im.push(z.im);
            }
        }
        let mut mat_t = Vec::with_capacity(n * m);
        for k in 0..m {
            for i in 0..n {
                mat_t.push(Complex64::new(re[i * m + k], im[i * m + k]));
            }
        }
        Ndft {
            freqs_hz: freqs_hz.to_vec(),
            grid,
            re,
            im,
            mat_t,
        }
    }

    /// Number of measurement frequencies (rows).
    pub fn n_freqs(&self) -> usize {
        self.freqs_hz.len()
    }

    /// Number of grid delays (columns).
    pub fn n_taus(&self) -> usize {
        self.grid.len
    }

    /// The delay grid.
    pub fn grid(&self) -> TauGrid {
        self.grid
    }

    /// The measurement frequencies.
    pub fn freqs_hz(&self) -> &[f64] {
        &self.freqs_hz
    }

    /// Forward transform: `h = F p` (profile -> measurements).
    ///
    /// Exactly-zero profile entries are skipped: each would contribute a
    /// literal `acc += a * 0`, which leaves every finite accumulator
    /// unchanged (at most the sign of an all-zero row's zero differs, and
    /// IEEE-754 zero signs are value-equal). The proximal-gradient
    /// iterates are sparse after the first few SPARSIFY steps, so this
    /// turns the solver's dense `n x m` forward pass into an
    /// `n x nnz(p)` one — the single largest win of the scratch pipeline.
    pub fn forward(&self, p: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.forward_into(p, &mut out);
        out
    }

    /// [`Ndft::forward`] into a caller-provided buffer (no allocation
    /// once `out` has capacity).
    ///
    /// Walks the transposed (column-major) operator so skipping a zero
    /// profile entry skips one contiguous column. For every output row
    /// the surviving terms still accumulate in ascending grid order —
    /// exactly the dense row loop's order with its zero terms removed —
    /// so the result is unchanged.
    pub fn forward_into(&self, p: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(p.len(), self.grid.len, "forward: profile length mismatch");
        let n = self.freqs_hz.len();
        out.clear();
        out.resize(n, Complex64::ZERO);
        for (col, b) in self.mat_t.chunks_exact(n).zip(p.iter()) {
            if b.re == 0.0 && b.im == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(col.iter()) {
                *o += *a * *b;
            }
        }
    }

    /// Adjoint transform: `p = F* h` (measurements -> profile domain).
    pub fn adjoint(&self, h: &[Complex64]) -> Vec<Complex64> {
        let mut out = Vec::new();
        self.adjoint_into(h, &mut out);
        out
    }

    /// [`Ndft::adjoint`] into a caller-provided buffer (no allocation
    /// once `out` has capacity).
    pub fn adjoint_into(&self, h: &[Complex64], out: &mut Vec<Complex64>) {
        assert_eq!(
            h.len(),
            self.freqs_hz.len(),
            "adjoint: measurement length mismatch"
        );
        out.clear();
        out.resize(self.grid.len, Complex64::ZERO);
        self.adjoint_bins(h, |k, gr, gi| out[k] = Complex64::new(gr, gi));
    }

    /// One FISTA iteration over the whole grid in a single pass. With
    /// `fy = F y - h` already formed, it computes per bin
    ///
    /// ```text
    /// next = SPARSIFY(y - g2 * (F* fy), thresh)
    /// y    = next + beta * (next - p)      (y = next when beta is None)
    /// p    = next
    /// ```
    ///
    /// and returns `(|next - p|^2, |p|^2)` over the *old* `p`, summed in
    /// ascending bin order. The adjoint of each register tile of bins is
    /// accumulated across all measurement rows and consumed on the spot,
    /// so the operator planes stream through once and no full-grid
    /// gradient is ever written.
    ///
    /// Every value is bit for bit what the unfused sequence
    /// [`Ndft::adjoint_into`], gradient step, [`crate::ista::sparsify`],
    /// `dist2`, `norm2` and extrapolation produces: the same operations
    /// in the same order, no FMA. `SPARSIFY` skips `hypot` on bins that
    /// a conservative squared-magnitude pre-test proves below the
    /// threshold (see [`crate::ista::SoftThreshold`]).
    pub(crate) fn fused_prox_step(
        &self,
        fy: &[Complex64],
        g2: f64,
        thresh: f64,
        beta: Option<f64>,
        p: &mut [Complex64],
        y: &mut [Complex64],
    ) -> (f64, f64) {
        assert_eq!(
            fy.len(),
            self.freqs_hz.len(),
            "fused step: measurement length mismatch"
        );
        assert!(
            p.len() == self.grid.len && y.len() == self.grid.len,
            "fused step: grid length mismatch"
        );
        let shrink = crate::ista::SoftThreshold::new(thresh);
        let mut delta2 = 0.0f64;
        let mut pnorm2 = 0.0f64;
        self.adjoint_bins(fy, |k, gr, gi| {
            let (yk, pk) = (y[k], p[k]);
            let (nr, ni) = shrink.apply(yk.re - gr * g2, yk.im - gi * g2);
            let (dr, di) = (nr - pk.re, ni - pk.im);
            delta2 += dr * dr + di * di;
            pnorm2 += pk.re * pk.re + pk.im * pk.im;
            y[k] = match beta {
                Some(b) => Complex64::new(nr + dr * b, ni + di * b),
                None => Complex64::new(nr, ni),
            };
            p[k] = Complex64::new(nr, ni);
        });
        (delta2, pnorm2)
    }

    /// Drives the adjoint `F* h` one register tile of bins at a time and
    /// hands every bin's `(re, im)` to `emit` in ascending bin order.
    #[inline(always)]
    fn adjoint_bins(&self, h: &[Complex64], mut emit: impl FnMut(usize, f64, f64)) {
        let m = self.grid.len;
        let main = m - m % TILE;
        for c in (0..main).step_by(TILE) {
            let (gr, gi) = self.adjoint_tile::<TILE>(c, h);
            for l in 0..TILE {
                emit(c + l, gr[l], gi[l]);
            }
        }
        for k in main..m {
            let (gr, gi) = self.adjoint_tile::<1>(k, h);
            emit(k, gr[0], gi[0]);
        }
    }

    /// `(F* h)[c..c + W]`, accumulated in registers over the rows in
    /// ascending order, starting from `+0` as the historical
    /// `out += conj(a) * h` row loop did.
    ///
    /// `conj(a) * h` is expanded without forming `conj(a)`:
    /// `ar*hr - (-ai)*hi` is `ar*hr + ai*hi` and `ar*hi + (-ai)*hr` is
    /// `ar*hi - ai*hr`, bit for bit, because `x - (-y) ≡ x + y` and
    /// `(-x) * y ≡ -(x * y)` in IEEE-754.
    ///
    /// Kept out of line on purpose: as a standalone loop LLVM vectorizes
    /// it across the tile's bins, with all `2 * TILE` accumulators in
    /// registers. Inlined into a caller it pairs each bin's re/im
    /// instead, which spills.
    #[inline(never)]
    fn adjoint_tile<const W: usize>(&self, c: usize, h: &[Complex64]) -> ([f64; W], [f64; W]) {
        let m = self.grid.len;
        let mut gr = [0.0f64; W];
        let mut gi = [0.0f64; W];
        for (i, hv) in h.iter().enumerate() {
            let at = i * m + c;
            let ar = &self.re[at..at + W];
            let ai = &self.im[at..at + W];
            for l in 0..W {
                gr[l] += ar[l] * hv.re + ai[l] * hv.im;
                gi[l] += ar[l] * hv.im - ai[l] * hv.re;
            }
        }
        (gr, gi)
    }

    /// Matched-filter (Bartlett) response at an arbitrary, off-grid delay:
    /// `|sum_i h_i e^{+j 2 pi f_i tau}|`. Used for sub-grid peak
    /// refinement.
    pub fn matched_filter(&self, h: &[Complex64], tau_ns: f64) -> f64 {
        assert_eq!(
            h.len(),
            self.freqs_hz.len(),
            "matched_filter: length mismatch"
        );
        let tau_s = tau_ns * 1e-9;
        let mut acc = Complex64::ZERO;
        for (f, hi) in self.freqs_hz.iter().zip(h.iter()) {
            acc += *hi * Complex64::cis(2.0 * PI * f * tau_s);
        }
        acc.abs()
    }

    /// Estimates the spectral norm `||F||_2` by power iteration on `F* F`.
    pub fn op_norm(&self, iters: usize) -> f64 {
        let m = self.grid.len;
        // Deterministic start vector with mild structure.
        let mut v: Vec<Complex64> = (0..m)
            .map(|k| Complex64::cis(0.37 * k as f64) / (m as f64).sqrt())
            .collect();
        let mut norm = 1.0;
        for _ in 0..iters.max(1) {
            let fv = self.forward(&v);
            let mut w = self.adjoint(&fv);
            norm = cvec::norm2(&w);
            if norm == 0.0 {
                return 0.0;
            }
            cvec::scale_in_place(&mut w, 1.0 / norm);
            v = w;
        }
        // norm approximates the largest eigenvalue of F*F = ||F||^2.
        norm.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_rf::bands::band_plan_5ghz;

    fn freqs() -> Vec<f64> {
        band_plan_5ghz().iter().map(|b| b.center_hz).collect()
    }

    impl Ndft {
        /// `F[i][k]` reassembled from the split planes.
        fn entry(&self, i: usize, k: usize) -> Complex64 {
            let at = i * self.grid.len + k;
            Complex64::new(self.re[at], self.im[at])
        }
    }

    #[test]
    fn grid_basics() {
        let g = TauGrid::span(200.0, 0.25);
        assert_eq!(g.len, 800);
        assert_eq!(g.tau_at(0), 0.0);
        assert!((g.tau_at(4) - 1.0).abs() < 1e-12);
        assert_eq!(g.taus().len(), 800);
    }

    #[test]
    fn forward_of_delta_is_steering_vector() {
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        // A delta at grid index 20 (tau = 10 ns).
        let mut p = vec![Complex64::ZERO; grid.len];
        p[20] = Complex64::ONE;
        let h = ndft.forward(&p);
        for (hi, fi) in h.iter().zip(f.iter()) {
            let expected = Complex64::cis(-2.0 * PI * fi * 10e-9);
            assert!(hi.approx_eq(expected, 1e-12));
        }
    }

    #[test]
    fn adjoint_is_true_adjoint() {
        // <F p, h> == <p, F* h> for random-ish vectors.
        let f = vec![2.4e9, 5.18e9, 5.32e9, 5.825e9];
        let grid = TauGrid::span(20.0, 1.0);
        let ndft = Ndft::new(&f, grid);
        let p: Vec<Complex64> = (0..grid.len)
            .map(|k| Complex64::from_polar(1.0 / (k + 1) as f64, k as f64))
            .collect();
        let h: Vec<Complex64> = (0..f.len())
            .map(|i| Complex64::from_polar(1.0, -0.4 * i as f64))
            .collect();
        let lhs = cvec::dot(&ndft.forward(&p), &h);
        let rhs = cvec::dot(&p, &ndft.adjoint(&h));
        assert!(lhs.approx_eq(rhs, 1e-9), "{lhs} vs {rhs}");
    }

    #[test]
    fn matched_filter_peaks_at_true_delay() {
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.25);
        let ndft = Ndft::new(&f, grid);
        let tau_true = 13.37;
        let h: Vec<Complex64> = f
            .iter()
            .map(|fi| Complex64::cis(-2.0 * PI * fi * tau_true * 1e-9))
            .collect();
        let at_true = ndft.matched_filter(&h, tau_true);
        assert!((at_true - f.len() as f64).abs() < 1e-9, "{at_true}");
        // Strictly smaller a little away.
        assert!(ndft.matched_filter(&h, tau_true + 0.3) < at_true);
        assert!(ndft.matched_filter(&h, tau_true - 0.3) < at_true);
    }

    #[test]
    fn op_norm_close_to_bruteforce_for_tiny_case() {
        // For a single frequency, F is a row of unit-modulus entries:
        // ||F||_2 = sqrt(m).
        let grid = TauGrid::span(10.0, 1.0);
        let ndft = Ndft::new(&[5e9], grid);
        let n = ndft.op_norm(50);
        assert!((n - (grid.len as f64).sqrt()).abs() < 1e-6, "{n}");
    }

    #[test]
    fn op_norm_upper_bounds_gain() {
        let f = freqs();
        let grid = TauGrid::span(100.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let norm = ndft.op_norm(60);
        // Gain on a specific vector never exceeds the norm.
        let p: Vec<Complex64> = (0..grid.len)
            .map(|k| Complex64::cis(1.1 * k as f64))
            .collect();
        let gain = cvec::norm2(&ndft.forward(&p)) / cvec::norm2(&p);
        assert!(gain <= norm * (1.0 + 1e-6), "gain {gain} norm {norm}");
        // And the norm is within the trivial bound sqrt(n * m).
        assert!(norm <= ((f.len() * grid.len) as f64).sqrt() + 1e-9);
    }

    #[test]
    fn sparse_forward_matches_dense_bruteforce() {
        // The zero-skipping forward must equal the dense sum exactly on a
        // sparse profile (skipped terms are exact zeros).
        let f = freqs();
        let grid = TauGrid::span(50.0, 0.5);
        let ndft = Ndft::new(&f, grid);
        let mut p = vec![Complex64::ZERO; grid.len];
        p[7] = Complex64::from_polar(0.8, 1.1);
        p[40] = Complex64::from_polar(0.3, -0.4);
        p[41] = Complex64::from_polar(0.1, 2.0);
        let fast = ndft.forward(&p);
        for (i, out) in fast.iter().enumerate() {
            let mut dense = Complex64::ZERO;
            for (k, pk) in p.iter().enumerate() {
                dense += ndft.entry(i, k) * *pk;
            }
            assert_eq!(out.re.to_bits(), dense.re.to_bits(), "row {i}");
            assert_eq!(out.im.to_bits(), dense.im.to_bits(), "row {i}");
        }
        // Into-variants reuse capacity and agree with the Vec-returning ones.
        let mut buf = Vec::new();
        ndft.forward_into(&p, &mut buf);
        assert_eq!(buf, fast);
        let h: Vec<Complex64> = (0..f.len())
            .map(|i| Complex64::cis(0.2 * i as f64))
            .collect();
        let mut adj = Vec::new();
        ndft.adjoint_into(&h, &mut adj);
        assert_eq!(adj, ndft.adjoint(&h));
    }

    #[test]
    fn tiled_adjoint_matches_conj_row_loop_bitwise() {
        // The register-tiled adjoint (used by `adjoint_into` and the fused
        // FISTA step) against the literal historical row loop
        // `out += conj(a) * h`, on a grid whose length is not a multiple
        // of the tile so the tail path runs too.
        let f = freqs();
        let grid = TauGrid::span(50.25, 0.25);
        assert_ne!(grid.len % TILE, 0);
        let ndft = Ndft::new(&f, grid);
        let h: Vec<Complex64> = (0..f.len())
            .map(|i| Complex64::from_polar(1.0 + 0.1 * i as f64, 0.7 * i as f64))
            .collect();
        let mut want = vec![Complex64::ZERO; grid.len];
        for (i, hi) in h.iter().enumerate() {
            for (k, o) in want.iter_mut().enumerate() {
                *o += ndft.entry(i, k).conj() * *hi;
            }
        }
        for (k, (a, b)) in ndft.adjoint(&h).iter().zip(want.iter()).enumerate() {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "bin {k}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "bin {k}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn forward_length_checked() {
        let ndft = Ndft::new(&[5e9], TauGrid::span(10.0, 1.0));
        let _ = ndft.forward(&[Complex64::ONE; 3]);
    }
}

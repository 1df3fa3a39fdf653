//! One-dimensional fitting and minimization.
//!
//! The calibration audit (`redvolt-bench`'s `calibrate` binary) re-derives
//! the board model's fitted constants from the paper's anchors. Some of
//! those derivations are closed-form; the rest are tiny one-dimensional
//! optimizations, solved here with golden-section search over a bracketed
//! minimum (no derivatives, guaranteed convergence for unimodal
//! objectives) or a coarse grid refine.

/// Golden-section minimization of `f` on `[lo, hi]`.
///
/// Returns the abscissa of the minimum to within `tol`. The objective is
/// assumed unimodal on the bracket; for multimodal objectives use
/// [`grid_then_golden`].
///
/// # Panics
///
/// Panics if the bracket is invalid or `tol` is not positive.
pub fn golden_section_min(mut f: impl FnMut(f64) -> f64, lo: f64, hi: f64, tol: f64) -> f64 {
    assert!(lo < hi, "invalid bracket");
    assert!(tol > 0.0, "tolerance must be positive");
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let (mut a, mut b) = (lo, hi);
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let (mut fc, mut fd) = (f(c), f(d));
    while (b - a).abs() > tol {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    0.5 * (a + b)
}

/// Coarse grid scan (`n` points) followed by golden-section refinement in
/// the best cell; robust to mild multimodality.
///
/// # Panics
///
/// Panics if `n < 3` or the bracket is invalid.
pub fn grid_then_golden(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    n: usize,
    tol: f64,
) -> f64 {
    assert!(n >= 3, "need at least three grid points");
    assert!(lo < hi, "invalid bracket");
    let step = (hi - lo) / (n - 1) as f64;
    let mut best_i = 0;
    let mut best = f64::INFINITY;
    for i in 0..n {
        let v = f(lo + step * i as f64);
        if v < best {
            best = v;
            best_i = i;
        }
    }
    let a = lo + step * best_i.saturating_sub(1) as f64;
    let b = (lo + step * (best_i + 1) as f64).min(hi);
    golden_section_min(f, a, b, tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_finds_parabola_minimum() {
        let x = golden_section_min(|x| (x - 2.5) * (x - 2.5) + 1.0, 0.0, 10.0, 1e-9);
        assert!((x - 2.5).abs() < 1e-7, "x = {x}");
    }

    #[test]
    fn golden_handles_boundary_minimum() {
        let x = golden_section_min(|x| x, 1.0, 3.0, 1e-9);
        assert!((x - 1.0).abs() < 1e-6);
    }

    #[test]
    fn grid_then_golden_escapes_local_bumps() {
        // Global minimum at 8, a local one at 2.
        let f = |x: f64| {
            let g = (x - 8.0) * (x - 8.0);
            let l = (x - 2.0) * (x - 2.0) + 5.0;
            g.min(l)
        };
        let x = grid_then_golden(f, 0.0, 10.0, 21, 1e-9);
        assert!((x - 8.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    #[should_panic(expected = "invalid bracket")]
    fn rejects_reversed_bracket() {
        golden_section_min(|x| x, 3.0, 1.0, 1e-6);
    }
}

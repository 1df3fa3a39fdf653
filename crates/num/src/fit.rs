//! One-dimensional fitting and minimization.
//!
//! The calibration audit (`redvolt-bench`'s `calibrate` binary) re-derives
//! the board model's fitted constants from the paper's anchors. Some of
//! those derivations are closed-form; the rest are tiny one-dimensional
//! optimizations, solved here with golden-section search over a bracketed
//! minimum (no derivatives, guaranteed convergence for unimodal
//! objectives).

/// Golden-section minimization of `f` on `[lo, hi]`.
///
/// Returns the abscissa of the minimum to within `tol`. The objective is
/// assumed unimodal on the bracket.
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
    #[should_panic(expected = "invalid bracket")]
    fn rejects_reversed_bracket() {
        golden_section_min(|x| x, 3.0, 1.0, 1e-6);
    }
}

//! Monotone piecewise-cubic Hermite interpolation (PCHIP).
//!
//! Hardware models in `redvolt-fpga` are *calibrated* against the handful of
//! operating points the paper publishes (e.g. power at 850/570/540 mV, Fmax
//! at the Table-2 voltages). Between anchors we need a smooth curve that
//! never overshoots — an ordinary cubic spline oscillates, which would
//! invent non-physical local minima in power or delay. PCHIP (Fritsch &
//! Carlson, 1980) preserves monotonicity of the data on every interval,
//! which is exactly the guarantee a calibrated physical curve needs.

use crate::NumError;

/// A monotonicity-preserving piecewise-cubic Hermite interpolant.
///
/// # Examples
///
/// ```
/// use redvolt_num::pchip::Pchip;
///
/// # fn main() -> Result<(), redvolt_num::NumError> {
/// let p = Pchip::new(&[540.0, 570.0, 850.0], &[3.38, 4.84, 12.59])?;
/// // Interpolated power is monotone between anchors.
/// assert!(p.eval(700.0) > p.eval(600.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pchip {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Endpoint derivatives at each knot.
    ds: Vec<f64>,
}

impl Pchip {
    /// Builds an interpolant through `(xs[i], ys[i])`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::InvalidKnots`] if fewer than two knots are given,
    /// the slices differ in length, any coordinate is non-finite, or `xs`
    /// is not strictly increasing.
    pub fn new(xs: &[f64], ys: &[f64]) -> Result<Self, NumError> {
        if xs.len() != ys.len() {
            return Err(NumError::InvalidKnots(format!(
                "xs has {} knots but ys has {}",
                xs.len(),
                ys.len()
            )));
        }
        if xs.len() < 2 {
            return Err(NumError::InvalidKnots(
                "need at least two knots".to_string(),
            ));
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(NumError::InvalidKnots(
                "knot coordinates must be finite".to_string(),
            ));
        }
        if xs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(NumError::InvalidKnots(
                "xs must be strictly increasing".to_string(),
            ));
        }
        let ds = derivatives(xs, ys);
        Ok(Pchip {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            ds,
        })
    }

    /// Evaluates the interpolant at `x`.
    ///
    /// Outside the knot range the curve is extended linearly using the
    /// endpoint derivative, which keeps extrapolation tame for the small
    /// overshoots sweeps occasionally make (e.g. one step past Vcrash).
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0] + self.ds[0] * (x - self.xs[0]);
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1] + self.ds[n - 1] * (x - self.xs[n - 1]);
        }
        // Binary search for the interval containing x.
        let i = match self
            .xs
            .binary_search_by(|probe| probe.partial_cmp(&x).expect("finite"))
        {
            Ok(exact) => return self.ys[exact],
            Err(ins) => ins - 1,
        };
        let h = self.xs[i + 1] - self.xs[i];
        let t = (x - self.xs[i]) / h;
        let (t2, t3) = (t * t, t * t * t);
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        h00 * self.ys[i] + h10 * h * self.ds[i] + h01 * self.ys[i + 1] + h11 * h * self.ds[i + 1]
    }
}

/// Fritsch–Carlson shape-preserving derivative estimates.
fn derivatives(xs: &[f64], ys: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let h: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
    let delta: Vec<f64> = (0..n - 1).map(|i| (ys[i + 1] - ys[i]) / h[i]).collect();
    let mut d = vec![0.0; n];

    // Interior: weighted harmonic mean when slopes agree in sign, else 0.
    for i in 1..n - 1 {
        if delta[i - 1] * delta[i] > 0.0 {
            let w1 = 2.0 * h[i] + h[i - 1];
            let w2 = h[i] + 2.0 * h[i - 1];
            d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i]);
        }
    }

    // Endpoints: one-sided three-point formula, clamped to preserve shape.
    d[0] = endpoint(
        h[0],
        h.get(1).copied().unwrap_or(h[0]),
        delta[0],
        delta.get(1).copied().unwrap_or(delta[0]),
    );
    d[n - 1] = endpoint(
        h[n - 2],
        if n >= 3 { h[n - 3] } else { h[n - 2] },
        delta[n - 2],
        if n >= 3 { delta[n - 3] } else { delta[n - 2] },
    );
    d
}

fn endpoint(h0: f64, h1: f64, d0: f64, d1: f64) -> f64 {
    let d = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
    if d * d0 <= 0.0 {
        0.0
    } else if d0 * d1 <= 0.0 && d.abs() > 3.0 * d0.abs() {
        3.0 * d0
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_knots() {
        assert!(Pchip::new(&[0.0], &[1.0]).is_err());
        assert!(Pchip::new(&[0.0, 1.0], &[1.0]).is_err());
        assert!(Pchip::new(&[1.0, 0.0], &[1.0, 2.0]).is_err());
        assert!(Pchip::new(&[0.0, 0.0], &[1.0, 2.0]).is_err());
        assert!(Pchip::new(&[0.0, f64::NAN], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn interpolates_knots_exactly() {
        let xs = [0.0, 1.0, 4.0, 9.0];
        let ys = [0.0, 1.0, 2.0, 3.0];
        let p = Pchip::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((p.eval(*x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn preserves_monotonicity_on_increasing_data() {
        let xs = [
            540.0, 545.0, 550.0, 555.0, 560.0, 565.0, 570.0, 650.0, 850.0,
        ];
        let ys = [3.38, 3.55, 3.7, 3.85, 4.1, 4.5, 4.84, 7.0, 12.59];
        let p = Pchip::new(&xs, &ys).unwrap();
        let mut prev = p.eval(540.0);
        let mut v = 540.5;
        while v <= 850.0 {
            let cur = p.eval(v);
            assert!(cur >= prev - 1e-9, "non-monotone at {v}: {cur} < {prev}");
            prev = cur;
            v += 0.5;
        }
    }

    #[test]
    fn stays_within_data_range_between_knots() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 10.0, 10.5, 30.0];
        let p = Pchip::new(&xs, &ys).unwrap();
        // No overshoot above 10.5 in the flat-ish middle interval.
        let mut x = 1.0;
        while x <= 2.0 {
            let y = p.eval(x);
            assert!((10.0..=10.5).contains(&y), "overshoot at {x}: {y}");
            x += 0.01;
        }
    }

    #[test]
    fn linear_extrapolation_outside_range() {
        let p = Pchip::new(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0]).unwrap();
        assert!((p.eval(-1.0) - (-1.0)).abs() < 1e-9);
        assert!((p.eval(3.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn handles_non_monotone_data_without_panic() {
        // Derivative zeroing at sign changes: curve should pass through knots.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 5.0, 1.0, 4.0];
        let p = Pchip::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!((p.eval(*x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn two_knot_case_is_linear() {
        let p = Pchip::new(&[0.0, 2.0], &[1.0, 5.0]).unwrap();
        assert!((p.eval(1.0) - 3.0).abs() < 1e-9);
    }
}

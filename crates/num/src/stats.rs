//! Summary statistics for repeated measurements.
//!
//! The paper reports every data point as the average of 10 experiment
//! repetitions and notes that observed variation was negligible; the
//! experiment framework in `redvolt-core` does the same and uses these
//! routines to report mean and spread.

use crate::NumError;

/// Summary of a sample of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of `samples`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::EmptySample`] for an empty slice.
    pub fn of(samples: &[f64]) -> Result<Self, NumError> {
        if samples.is_empty() {
            return Err(NumError::EmptySample);
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Ok(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

/// Returns the arithmetic mean of `samples`.
///
/// # Errors
///
/// Returns [`NumError::EmptySample`] for an empty slice.
pub fn mean(samples: &[f64]) -> Result<f64, NumError> {
    if samples.is_empty() {
        return Err(NumError::EmptySample);
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[4.0; 10]).unwrap();
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev with n-1 = 7: sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_errors() {
        assert_eq!(Summary::of(&[]), Err(NumError::EmptySample));
        assert_eq!(mean(&[]), Err(NumError::EmptySample));
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[3.5]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.std_dev, 0.0);
    }
}

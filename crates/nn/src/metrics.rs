//! Classification metrics.

/// Top-1 accuracy of predictions against labels.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    assert!(!labels.is_empty(), "empty evaluation");
    let hits = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    hits as f64 / labels.len() as f64
}

/// A confusion matrix over `classes` classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Confusion {
    classes: usize,
    counts: Vec<u64>,
}

impl Confusion {
    /// Creates an empty matrix.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    pub fn new(classes: usize) -> Self {
        assert!(classes > 0, "need at least one class");
        Confusion {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, label: usize, prediction: usize) {
        assert!(
            label < self.classes && prediction < self.classes,
            "class out of range"
        );
        self.counts[label * self.classes + prediction] += 1;
    }

    /// Count of (label, prediction) pairs.
    pub fn count(&self, label: usize, prediction: usize) -> u64 {
        self.counts[label * self.classes + prediction]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.classes).map(|c| self.count(c, c)).sum();
        diag as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_hits() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[0], &[0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_validates_lengths() {
        accuracy(&[1], &[1, 2]);
    }

    #[test]
    fn confusion_accuracy_matches() {
        let mut c = Confusion::new(3);
        c.record(0, 0);
        c.record(1, 1);
        c.record(2, 0);
        c.record(2, 2);
        assert_eq!(c.total(), 4);
        assert_eq!(c.count(2, 0), 1);
        assert_eq!(c.accuracy(), 0.75);
    }

    #[test]
    fn empty_confusion_is_zero_accuracy() {
        assert_eq!(Confusion::new(2).accuracy(), 0.0);
    }
}

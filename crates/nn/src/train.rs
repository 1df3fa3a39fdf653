//! Linear-readout training (softmax regression).
//!
//! The benchmark models use frozen seeded-random convolutional features
//! with a *trained* linear classifier on top (see
//! [`crate::graph::Graph::fit_readout`]), which restores the decision
//! margins of a trained network. The same trainer is reused for
//! quantization-aware recalibration: after quantizing the backbone, the
//! readout is refitted on the *quantized* features, mirroring the DECENT
//! toolchain's quantize-then-finetune flow (§3.1).
//!
//! The fit set stays fixed for every epoch, so an epoch is two batched
//! products over the whole set, both in [`crate::kernels`]: the logits
//! `Z = X·Wᵀ + b` ([`kernels::dense_f32_batch_into`]) and the weight
//! gradient `G = Eᵀ·X` ([`kernels::dense_weight_grad_f32_into`]), with the
//! per-sample softmax in between. Each logit and each gradient element is
//! still one left-to-right fold, so the trained parameters are
//! bit-identical to the per-sample loop kept as
//! [`crate::reference::fit_softmax_regression`].

use crate::kernels;

/// Trains `weights`/`bias` (row-major `[classes][dim]`) by full-batch
/// softmax regression with L2 decay.
///
/// # Panics
///
/// Panics if buffer sizes disagree or a label is out of range.
#[allow(clippy::too_many_arguments)] // full training-problem description
pub fn fit_softmax_regression(
    features: &[Vec<f32>],
    labels: &[usize],
    dim: usize,
    classes: usize,
    weights: &mut [f32],
    bias: &mut [f32],
    epochs: usize,
    learning_rate: f32,
) {
    assert_eq!(features.len(), labels.len(), "features/labels mismatch");
    assert_eq!(weights.len(), dim * classes, "weight buffer size");
    assert_eq!(bias.len(), classes, "bias buffer size");
    for f in features {
        assert_eq!(f.len(), dim, "feature dimension");
    }
    for &label in labels {
        assert!(label < classes, "label {label} out of range");
    }
    if features.is_empty() {
        return;
    }
    let batch = features.len();
    let n = batch as f32;
    let decay = 1e-5f32;
    // The fit set, sample-major for the gradient and feature-major for
    // the logits, laid out once for every epoch.
    let x = features.concat();
    let x_t = feature_major(features);
    let mut logits = vec![0.0f32; batch * classes];
    let mut err = vec![0.0f32; batch * classes];
    let mut exps = vec![0.0f32; classes];
    let mut grad_w = vec![0.0f32; weights.len()];
    let mut grad_b = vec![0.0f32; classes];
    for _ in 0..epochs {
        kernels::dense_f32_batch_into(&x_t, dim, batch, weights, bias, &mut logits);
        grad_b.fill(0.0);
        for ((z, e), &label) in logits
            .chunks_exact(classes)
            .zip(err.chunks_exact_mut(classes))
            .zip(labels)
        {
            let m = z.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            for (ex, &zk) in exps.iter_mut().zip(z) {
                *ex = (zk - m).exp();
            }
            let sum: f32 = exps.iter().sum();
            for k in 0..classes {
                let p = exps[k] / sum;
                e[k] = p - if k == label { 1.0 } else { 0.0 };
                grad_b[k] += e[k];
            }
        }
        kernels::dense_weight_grad_f32_into(&x, dim, &err, classes, batch, &mut grad_w);
        for (w, g) in weights.iter_mut().zip(&grad_w) {
            *w -= learning_rate * (g / n + decay * *w);
        }
        for (b, g) in bias.iter_mut().zip(&grad_b) {
            *b -= learning_rate * g / n;
        }
    }
}

/// Lays equal-length feature vectors out feature-major, as
/// [`kernels::dense_f32_batch_into`] takes them: feature `i` of sample `s`
/// lands at `i * features.len() + s`.
pub(crate) fn feature_major(features: &[Vec<f32>]) -> Vec<f32> {
    let batch = features.len();
    let mut x_t = vec![0.0f32; features.first().map_or(0, Vec::len) * batch];
    for (s, f) in features.iter().enumerate() {
        for (i, &v) in f.iter().enumerate() {
            x_t[i * batch + s] = v;
        }
    }
    x_t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use redvolt_num::rng::Xoshiro256StarStar;

    fn separable_problem(n: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        // Three well-separated Gaussian blobs in 8 dimensions.
        let mut rng = Xoshiro256StarStar::seed_from(5);
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 3;
            let mut f = vec![0.0f32; 8];
            for (d, v) in f.iter_mut().enumerate() {
                let center = if d % 3 == class { 2.0 } else { -1.0 };
                *v = center + rng.next_gaussian(0.0, 0.3) as f32;
            }
            features.push(f);
            labels.push(class);
        }
        (features, labels)
    }

    #[test]
    fn learns_a_separable_problem() {
        let (features, labels) = separable_problem(90);
        let mut w = vec![0.0f32; 8 * 3];
        let mut b = vec![0.0f32; 3];
        fit_softmax_regression(&features, &labels, 8, 3, &mut w, &mut b, 200, 0.5);
        let hits = features
            .iter()
            .zip(&labels)
            .filter(|&(f, &label)| {
                let z = kernels::dense_f32(&Tensor::vector(f.clone()), 3, false, &w, &b);
                z.argmax() == label
            })
            .count();
        let acc = hits as f64 / labels.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn zero_epochs_is_a_no_op() {
        let (features, labels) = separable_problem(9);
        let mut w = vec![0.5f32; 24];
        let mut b = vec![0.1f32; 3];
        let (w0, b0) = (w.clone(), b.clone());
        fit_softmax_regression(&features, &labels, 8, 3, &mut w, &mut b, 0, 0.5);
        assert_eq!(w, w0);
        assert_eq!(b, b0);
    }

    #[test]
    #[should_panic(expected = "label 7 out of range")]
    fn rejects_out_of_range_labels() {
        let mut w = vec![0.0f32; 8 * 3];
        let mut b = vec![0.0f32; 3];
        fit_softmax_regression(&[vec![0.0; 8]], &[7], 8, 3, &mut w, &mut b, 1, 0.1);
    }
}

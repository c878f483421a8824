//! The GCN model: layer dimensions, weights, activations, loss.
//!
//! The paper trains a 3-layer Kipf–Welling GCN with 16 hidden units for
//! 100 epochs; [`GcnConfig::paper_default`] mirrors that. Weights are
//! Glorot-initialized from a seed so every rank (and the sequential
//! reference) starts from bit-identical parameters.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spmat::Dense;

/// Layer architecture. The paper focuses on GCN but notes all methods
/// generalize to other GNNs (§2.1); GraphSAGE demonstrates it here —
/// its distributed form reuses the *identical* communication plans (one
/// SpMM forward, one backward per layer), only local compute changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArchKind {
    /// Kipf–Welling GCN: `Zˡ = Â Hˡ⁻¹ Wˡ`.
    #[default]
    Gcn,
    /// GraphSAGE (mean aggregator, matrix form):
    /// `Zˡ = Hˡ⁻¹ W_self + (Â Hˡ⁻¹) W_neigh`, stored as one
    /// `2·f_in × f_out` weight matrix per layer.
    Sage,
}

/// Model hyperparameters.
#[derive(Clone, Debug, PartialEq)]
pub struct GcnConfig {
    /// Layer widths: `dims[0]` = input features, `dims.last()` = classes.
    /// `dims.len() - 1` is the number of GCN layers `L`.
    pub dims: Vec<usize>,
    /// Learning rate.
    pub lr: f64,
    /// Weight init seed (shared across ranks).
    pub seed: u64,
    /// Optimizer selection (SGD is the paper's update rule).
    pub opt: crate::optim::OptKind,
    /// Layer architecture.
    pub arch: ArchKind,
}

impl GcnConfig {
    /// The paper's architecture: 3 GCN layers, 16 hidden units, plain SGD.
    pub fn paper_default(input_features: usize, classes: usize) -> Self {
        Self {
            dims: vec![input_features, 16, 16, classes],
            lr: 0.5,
            seed: 0x6CC,
            opt: crate::optim::OptKind::Sgd,
            arch: ArchKind::Gcn,
        }
    }

    /// Adam variant (what GNN systems practice uses).
    pub fn with_adam(mut self, lr: f64) -> Self {
        self.opt = crate::optim::OptKind::Adam;
        self.lr = lr;
        self
    }

    /// GraphSAGE variant (same dims; weights become `2·f_in × f_out`).
    pub fn with_sage(mut self) -> Self {
        self.arch = ArchKind::Sage;
        self
    }

    /// Weight-matrix input width for layer `l` (doubled for SAGE's
    /// `[self | neighbor]` stacking).
    pub fn w_in(&self, l: usize) -> usize {
        match self.arch {
            ArchKind::Gcn => self.dims[l],
            ArchKind::Sage => 2 * self.dims[l],
        }
    }

    /// Number of GCN layers `L`.
    pub fn layers(&self) -> usize {
        self.dims.len() - 1
    }
}

/// The trainable parameters: one weight matrix per layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Weights {
    /// `mats[l]` is `dims[l] × dims[l+1]`.
    pub mats: Vec<Dense>,
}

impl Weights {
    /// Glorot initialization from the config's seed — deterministic, so
    /// replicated ranks agree without communication.
    pub fn init(cfg: &GcnConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let layers = cfg.layers();
        let mats = (0..layers)
            .map(|l| Dense::glorot(cfg.w_in(l), cfg.dims[l + 1], &mut rng))
            .collect();
        Self { mats }
    }

    /// SGD step: `W^l -= lr · grads[l]`.
    pub fn sgd_step(&mut self, grads: &[Dense], lr: f64) {
        assert_eq!(grads.len(), self.mats.len());
        for (w, g) in self.mats.iter_mut().zip(grads) {
            w.sub_scaled_assign(g, lr);
        }
    }

    /// Max absolute difference across all layers (testing parity between
    /// distributed and sequential training).
    pub fn max_abs_diff(&self, other: &Weights) -> f64 {
        self.mats
            .iter()
            .zip(&other.mats)
            .map(|(a, b)| a.max_abs_diff(b).expect("shape mismatch"))
            .fold(0.0, f64::max)
    }
}

/// Row-wise softmax.
pub fn softmax(logits: &Dense) -> Dense {
    let mut out = Dense::zeros(logits.rows(), logits.cols());
    softmax_into(logits, &mut out);
    out
}

/// Row-wise softmax into a caller-provided matrix of the same shape.
pub fn softmax_into(logits: &Dense, out: &mut Dense) {
    out.data_mut().copy_from_slice(logits.data());
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Masked softmax cross-entropy **sums** (not yet averaged): returns
/// `(loss_sum, count, grad_sum)` where `grad_sum` is `softmax − onehot`
/// on masked rows and zero elsewhere. Callers divide by the global count
/// — in distributed training that count is only known after an
/// all-reduce, which is why this returns unnormalized values.
pub fn softmax_cross_entropy_sums(
    logits: &Dense,
    labels: &[u32],
    mask: &[bool],
) -> (f64, usize, Dense) {
    let mut grad = Dense::zeros(logits.rows(), logits.cols());
    let (loss, count, _) = softmax_cross_entropy_sums_into(logits, labels, mask, &mut grad);
    (loss, count, grad)
}

/// [`softmax_cross_entropy_sums`] into caller-provided storage, plus
/// [`accuracy`]'s count of correct predictions, in one pass over the
/// masked rows: no other row is read or written. `grad` has the shape of
/// `logits` and must arrive **zeroed**. Returns `(loss_sum, count,
/// correct)`. Bit for bit what [`softmax_into`], the cross-entropy of its
/// masked rows and [`accuracy`] give: the argmax runs on the logits and
/// the last maximum wins.
///
/// # Panics
/// Panics on a NaN logit in a masked row, as [`accuracy`] does.
pub fn softmax_cross_entropy_sums_into(
    logits: &Dense,
    labels: &[u32],
    mask: &[bool],
    grad: &mut Dense,
) -> (f64, usize, usize) {
    assert_eq!(logits.rows(), labels.len());
    assert_eq!(logits.rows(), mask.len());
    assert_eq!((grad.rows(), grad.cols()), (logits.rows(), logits.cols()));
    let (mut loss, mut count, mut correct) = (0.0, 0usize, 0usize);
    for r in 0..logits.rows() {
        if !mask[r] {
            continue;
        }
        let (row, y) = (logits.row(r), labels[r] as usize);
        // The max doubles as the softmax shift: `f64::max`'s fold could
        // differ only in the sign of a zero, which `exp` does not see.
        let (mut max, mut pred) = (f64::NEG_INFINITY, 0);
        for (j, &v) in row.iter().enumerate() {
            assert!(!v.is_nan(), "NaN logit");
            if v >= max {
                (max, pred) = (v, j);
            }
        }
        let g = grad.row_mut(r);
        let mut sum = 0.0;
        for (p, &v) in g.iter_mut().zip(row) {
            *p = (v - max).exp();
            sum += *p;
        }
        for p in g.iter_mut() {
            *p /= sum;
        }
        loss -= g[y].max(1e-300).ln();
        g[y] -= 1.0;
        count += 1;
        correct += usize::from(pred == y);
    }
    (loss, count, correct)
}

/// Fraction of masked vertices whose argmax prediction matches the label.
pub fn accuracy(logits: &Dense, labels: &[u32], mask: &[bool]) -> f64 {
    let mut correct = 0usize;
    let mut count = 0usize;
    for r in 0..logits.rows() {
        if !mask[r] {
            continue;
        }
        count += 1;
        let row = logits.row(r);
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN logit"))
            .map(|(i, _)| i)
            .expect("empty logits row");
        if pred == labels[r] as usize {
            correct += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        correct as f64 / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_layer_count() {
        let cfg = GcnConfig::paper_default(300, 24);
        assert_eq!(cfg.layers(), 3);
        assert_eq!(cfg.dims, vec![300, 16, 16, 24]);
    }

    #[test]
    fn weights_deterministic() {
        let cfg = GcnConfig::paper_default(8, 4);
        let a = Weights::init(&cfg);
        let b = Weights::init(&cfg);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let s = softmax(&logits);
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(s.row(r).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Dense::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Dense::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        assert!(softmax(&a).approx_eq(&softmax(&b), 1e-12));
    }

    #[test]
    fn cross_entropy_on_confident_prediction_is_small() {
        let logits = Dense::from_vec(1, 2, vec![10.0, -10.0]);
        let (loss, count, grad) = softmax_cross_entropy_sums(&logits, &[0], &[true]);
        assert_eq!(count, 1);
        assert!(loss < 1e-6);
        assert!(grad.get(0, 0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits = Dense::from_vec(2, 3, vec![0.3, -1.0, 0.5, 2.0, 0.0, -2.0]);
        let (_, _, grad) = softmax_cross_entropy_sums(&logits, &[2, 0], &[true, true]);
        for r in 0..2 {
            let s: f64 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn masked_rows_are_ignored() {
        let logits = Dense::from_vec(2, 2, vec![5.0, 0.0, 0.0, 5.0]);
        let (loss, count, grad) = softmax_cross_entropy_sums(&logits, &[1, 1], &[false, true]);
        assert_eq!(count, 1);
        assert!(loss < 1e-2);
        assert_eq!(grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Dense::from_vec(1, 3, vec![0.5, -0.2, 0.1]);
        let labels = [2u32];
        let mask = [true];
        let (_, _, grad) = softmax_cross_entropy_sums(&logits, &labels, &mask);
        let eps = 1e-6;
        for j in 0..3 {
            let mut plus = logits.clone();
            plus.set(0, j, plus.get(0, j) + eps);
            let (lp, _, _) = softmax_cross_entropy_sums(&plus, &labels, &mask);
            let mut minus = logits.clone();
            minus.set(0, j, minus.get(0, j) - eps);
            let (lm, _, _) = softmax_cross_entropy_sums(&minus, &labels, &mask);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad.get(0, j)).abs() < 1e-6,
                "dim {j}: fd {fd} vs grad {}",
                grad.get(0, j)
            );
        }
    }

    /// What the fused step replaced: softmax of every row, the
    /// cross-entropy and gradient of the masked ones, then [`accuracy`].
    fn unfused(logits: &Dense, labels: &[u32], mask: &[bool]) -> (f64, usize, f64, Dense) {
        let mut probs = Dense::zeros(logits.rows(), logits.cols());
        softmax_into(logits, &mut probs);
        let mut grad = Dense::zeros(logits.rows(), logits.cols());
        let (mut loss, mut count) = (0.0, 0);
        for r in (0..logits.rows()).filter(|&r| mask[r]) {
            count += 1;
            let y = labels[r] as usize;
            loss -= probs.get(r, y).max(1e-300).ln();
            let g = grad.row_mut(r);
            g.copy_from_slice(probs.row(r));
            g[y] -= 1.0;
        }
        (loss, count, accuracy(logits, labels, mask), grad)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_loss_step_matches_the_unfused_composition_bit_for_bit() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(29);
        let (rows, classes) = (300, 24);
        let mut logits = Dense::from_fn(rows, classes, |_, _| rng.gen_range(-6.0..6.0));
        // Ties for the maximum (last wins), zeros of both signs as the
        // maximum, and a row that saturates the 1e-300 floor.
        for r in (0..rows).step_by(7) {
            let row = logits.row_mut(r);
            row[r % classes] = 9.0;
            row[(r * 5 + 3) % classes] = 9.0;
        }
        for r in (3..rows).step_by(11) {
            let row = logits.row_mut(r);
            row.iter_mut().for_each(|v| *v = -v.abs() - 1.0);
            row[r % classes] = -0.0;
            row[(r + 1) % classes] = 0.0;
        }
        logits.row_mut(5).copy_from_slice(&[-800.0; 24]);
        logits.set(5, 0, 800.0);
        let mut labels: Vec<u32> = (0..rows)
            .map(|_| rng.gen_range(0..classes as u32))
            .collect();
        labels[5] = 1;
        let mask: Vec<bool> = (0..rows).map(|r| r == 5 || rng.gen_bool(0.6)).collect();

        let mut grad = Dense::zeros(rows, classes);
        let (loss, count, correct) =
            softmax_cross_entropy_sums_into(&logits, &labels, &mask, &mut grad);
        let (want_loss, want_count, want_accuracy, want_grad) = unfused(&logits, &labels, &mask);
        assert_eq!(loss.to_bits(), want_loss.to_bits());
        assert_eq!(count, want_count);
        assert_eq!(
            (correct as f64 / count as f64).to_bits(),
            want_accuracy.to_bits()
        );
        assert!(correct > 0 && correct < count, "both outcomes occur");
        for (r, &masked) in mask.iter().enumerate() {
            if masked {
                assert_eq!(bits(grad.row(r)), bits(want_grad.row(r)), "row {r}");
            } else {
                assert!(
                    grad.row(r).iter().all(|v| v.to_bits() == 0),
                    "row {r} is +0.0"
                );
            }
        }
    }

    #[test]
    fn fused_argmax_gives_ties_to_the_last_maximal_logit() {
        let logits = Dense::from_vec(2, 3, vec![2.0, 1.0, 2.0, 0.5, 0.5, -1.0]);
        let mask = [true, true];
        for (labels, want) in [([2u32, 1], 2), ([0, 0], 0), ([2, 0], 1)] {
            let mut grad = Dense::zeros(2, 3);
            let (_, _, correct) =
                softmax_cross_entropy_sums_into(&logits, &labels, &mask, &mut grad);
            assert_eq!(correct, want, "labels {labels:?}");
            assert_eq!(accuracy(&logits, &labels, &mask), want as f64 / 2.0);
        }
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Dense::from_vec(3, 2, vec![2.0, 1.0, 0.0, 3.0, 1.0, 0.0]);
        let labels = [0u32, 1, 1];
        assert!((accuracy(&logits, &labels, &[true; 3]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&logits, &labels, &[false; 3]), 0.0);
    }

    #[test]
    fn sgd_moves_weights_against_gradient() {
        let cfg = GcnConfig {
            dims: vec![2, 2],
            lr: 0.5,
            seed: 1,
            opt: crate::optim::OptKind::Sgd,
            arch: ArchKind::Gcn,
        };
        let mut w = Weights::init(&cfg);
        let before = w.mats[0].get(0, 0);
        let grad = Dense::from_vec(2, 2, vec![1.0, 0.0, 0.0, 0.0]);
        w.sgd_step(&[grad], 0.5);
        assert!((w.mats[0].get(0, 0) - (before - 0.5)).abs() < 1e-15);
    }
}

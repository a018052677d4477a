use orco_tensor::{MatView, Matrix};

use crate::layer::{Layer, Param};
use crate::loss::Loss;
use crate::optimizer::Optimizer;

/// An ordered stack of [`Layer`]s trained end-to-end.
///
/// `Sequential` is the model container used by every network in the
/// reproduction: the OrcoDCS encoder and decoder are each a `Sequential`
/// living on a different simulated machine, DCSNet is one `Sequential`, and
/// the follow-up classifier is another.
///
/// # Examples
///
/// ```
/// use orco_nn::{Activation, Dense, Sequential};
/// use orco_tensor::{Matrix, OrcoRng};
///
/// let mut rng = OrcoRng::from_label("seq-doc", 0);
/// let mut ae = Sequential::new()
///     .with(Dense::new(784, 128, Activation::Sigmoid, &mut rng))
///     .with(Dense::new(128, 784, Activation::Sigmoid, &mut rng));
/// assert_eq!(ae.input_dim(), Some(784));
/// assert_eq!(ae.output_dim(), Some(784));
/// let out = ae.forward(&Matrix::zeros(2, 784), false);
/// assert_eq!(out.shape(), (2, 784));
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Ping-pong buffers for the hidden activations of
    /// [`Sequential::infer_into`] (unused with fewer than two layers).
    scratch: [Matrix; 2],
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self { layers: self.layers.iter().map(|l| l.clone_box()).collect(), ..Self::default() }
    }
}

impl Sequential {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the layer's input width does not match the previous
    /// layer's output width.
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.push(layer);
        self
    }

    /// Appends a layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer's input width does not match the previous
    /// layer's output width.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        if let Some(last) = self.layers.last() {
            assert_eq!(
                last.output_dim(),
                layer.input_dim(),
                "Sequential: layer `{}` expects {} inputs but previous layer `{}` outputs {}",
                layer.name(),
                layer.input_dim(),
                last.name(),
                last.output_dim()
            );
        }
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Input width of the first layer, if any.
    #[must_use]
    pub fn input_dim(&self) -> Option<usize> {
        self.layers.first().map(|l| l.input_dim())
    }

    /// Output width of the last layer, if any.
    #[must_use]
    pub fn output_dim(&self) -> Option<usize> {
        self.layers.last().map(|l| l.output_dim())
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Per-sample forward FLOPs, summed over layers.
    #[must_use]
    pub fn flops_forward(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_forward()).sum()
    }

    /// Per-sample backward FLOPs, summed over layers.
    #[must_use]
    pub fn flops_backward(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_backward()).sum()
    }

    /// Immutable access to the layer stack.
    #[must_use]
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to one layer (for surgical updates, e.g. swapping
    /// noise variance mid-experiment).
    #[must_use]
    pub fn layer_mut(&mut self, index: usize) -> Option<&mut (dyn Layer + 'static)> {
        self.layers.get_mut(index).map(|b| &mut **b as _)
    }

    /// Runs the batch through every layer.
    ///
    /// `train` enables training-only behaviour (noise injection).
    ///
    /// # Panics
    ///
    /// Panics if the model is empty.
    pub fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        assert!(!self.layers.is_empty(), "Sequential::forward on empty model");
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Inference-mode forward of a borrowed batch into `out` through every
    /// layer's [`Layer::infer_into`]: bit-identical to
    /// `forward(input, false)`. Hidden activations alternate between two
    /// buffers the model keeps, so with allocation-free layers a call
    /// allocates nothing once the buffers have grown to size.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty.
    // orco-lint: region(no-alloc)
    pub fn infer_into(&mut self, input: MatView<'_>, out: &mut Matrix) {
        let (last, hidden) =
            self.layers.split_last_mut().expect("Sequential::infer_into on empty model");
        let [current, next] = &mut self.scratch;
        for (i, layer) in hidden.iter_mut().enumerate() {
            let x = if i == 0 { input } else { current.as_view() };
            layer.infer_into(x, next);
            std::mem::swap(current, next);
        }
        let x = if hidden.is_empty() { input } else { current.as_view() };
        last.infer_into(x, out);
    }
    // orco-lint: endregion

    /// Backpropagates a gradient through every layer (reverse order),
    /// accumulating parameter gradients, and returns `∂L/∂input`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Collects parameter views from every layer in a stable order.
    pub fn params(&mut self) -> Vec<Param<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// One optimization step on a batch; returns the batch loss before the
    /// update.
    pub fn train_batch(
        &mut self,
        input: &Matrix,
        target: &Matrix,
        loss: &Loss,
        optimizer: &mut Optimizer,
    ) -> f32 {
        self.zero_grad();
        let pred = self.forward(input, true);
        let value = loss.value(&pred, target);
        let grad = loss.grad(&pred, target);
        let _ = self.backward(&grad);
        optimizer.step(self.params());
        value
    }

    /// Mean loss on a batch without updating parameters (inference mode).
    pub fn evaluate(&mut self, input: &Matrix, target: &Matrix, loss: &Loss) -> f32 {
        let pred = self.forward(input, false);
        loss.value(&pred, target)
    }

    /// Inference-mode forward pass (alias conveying intent).
    pub fn predict(&mut self, input: &Matrix) -> Matrix {
        self.forward(input, false)
    }

    /// A human-readable architecture summary, one line per layer.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for (i, layer) in self.layers.iter().enumerate() {
            s.push_str(&format!(
                "{i:2}: {:<14} {:>8} -> {:<8} params={:<10} flops/sample={}\n",
                layer.name(),
                layer.input_dim(),
                layer.output_dim(),
                layer.param_count(),
                layer.flops_forward(),
            ));
        }
        s.push_str(&format!(
            "total params={} forward flops/sample={}",
            self.param_count(),
            self.flops_forward()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Dense};
    use orco_tensor::OrcoRng;

    fn xor_data() -> (Matrix, Matrix) {
        (
            Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap(),
            Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]).unwrap(),
        )
    }

    #[test]
    fn learns_xor() {
        let mut rng = OrcoRng::from_label("xor", 3);
        let mut model = Sequential::new()
            .with(Dense::new(2, 8, Activation::Tanh, &mut rng))
            .with(Dense::new(8, 1, Activation::Sigmoid, &mut rng));
        let (x, y) = xor_data();
        let mut opt = Optimizer::adam(0.05);
        for _ in 0..500 {
            model.train_batch(&x, &y, &Loss::L2, &mut opt);
        }
        let pred = model.predict(&x);
        for (p, t) in pred.as_slice().iter().zip(y.as_slice()) {
            assert!((p - t).abs() < 0.2, "xor not learned: pred {p} target {t}");
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn rejects_incompatible_layers() {
        let mut rng = OrcoRng::from_label("bad-stack", 0);
        let _ = Sequential::new()
            .with(Dense::new(4, 8, Activation::Relu, &mut rng))
            .with(Dense::new(9, 2, Activation::Relu, &mut rng));
    }

    #[test]
    fn train_reduces_loss() {
        let mut rng = OrcoRng::from_label("reduce", 0);
        let mut model = Sequential::new()
            .with(Dense::new(8, 4, Activation::Sigmoid, &mut rng))
            .with(Dense::new(4, 8, Activation::Sigmoid, &mut rng));
        let x = Matrix::from_fn(16, 8, |r, c| if (r + c) % 3 == 0 { 0.9 } else { 0.1 });
        let mut opt = Optimizer::adam(0.01);
        let before = model.evaluate(&x, &x, &Loss::L2);
        for _ in 0..100 {
            model.train_batch(&x, &x, &Loss::L2, &mut opt);
        }
        let after = model.evaluate(&x, &x, &Loss::L2);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn summary_mentions_every_layer() {
        let mut rng = OrcoRng::from_label("summary", 0);
        let model = Sequential::new()
            .with(Dense::new(4, 3, Activation::Relu, &mut rng))
            .with(Dense::new(3, 2, Activation::Identity, &mut rng));
        let s = model.summary();
        assert_eq!(s.matches("dense").count(), 2);
        assert!(s.contains("total params=23"));
    }

    #[test]
    fn flops_sum_over_layers() {
        let mut rng = OrcoRng::from_label("flops", 0);
        let a = Dense::new(10, 5, Activation::Identity, &mut rng);
        let fa = a.flops_forward();
        let b = Dense::new(5, 2, Activation::Identity, &mut rng);
        let fb = b.flops_forward();
        let model = Sequential::new().with(a).with(b);
        assert_eq!(model.flops_forward(), fa + fb);
    }

    #[test]
    #[should_panic(expected = "empty model")]
    fn forward_on_empty_model_panics() {
        let mut m = Sequential::new();
        let _ = m.forward(&Matrix::zeros(1, 1), false);
    }
}

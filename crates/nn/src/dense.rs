use orco_tensor::{init::Init, MatView, Matrix, OrcoRng};

use crate::activation::Activation;
use crate::layer::{Layer, Param};

/// A fully-connected layer computing `σ(x·Wᵀ + b)` over a batch.
///
/// This is the building block of the OrcoDCS asymmetric autoencoder: the
/// paper's encoder (eq. 1) is a single `Dense(N, M, Sigmoid)` and the
/// decoder (eq. 3) is one or more `Dense(M, N, Sigmoid)` layers.
///
/// Weights are stored as `(out, in)`, so row `j` holds the weights of output
/// unit `j` — which is also the layout the OrcoDCS encoder distribution
/// (§III-C of the paper) slices into per-device columns.
///
/// Both [`Layer::forward`] and [`Layer::infer_into`] compute `x·Wᵀ` as
/// `x.matmul_into(Wᵀ)`, the blocked axpy GEMM, against a transposed copy
/// of the weight that the layer builds lazily and keeps. Every weight
/// write clears that copy: [`Layer::params`] (the optimiser step,
/// gradient checks, snapshot restores) and [`Dense::set_parts`]. The next
/// forward rebuilds it, so it costs one transpose per weight write, not
/// one per call.
///
/// # Examples
///
/// ```
/// use orco_nn::{Activation, Dense, Layer};
/// use orco_tensor::{Matrix, OrcoRng};
///
/// let mut rng = OrcoRng::from_label("dense-doc", 0);
/// let mut layer = Dense::new(784, 128, Activation::Sigmoid, &mut rng);
/// let batch = Matrix::zeros(16, 784);
/// let latent = layer.forward(&batch, true);
/// assert_eq!(latent.shape(), (16, 128));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Matrix, // (out, in)
    bias: Matrix,   // (1, out)
    grad_weight: Matrix,
    grad_bias: Matrix,
    activation: Activation,
    weight_t: Option<Matrix>, // (in, out), cleared by every weight write
    cached_input: Option<Matrix>,
    cached_pre: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with the default initialization for its
    /// activation (Xavier for sigmoid/tanh/identity, He for ReLU family).
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero.
    #[must_use]
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut OrcoRng,
    ) -> Self {
        let init = match activation {
            Activation::Relu | Activation::LeakyRelu(_) => Init::HeNormal,
            _ => Init::XavierUniform,
        };
        Self::with_init(input_dim, output_dim, activation, init, rng)
    }

    /// Creates a dense layer with an explicit weight initializer.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero.
    #[must_use]
    pub fn with_init(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut OrcoRng,
    ) -> Self {
        assert!(input_dim > 0, "Dense: input_dim must be non-zero");
        assert!(output_dim > 0, "Dense: output_dim must be non-zero");
        Self {
            weight: init.matrix(output_dim, input_dim, rng),
            bias: Matrix::zeros(1, output_dim),
            grad_weight: Matrix::zeros(output_dim, input_dim),
            grad_bias: Matrix::zeros(1, output_dim),
            activation,
            weight_t: None,
            cached_input: None,
            cached_pre: None,
        }
    }

    /// Creates a dense layer from explicit weights and bias.
    ///
    /// Used by the OrcoDCS protocol when reassembling an encoder from
    /// distributed per-device columns.
    ///
    /// # Panics
    ///
    /// Panics if `bias.cols() != weight.rows()` or `bias.rows() != 1`.
    #[must_use]
    pub fn from_parts(weight: Matrix, bias: Matrix, activation: Activation) -> Self {
        assert_eq!(bias.rows(), 1, "Dense: bias must be a row vector");
        assert_eq!(bias.cols(), weight.rows(), "Dense: bias length must equal output dim");
        let (out, inp) = weight.shape();
        Self {
            grad_weight: Matrix::zeros(out, inp),
            grad_bias: Matrix::zeros(1, out),
            weight,
            bias,
            activation,
            weight_t: None,
            cached_input: None,
            cached_pre: None,
        }
    }

    /// The weight matrix, shaped `(output_dim, input_dim)`.
    #[must_use]
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias row vector, shaped `(1, output_dim)`.
    #[must_use]
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// The layer's activation function.
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Overwrites weights and bias (e.g. when applying a model update
    /// received over the network).
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer's dimensions.
    pub fn set_parts(&mut self, weight: Matrix, bias: Matrix) {
        assert_eq!(weight.shape(), self.weight.shape(), "Dense::set_parts: weight shape mismatch");
        assert_eq!(bias.shape(), self.bias.shape(), "Dense::set_parts: bias shape mismatch");
        self.weight = weight;
        self.bias = bias;
        self.weight_t = None;
    }

    fn assert_input_width(&self, cols: usize, method: &str) {
        assert_eq!(
            cols,
            self.weight.cols(),
            "Dense::{method}: input features {cols} != layer input_dim {}",
            self.weight.cols()
        );
    }
}

/// The cached `Wᵀ`, rebuilt from `weight` if a weight write cleared it:
/// the inference path's one allocation, made once per write.
fn transposed<'a>(cache: &'a mut Option<Matrix>, weight: &Matrix) -> &'a Matrix {
    cache.get_or_insert_with(|| weight.transpose())
}

/// `out = x·Wᵀ + b` given `wt = Wᵀ`: one blocked axpy GEMM, then the bias
/// broadcast. `out` is reshaped and fully overwritten.
// orco-lint: region(no-alloc)
fn affine_into(x: MatView<'_>, wt: &Matrix, bias: &Matrix, out: &mut Matrix) {
    out.reset(x.rows(), wt.cols());
    x.matmul_into(wt.as_view(), out.as_view_mut());
    let bias = bias.row(0);
    for r in 0..out.rows() {
        for (v, &b) in out.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
}
// orco-lint: endregion

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix, _train: bool) -> Matrix {
        self.assert_input_width(input.cols(), "forward");
        // pre = x · Wᵀ + b  → (batch, out)
        let mut pre = Matrix::zeros(0, 0);
        let wt = transposed(&mut self.weight_t, &self.weight);
        affine_into(input.as_view(), wt, &self.bias, &mut pre);
        let out = self.activation.apply_matrix(&pre);
        self.cached_input = Some(input.clone());
        self.cached_pre = Some(pre);
        out
    }

    /// `out = σ(x·Wᵀ + b)`: the GEMM and bias of [`Layer::forward`], then
    /// the activation in place. Caches nothing for backward and, once the
    /// cached `Wᵀ` is built and `out` has grown to size, allocates
    /// nothing.
    // orco-lint: region(no-alloc)
    fn infer_into(&mut self, x: MatView<'_>, out: &mut Matrix) {
        self.assert_input_width(x.cols(), "infer_into");
        let wt = transposed(&mut self.weight_t, &self.weight);
        affine_into(x, wt, &self.bias, out);
        self.activation.apply_inplace(out);
    }
    // orco-lint: endregion

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self.cached_input.as_ref().expect("Dense::backward called before forward");
        let pre = self.cached_pre.as_ref().expect("Dense::backward called before forward");
        assert_eq!(
            grad_output.shape(),
            (input.rows(), self.weight.rows()),
            "Dense::backward: grad_output shape mismatch"
        );

        // δ = grad_output ⊙ σ'(pre)         (batch, out)
        let delta = grad_output.hadamard(&self.activation.derivative_matrix(pre));
        // ∂L/∂W = δᵀ · x                    (out, in)
        self.grad_weight += &delta.t_matmul(input);
        // ∂L/∂b = column sums of δ          (1, out)
        let bias_grad = Matrix::row_vector(&delta.col_sums());
        self.grad_bias += &bias_grad;
        // ∂L/∂x = δ · W                     (batch, in)
        delta.matmul(&self.weight)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        // The caller may write through these views: drop the stale `Wᵀ`.
        self.weight_t = None;
        vec![
            Param { value: &mut self.weight, grad: &mut self.grad_weight },
            Param { value: &mut self.bias, grad: &mut self.grad_bias },
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn input_dim(&self) -> usize {
        self.weight.cols()
    }

    fn output_dim(&self) -> usize {
        self.weight.rows()
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn flops_forward(&self) -> u64 {
        let mac = 2 * self.weight.len() as u64; // multiply-accumulate
        let act = self.activation.flops() * self.weight.rows() as u64;
        mac + act
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_known_values() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]).unwrap();
        let b = Matrix::from_vec(1, 2, vec![0.1, -0.1]).unwrap();
        let mut layer = Dense::from_parts(w, b, Activation::Identity);
        let x = Matrix::from_vec(1, 3, vec![2.0, 4.0, 6.0]).unwrap();
        let y = layer.forward(&x, true);
        // [2-6+0.1, 1+2+3-0.1] = [-3.9, 5.9]
        assert!(y.approx_eq(&Matrix::from_vec(1, 2, vec![-3.9, 5.9]).unwrap(), 1e-5));
    }

    #[test]
    fn backward_shapes() {
        let mut rng = OrcoRng::from_label("dense-shapes", 0);
        let mut layer = Dense::new(5, 3, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.1);
        let _ = layer.forward(&x, true);
        let grad_in = layer.backward(&Matrix::ones(4, 3));
        assert_eq!(grad_in.shape(), (4, 5));
        let params = layer.params();
        assert_eq!(params[0].grad.shape(), (3, 5));
        assert_eq!(params[1].grad.shape(), (1, 3));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = OrcoRng::from_label("dense-acc", 0);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        let x = Matrix::ones(1, 2);
        let g = Matrix::ones(1, 2);
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        let after_one = layer.grad_weight.clone();
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        assert!(layer.grad_weight.approx_eq(&after_one.scale(2.0), 1e-5));
        layer.zero_grad();
        assert_eq!(layer.grad_weight.sum(), 0.0);
    }

    #[test]
    fn param_count_and_flops() {
        let mut rng = OrcoRng::from_label("dense-count", 0);
        let layer = Dense::new(784, 128, Activation::Sigmoid, &mut rng);
        assert_eq!(layer.param_count(), 784 * 128 + 128);
        assert!(layer.flops_forward() >= 2 * 784 * 128);
    }

    #[test]
    fn infer_into_bit_identical_to_forward() {
        let mut rng = OrcoRng::from_label("dense-into", 0);
        for activation in [Activation::Sigmoid, Activation::Relu, Activation::Identity] {
            let mut layer = Dense::new(7, 4, activation, &mut rng);
            let x = Matrix::from_fn(9, 7, |r, c| ((r * 11 + c) as f32 * 0.13).sin());
            let reference = layer.forward(&x, false);
            let mut out = Matrix::filled(1, 1, f32::NAN); // dirty reused buffer
            layer.infer_into(x.as_view(), &mut out);
            assert_eq!(out, reference, "{activation:?} batched forward diverged");
            // Per-row views must reproduce the batch rows exactly.
            for r in 0..x.rows() {
                layer.infer_into(MatView::from_row(x.row(r)), &mut out);
                assert_eq!(out.row(0), reference.row(r));
            }
        }
    }

    /// `σ(x·Wᵀ + b)` as a strict-order scalar triple loop: each output is
    /// `0 + x₀w₀ + x₁w₁ + …` in ascending `k`, then the bias, then σ.
    fn reference_forward(layer: &Dense, x: &Matrix) -> Matrix {
        let (w, b) = (layer.weight(), layer.bias().row(0));
        let pre = Matrix::from_fn(x.rows(), w.rows(), |i, j| {
            let mut acc = 0.0f32;
            for k in 0..x.cols() {
                acc += x.row(i)[k] * w.row(j)[k];
            }
            acc + b[j]
        });
        layer.activation().apply_matrix(&pre)
    }

    #[test]
    fn every_forward_form_matches_strict_order_reference() {
        let mut rng = OrcoRng::from_label("dense-reference", 0);
        for (rows, inp, out) in [(1, 7, 4), (8, 128, 784), (64, 784, 128)] {
            let mut layer = Dense::new(inp, out, Activation::Sigmoid, &mut rng);
            // Non-zero bias and a sprinkling of exact zeros in the input.
            let bias = Matrix::from_fn(1, out, |_, j| (j as f32 * 0.37).cos() * 0.1);
            layer.set_parts(layer.weight().clone(), bias);
            let x = Matrix::from_fn(rows, inp, |r, c| {
                if (r + c) % 5 == 0 {
                    0.0
                } else {
                    ((r * 31 + c) as f32 * 0.011).sin()
                }
            });
            let reference = reference_forward(&layer, &x);
            assert_eq!(layer.forward(&x, false), reference, "forward at {rows}x{inp}->{out}");
            let mut got = Matrix::zeros(0, 0);
            layer.infer_into(x.as_view(), &mut got);
            assert_eq!(got, reference, "infer_into at {rows}x{inp}->{out}");
        }
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn forward_rejects_wrong_width() {
        let mut rng = OrcoRng::from_label("dense-bad", 0);
        let mut layer = Dense::new(4, 2, Activation::Identity, &mut rng);
        let _ = layer.forward(&Matrix::zeros(1, 5), true);
    }

    #[test]
    fn set_parts_replaces_weights() {
        let mut rng = OrcoRng::from_label("dense-set", 0);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        let w = Matrix::identity(2);
        let b = Matrix::zeros(1, 2);
        layer.set_parts(w.clone(), b);
        let x = Matrix::from_vec(1, 2, vec![3.0, -4.0]).unwrap();
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }
}

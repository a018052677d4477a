//! `Dense` keeps a lazily built `Wᵀ` for its GEMM. Every weight write must
//! clear it, or inference keeps serving the old weights.
//!
//! Each test warms the cache first, then makes one kind of write: an
//! optimiser step, `set_parts`, `set_encoder_parts`,
//! `EncoderCheckpoint::restore`, a `with_encoder` hot swap, or a `clone`
//! that is then written to. After it, `infer_into` must equal `forward` on
//! a freshly built `Dense` holding the same weights, bit for bit.

use orcodcs_repro::core::{AsymmetricAutoencoder, Codec, EncoderCheckpoint, OrcoConfig};
use orcodcs_repro::datasets::{mnist_like, DatasetKind};
use orcodcs_repro::nn::{Activation, Dense, Layer, Loss, Optimizer};
use orcodcs_repro::tensor::{Matrix, OrcoRng};

fn batch(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * 13 + c * 7 + salt) as f32 * 0.017).sin())
}

/// `σ(x·Wᵀ + b)` through a layer that has never cached anything.
fn fresh_forward(weight: &Matrix, bias: &Matrix, activation: Activation, x: &Matrix) -> Matrix {
    Dense::from_parts(weight.clone(), bias.clone(), activation).forward(x, false)
}

fn assert_serves_live_weights(layer: &mut Dense, x: &Matrix, what: &str) {
    let mut out = Matrix::default();
    layer.infer_into(x.as_view(), &mut out);
    let expected = fresh_forward(layer.weight(), layer.bias(), layer.activation(), x);
    assert_eq!(out, expected, "infer_into served stale weights after {what}");
}

fn warmed_layer(seed: u64) -> (Dense, Matrix) {
    let mut rng = OrcoRng::from_label("infer-cache", seed);
    let mut layer = Dense::new(24, 10, Activation::Sigmoid, &mut rng);
    let x = batch(6, 24, seed as usize);
    let mut out = Matrix::default();
    layer.infer_into(x.as_view(), &mut out); // builds the cached Wᵀ
    (layer, x)
}

fn train_step(layer: &mut Dense, x: &Matrix, optimizer: &mut Optimizer) {
    layer.zero_grad();
    let y = layer.forward(x, true);
    let grad = Loss::L2.grad(&y, &Matrix::zeros(y.rows(), y.cols()));
    let _ = layer.backward(&grad);
    optimizer.step(layer.params());
}

#[test]
fn optimiser_step_clears_the_cache() {
    let (mut layer, x) = warmed_layer(0);
    let mut optimizer = Optimizer::adam(0.05);
    for step in 0..3 {
        train_step(&mut layer, &x, &mut optimizer);
        assert_serves_live_weights(&mut layer, &x, &format!("optimiser step {step}"));
    }
}

#[test]
fn set_parts_clears_the_cache() {
    let (mut layer, x) = warmed_layer(1);
    let weight = layer.weight().map(|w| w * -0.5 + 0.01);
    let bias = Matrix::from_fn(1, 10, |_, j| j as f32 * 0.1);
    layer.set_parts(weight, bias);
    assert_serves_live_weights(&mut layer, &x, "set_parts");
}

#[test]
fn clone_then_write_keeps_both_layers_live() {
    let (mut original, x) = warmed_layer(2);
    let mut copy = original.clone();
    assert_serves_live_weights(&mut copy, &x, "clone");
    train_step(&mut copy, &x, &mut Optimizer::sgd(0.5));
    assert_serves_live_weights(&mut copy, &x, "an optimiser step on a clone");
    assert_serves_live_weights(&mut original, &x, "an optimiser step on its clone");
    assert_ne!(copy.weight(), original.weight(), "the step must have moved the clone");
}

/// An autoencoder whose encoder cache is warm, a batch of frames, and a
/// different encoder (weights and bias) to install.
fn warmed_autoencoder() -> (AsymmetricAutoencoder, Matrix, EncoderCheckpoint) {
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
    let mut ae = AsymmetricAutoencoder::new(&config).expect("valid config");
    let frames = mnist_like::generate(8, 3).x().clone();
    let mut codes = Matrix::default();
    ae.encode_batch(frames.as_view(), &mut codes).expect("frames fit");
    let next = AsymmetricAutoencoder::new(&config.with_seed(99)).expect("valid config");
    let checkpoint = EncoderCheckpoint::capture(&next, "next");
    assert_ne!(&checkpoint.weight, ae.encoder_weight());
    (ae, frames, checkpoint)
}

fn assert_encodes_with(codec: &mut dyn Codec, frames: &Matrix, ckpt: &EncoderCheckpoint) {
    let mut codes = Matrix::default();
    codec.encode_batch(frames.as_view(), &mut codes).expect("frames fit");
    let expected = fresh_forward(&ckpt.weight, &ckpt.bias, Activation::Sigmoid, frames);
    assert_eq!(codes, expected, "{}: encode served the replaced encoder", codec.name());
}

#[test]
fn set_encoder_parts_clears_the_cache() {
    let (mut ae, frames, ckpt) = warmed_autoencoder();
    ae.set_encoder_parts(ckpt.weight.clone(), ckpt.bias.clone());
    assert_encodes_with(&mut ae, &frames, &ckpt);
}

#[test]
fn checkpoint_restore_clears_the_cache() {
    let (mut ae, frames, ckpt) = warmed_autoencoder();
    ckpt.restore(&mut ae).expect("same geometry");
    assert_encodes_with(&mut ae, &frames, &ckpt);
}

#[test]
fn hot_swap_serves_the_new_encoder() {
    let (ae, frames, ckpt) = warmed_autoencoder();
    let mut swapped = ae.with_encoder(&ckpt).expect("same geometry");
    assert_encodes_with(swapped.as_mut(), &frames, &ckpt);
}

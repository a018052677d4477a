//! Golden digests of the GEMM-backed numerical paths.
//!
//! Every other equivalence test compares two code paths of the *current*
//! build with each other, so a change to the shared GEMM kernel that moved
//! both sides alike would pass them all. These digests were captured once
//! from the dot-product (`a · bᵀ`) form of the dense layer and pin its
//! exact f32 output: any later kernel must reproduce it bit for bit.
//!
//! Covered: a fixed-seed MNIST autoencoder (one and two decoder layers,
//! after a few optimiser steps so the live weights are not the initial
//! ones) and DCSNet, each through `encode_batch` → `decode_batch` at 1, 8
//! and 64 rows; and the first 16 `Orchestrator::train_round` losses.

use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::core::{AsymmetricAutoencoder, Codec, Orchestrator, OrcoConfig};
use orcodcs_repro::datasets::{mnist_like, DatasetKind};
use orcodcs_repro::tensor::{fnv1a64, Matrix};
use orcodcs_repro::wsn::NetworkConfig;

const BATCHES: [usize; 3] = [1, 8, 64];

/// FNV-1a over the little-endian bits of every value, in order.
fn digest<'a>(parts: impl IntoIterator<Item = &'a [f32]>) -> u64 {
    let bytes: Vec<u8> =
        parts.into_iter().flatten().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Digest of the codes and reconstructions of `rows` generated frames.
fn roundtrip_digest(codec: &mut dyn Codec, rows: usize) -> u64 {
    let frames = mnist_like::generate(rows, 7);
    let mut codes = Matrix::zeros(0, 0);
    let mut decoded = Matrix::zeros(0, 0);
    codec.encode_batch(frames.x().as_view(), &mut codes).expect("frames fit the codec");
    codec.decode_batch(codes.as_view(), &mut decoded).expect("codes fit the codec");
    digest([codes.as_slice(), decoded.as_slice()])
}

fn trained_autoencoder(decoder_layers: usize) -> AsymmetricAutoencoder {
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike)
        .with_decoder_layers(decoder_layers)
        .with_seed(3);
    let mut ae = AsymmetricAutoencoder::new(&config).expect("valid config");
    let data = mnist_like::generate(16, 5);
    let loss = config.loss();
    for _ in 0..3 {
        let _ = ae.train_batch_local(data.x(), &loss);
    }
    ae
}

fn assert_digests(label: &str, codec: &mut dyn Codec, expected: [u64; 3]) {
    let got = BATCHES.map(|rows| roundtrip_digest(codec, rows));
    assert_eq!(got, expected, "{label}: encode→decode digests at {BATCHES:?} rows moved");
}

#[test]
fn autoencoder_roundtrip_digests_pinned() {
    assert_digests(
        "AE, 1 decoder layer",
        &mut trained_autoencoder(1),
        [10618687856748318487, 16046661354208506024, 17433867286927640418],
    );
}

#[test]
fn deep_autoencoder_roundtrip_digests_pinned() {
    assert_digests(
        "AE, 2 decoder layers",
        &mut trained_autoencoder(2),
        [2334861680845524834, 9583381453401948193, 8302425367349345260],
    );
}

#[test]
fn dcsnet_roundtrip_digests_pinned() {
    assert_digests(
        "DCSNet",
        &mut Dcsnet::new(DatasetKind::MnistLike, 4),
        [416416676950014503, 16115560928706951714, 17387690867968225837],
    );
}

#[test]
fn orchestrated_training_losses_pinned() {
    let config = OrcoConfig::for_dataset(DatasetKind::MnistLike);
    let network = NetworkConfig { num_devices: 16, seed: 0, ..NetworkConfig::default() };
    let mut orch = Orchestrator::new(config, network).expect("valid config");
    let data = mnist_like::generate(64, 9);
    let losses: Vec<f32> = (0..16)
        .map(|round| {
            let batch = data.x().view_rows((round % 2) * 32..(round % 2) * 32 + 32).to_matrix();
            orch.train_round(&batch).expect("round runs").0
        })
        .collect();
    assert_eq!(
        digest([losses.as_slice()]),
        3009777745498119405,
        "first 16 train_round losses moved: {losses:?}"
    );
}

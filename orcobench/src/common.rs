//! What the three workloads share: run options, the served codec, the
//! repeated set-up timer, the host-speed probe, and the GEMM kernel probe.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use orco_datasets::DatasetKind;
use orco_nn::Loss;
use orco_tensor::{MatView, Matrix, OrcoRng};
use orcodcs::{
    AsymmetricAutoencoder, Codec, EncoderCheckpoint, FrameDims, OrcoConfig, OrcoError, SplitModel,
    TrainSpec, TrainingHistory,
};

use crate::probe::{now, Probe};
use crate::report::median;
use crate::wrap::TimedCodec;

/// How a workload is run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Seed of the generated inputs (frames and training samples). Model
    /// weights and the simulated network are fixed, so every seed serves
    /// and trains the same program.
    pub seed: u64,
    /// Length of the measured region, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Self-test only: flip one bit of every `decode_batch` output so the
    /// oracle must fail the run.
    pub corrupt_decode: bool,
}

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// The served and trained model: the paper's MNIST configuration
/// (784 → 128, one decoder layer), with its fixed weight seed.
#[must_use]
pub fn model_config() -> OrcoConfig {
    OrcoConfig::for_dataset(DatasetKind::MnistLike)
}

/// Builds one shard's codec: the bare autoencoder, optionally corrupted
/// (self-test) and optionally timed (traced run).
///
/// # Panics
///
/// Panics if [`model_config`] is invalid, a bug in the benchmark.
#[must_use]
pub fn make_codec(probe: Option<&Arc<Probe>>, shard: usize, corrupt: bool) -> Box<dyn Codec> {
    let ae = AsymmetricAutoencoder::new(&model_config()).expect("the paper config is valid");
    let mut codec: Box<dyn Codec> = Box::new(ae);
    if corrupt {
        codec = Box::new(BitFlipCodec(codec));
    }
    if let Some(p) = probe {
        codec = Box::new(TimedCodec::new(codec, Arc::clone(p), shard));
    }
    codec
}

/// Builds `reps` times, tearing down every build but the last, and
/// returns the last build with each build's duration in seconds at the
/// reference host speed (a [`HostSpeed`] sample follows each build).
///
/// # Errors
///
/// Returns the first build error.
pub fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut host = HostSpeed::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let start = now();
        let built = build()?;
        let took = start.elapsed().as_secs_f64();
        times.push(took / host.sample());
        last = Some(built);
    }
    Ok((last.expect("at least one build ran"), times))
}

/// [`HostSpeed::sample`]'s kernel time, in microseconds, at the reference
/// host speed: its median on the 2-vCPU x86-64 VM the benchmark was tuned
/// on.
pub const HOST_REF_US: f64 = 650.0;

/// How fast the host runs f32 dot products right now, relative to the
/// reference speed.
///
/// A shared host runs CPU-bound code at speeds up to ~40% apart, in phases
/// lasting seconds to minutes, so a closed loop's raw rate swings with the
/// host, not the program. A closed loop samples this probe between its
/// timed rounds and scales each round by the factor: rates are multiplied
/// by it and latencies divided, which reports them at the reference speed.
/// The kernel is the benchmark's own code (strict-order f32 dot products,
/// the instruction mix of the codec's GEMMs, which no codegen flag
/// vectorises), so a change to the program cannot move it.
#[derive(Debug)]
pub struct HostSpeed {
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
    factors: Vec<f64>,
    spent: Duration,
}

impl HostSpeed {
    const M: usize = 16;
    const K: usize = 128;
    const N: usize = 128;
    const PASSES: usize = 4;

    /// Fixed inputs; the first sample also warms them into cache.
    #[must_use]
    pub fn new() -> Self {
        let (m, k, n) = (Self::M, Self::K, Self::N);
        Self {
            a: (0..m * k).map(|i| (i % 17) as f32 * 0.01).collect(),
            b: (0..n * k).map(|i| (i % 13) as f32 * 0.02).collect(),
            out: vec![0.0; m * n],
            factors: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Runs the kernel once and returns the host's slowness factor: the
    /// kernel's time over [`HOST_REF_US`] (above 1 on a slower host).
    pub fn sample(&mut self) -> f64 {
        let start = now();
        for _ in 0..Self::PASSES {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            for (i, out_row) in self.out.chunks_exact_mut(Self::N).enumerate() {
                let ar = &a[i * Self::K..(i + 1) * Self::K];
                for (o, br) in out_row.iter_mut().zip(b.chunks_exact(Self::K)) {
                    *o = black_box(ar.iter().zip(br).map(|(x, y)| x * y).sum::<f32>());
                }
            }
        }
        black_box(&self.out);
        let took = start.elapsed();
        self.spent += took;
        let factor = took.as_secs_f64() * 1e6 / HOST_REF_US;
        self.factors.push(factor);
        factor
    }

    /// Every factor sampled so far.
    #[must_use]
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Wall time spent in [`Self::sample`], to leave out of the ledger.
    #[must_use]
    pub fn spent(&self) -> Duration {
        self.spent
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

/// Throughput of the two GEMM entry points on the served decoder's shape,
/// 64×128 · (784×128)ᵀ, in GFLOP/s: `(matmul_t, matmul_into)`.
#[must_use]
pub fn gemm_gflops() -> (f64, f64) {
    const M: usize = 64;
    const K: usize = 128;
    const N: usize = 784;
    const REPS: usize = 40;
    let mut rng = OrcoRng::from_seed_u64(11);
    let a = Matrix::from_fn(M, K, |_, _| rng.uniform(-1.0, 1.0));
    let b = Matrix::from_fn(N, K, |_, _| rng.uniform(-1.0, 1.0));
    let bt = b.transpose();
    let mut out = Matrix::zeros(M, N);
    let flops = (2 * M * K * N * REPS) as f64;
    let mut t_rates = Vec::new();
    let mut into_rates = Vec::new();
    for _ in 0..7 {
        let start = now();
        for _ in 0..REPS {
            black_box(black_box(&a).matmul_t(black_box(&b)));
        }
        t_rates.push(flops / start.elapsed().as_secs_f64() / 1e9);
        let start = now();
        for _ in 0..REPS {
            black_box(&a).as_view().matmul_into(black_box(&bt).as_view(), out.as_view_mut());
            black_box(&out);
        }
        into_rates.push(flops / start.elapsed().as_secs_f64() / 1e9);
    }
    (median(&t_rates), median(&into_rates))
}

/// A codec that flips the lowest bit of the first element of every
/// `decode_batch` output and otherwise forwards every method unchanged.
/// It exists so the self-test can show the oracle catching a one-bit
/// corruption.
#[derive(Debug)]
pub struct BitFlipCodec(pub Box<dyn Codec>);

impl Codec for BitFlipCodec {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn input_dim(&self) -> usize {
        self.0.input_dim()
    }

    fn bytes_per_frame(&self) -> u64 {
        self.0.bytes_per_frame()
    }

    fn code_len(&self) -> usize {
        self.0.code_len()
    }

    fn frame_dims(&self) -> FrameDims {
        self.0.frame_dims()
    }

    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        self.0.train(x, spec)
    }

    fn encode_frame(&mut self, frame: &[f32]) -> Result<Vec<f32>, OrcoError> {
        self.0.encode_frame(frame)
    }

    fn decode_frame(&mut self, code: &[f32]) -> Result<Vec<f32>, OrcoError> {
        self.0.decode_frame(code)
    }

    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.0.encode_batch(frames, out)
    }

    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.0.decode_batch(codes, out)?;
        if out.rows() > 0 {
            let cell = &mut out.row_mut(0)[0];
            *cell = f32::from_bits(cell.to_bits() ^ 1);
        }
        Ok(())
    }

    fn loss(&self) -> Loss {
        self.0.loss()
    }

    fn reconstruct(&mut self, x: &Matrix) -> Result<Matrix, OrcoError> {
        self.0.reconstruct(x)
    }

    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        self.0.split_model()
    }

    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        self.0.checkpoint()
    }

    fn with_encoder(&self, checkpoint: &EncoderCheckpoint) -> Result<Box<dyn Codec>, OrcoError> {
        Ok(Box::new(Self(self.0.with_encoder(checkpoint)?)))
    }
}

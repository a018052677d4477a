//! `train-online`: the paper's orchestrated online training (§III-B).
//!
//! `Orchestrator::train_round` runs back to back on 32-sample batches of a
//! generated MNIST-like set, with the paper's MNIST `OrcoConfig` and a
//! 16-device simulated network. It bypasses every serving layer and runs
//! the training forms of the codec's GEMMs: a serving-only change should
//! not move it, a shared-kernel change must.

use std::sync::Arc;
use std::time::Duration;

use orco_datasets::mnist_like;
use orco_tensor::Matrix;
use orco_wsn::{DeploymentBackend, Network, NetworkConfig};
use orcodcs::{AsymmetricAutoencoder, Orchestrator, SplitModel};

use crate::common::{model_config, timed_setup, HostSpeed, Opts, SETUP_REPS};
use crate::layers::Layers;
use crate::probe::{now, series, Log, Probe};
use crate::report::{median, ratio, spread_note, Metrics, Outcome};
use crate::wrap::{TimedBackend, TimedSplit};

/// Generated training samples per run, cycled through in order.
const SAMPLES: usize = 256;
/// Rounds per throughput window; `frames_per_s` is the window median.
const WINDOW: usize = 8;
/// Rounds per freshness window (about a second): ten rounds beyond each
/// window's p90.
const FRESH_WINDOW: usize = 100;
/// Rounds whose modelled (simulated) time `wsn.sim_s_per_round` averages.
const SIM_ROUNDS: usize = 16;

/// The simulated deployment: 16 devices on the default field, fixed seed.
#[must_use]
pub fn network_config() -> NetworkConfig {
    NetworkConfig { num_devices: 16, seed: 0, ..NetworkConfig::default() }
}

/// When a drive stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    After(Duration),
    Rounds(usize),
}

#[derive(Debug, Default)]
struct Drive {
    setup: Vec<f64>,
    losses: Vec<f32>,
    sim_s: Vec<f64>,
    /// Per round, `train_round` wall time.
    round_ms: Vec<f64>,
    /// Per round of a complete window, `train_round` time at the
    /// reference host speed.
    fresh_ms: Vec<f64>,
    /// Per window, samples per second at the reference host speed.
    window_rates: Vec<f64>,
    /// Per window, samples per wall second.
    raw_rates: Vec<f64>,
    host: HostSpeed,
    /// Wall time of the drive, less the host-speed probe's.
    wall: Duration,
    flops_per_round: f64,
    log: Log,
}

/// Runs the workload; see [`crate::run`].
#[must_use]
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    if !opts.trace {
        let Some(d) = measure(opts, Stop::After(secs(opts.seconds)), None, &mut out) else {
            return out;
        };
        let mut m = Metrics::default();
        m.push(
            "setup_s",
            median(&d.setup),
            "s",
            spread_note(&d.setup, "set-ups, at reference host speed"),
        );
        let fps = median(&d.window_rates);
        m.push(
            "frames_per_s",
            fps,
            "1/s",
            format!(
                "train_samples_per_s, {}",
                spread_note(
                    &d.window_rates,
                    &format!("windows of {WINDOW} rounds, at reference host speed")
                )
            ),
        );
        out.metrics = m;
        out.info.push(
            "train_samples_per_s",
            fps,
            "1/s",
            "the training throughput, as frames_per_s",
        );
        out.freshness(&d.fresh_ms, FRESH_WINDOW, "train_round latency, at reference host speed");
        out.host_speed(&d.raw_rates, d.host.factors(), &format!("windows of {WINDOW} rounds"));
        return out;
    }
    let Some(bare) = measure(opts, Stop::After(secs(opts.seconds / 2.0)), None, &mut out) else {
        return out;
    };
    let probe = Arc::new(Probe::default());
    let Some(traced) = measure(opts, Stop::Rounds(bare.losses.len()), Some(&probe), &mut out)
    else {
        return out;
    };
    let same = bare.losses.len() == traced.losses.len()
        && bare.losses.iter().zip(&traced.losses).all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        out.problem("traced and untraced training diverged: the wrappers are not transparent");
        out.failed += 1;
    }

    let log = &traced.log;
    let rounds = traced.losses.len() as f64;
    let ms_per_call = |name| ratio(log.total(name).as_secs_f64() * 1e3, log.calls(name) as f64);
    let split = [series::ENC_FWD, series::DEC_FWD, series::DEC_BWD, series::ENC_BWD]
        .iter()
        .map(|s| log.total(s).as_secs_f64())
        .sum::<f64>();
    let wsn = (log.total(series::TRANSMIT) + log.total(series::COMPUTE)).as_secs_f64();
    let rounds_total = traced.round_ms.iter().sum::<f64>() / 1e3;
    let wall = traced.wall.as_secs_f64();
    let mut l = Layers {
        split_enc_fwd_ms: ms_per_call(series::ENC_FWD),
        split_dec_fwd_ms: ms_per_call(series::DEC_FWD),
        split_dec_bwd_ms: ms_per_call(series::DEC_BWD),
        split_enc_bwd_ms: ms_per_call(series::ENC_BWD),
        split_gflops: ratio(traced.flops_per_round * rounds, split * 1e9),
        orch_self_ms: ratio((rounds_total - split - wsn) * 1e3, rounds),
        wsn_us_per_round: ratio(wsn * 1e6, rounds),
        wsn_sim_s_per_round: ratio(
            traced.sim_s.iter().take(SIM_ROUNDS).sum::<f64>(),
            traced.sim_s.len().min(SIM_ROUNDS) as f64,
        ),
        residual_frac: ratio(wall - rounds_total, wall),
        trace_overhead_frac: 1.0 - ratio(median(&traced.window_rates), median(&bare.window_rates)),
        ..Layers::default()
    };
    (l.matmul_t_gflops, l.matmul_into_gflops) = crate::common::gemm_gflops();
    out.metrics = l.metrics();
    out
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

fn batches(seed: u64, batch: usize) -> Vec<Matrix> {
    let data = mnist_like::generate(SAMPLES, seed);
    let idx: Vec<usize> = (0..SAMPLES).collect();
    idx.chunks(batch).map(|c| data.x().select_rows(c)).collect()
}

fn measure(
    opts: &Opts,
    stop: Stop,
    probe: Option<&Arc<Probe>>,
    out: &mut Outcome,
) -> Option<Drive> {
    let cfg = model_config();
    let result = match probe {
        None => {
            let build = || -> Result<_, String> {
                let b = batches(opts.seed, cfg.batch_size);
                let orch =
                    Orchestrator::new(cfg.clone(), network_config()).map_err(|e| e.to_string())?;
                Ok((b, orch))
            };
            timed_setup(SETUP_REPS, build, drop).map(|((b, mut orch), setup)| {
                let mut d = drive(&mut orch, &b, stop, out);
                d.setup = setup;
                d
            })
        }
        Some(p) => {
            let build = || -> Result<_, String> {
                let b = batches(opts.seed, cfg.batch_size);
                let ae = AsymmetricAutoencoder::new(&cfg).map_err(|e| e.to_string())?;
                let orch = Orchestrator::with_parts(
                    TimedSplit::new(ae, Arc::clone(p)),
                    cfg.clone(),
                    cfg.loss(),
                    TimedBackend::new(Network::new(network_config()), Arc::clone(p)),
                );
                Ok((b, orch))
            };
            timed_setup(SETUP_REPS, build, drop).map(|((b, mut orch), setup)| {
                p.take();
                let mut d = drive(&mut orch, &b, stop, out);
                d.setup = setup;
                d.log = p.take();
                d
            })
        }
    };
    match result {
        Ok(d) => Some(d),
        Err(e) => {
            out.problem(format!("training set-up failed: {e}"));
            None
        }
    }
}

fn drive<M: SplitModel, D: DeploymentBackend>(
    orch: &mut Orchestrator<M, D>,
    batches: &[Matrix],
    stop: Stop,
    out: &mut Outcome,
) -> Drive {
    let batch = batches[0].rows();
    let model = orch.model();
    let flops_per_round = (batch as u64
        * (model.encoder_flops_forward()
            + model.decoder_flops_forward()
            + model.decoder_flops_backward()
            + model.encoder_flops_backward())) as f64;
    let mut d = Drive { flops_per_round, ..Drive::default() };
    let start = now();
    let mut window_start = start;
    loop {
        let done = match stop {
            Stop::After(limit) => start.elapsed() >= limit,
            Stop::Rounds(n) => d.losses.len() >= n,
        };
        if done {
            break;
        }
        let b = &batches[d.losses.len() % batches.len()];
        out.attempted += 1;
        let t = now();
        match orch.train_round(b) {
            Ok((loss, sim_s)) => {
                d.round_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if !loss.is_finite() {
                    out.failed += 1;
                    out.problem(format!("round {} produced a non-finite loss", d.losses.len()));
                }
                d.losses.push(loss);
                d.sim_s.push(sim_s);
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("round {} failed: {e}", d.losses.len()));
                break;
            }
        }
        if d.losses.len().is_multiple_of(WINDOW) {
            let raw = (WINDOW * batch) as f64 / window_start.elapsed().as_secs_f64();
            let slowness = d.host.sample();
            d.raw_rates.push(raw);
            d.window_rates.push(raw * slowness);
            let window = &d.round_ms[d.round_ms.len() - WINDOW..];
            d.fresh_ms.extend(window.iter().map(|ms| ms / slowness));
            window_start = now();
        }
    }
    d.wall = start.elapsed() - d.host.spent();
    d
}

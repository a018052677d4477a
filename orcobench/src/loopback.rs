//! `loopback-b64`: closed-loop serving through the in-process transport.
//!
//! One client pushes one frame per request to 4 clusters round-robin and,
//! after every [`ROUND`] pushes, drains every cluster in 64-row pulls. The
//! gateway has 1 shard, flushes at 64 rows or after 50 ms of a manual
//! clock, and records no spans. This is `serve_throughput`'s `batch-64`
//! configuration: no sockets and no threads, so the codec dominates and a
//! kernel or codec gain shows here first.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orco_datasets::mnist_like;
use orco_serve::{
    Client, Clock, Connection, Gateway, GatewayConfig, Loopback, LoopbackConnection, PushOutcome,
    Service, StatsSnapshot, Transport,
};
use orco_tensor::Matrix;

use crate::common::{make_codec, timed_setup, HostSpeed, Opts, SETUP_REPS};
use crate::layers::Layers;
use crate::oracle::{reference_decode, Deliveries};
use crate::probe::{now, series, Log, Probe};
use crate::report::{median, ratio, spread_note, Metrics, Outcome};
use crate::wrap::{TimedConnection, TimedService};

/// Clusters pushed round-robin.
pub const CLUSTERS: [u64; 4] = [3, 19, 42, 77];
/// Distinct frames generated per run and cycled through.
const POOL: usize = 1024;
/// Pushes between two drains; also the unit of the throughput median.
const ROUND: usize = 1024;
/// Frames per freshness window (about a second).
const FRESH_WINDOW: usize = 10 * ROUND;
/// Rows per pull.
const PULL: u32 = 64;

/// The gateway under test.
#[must_use]
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        shards: 1,
        batch_max_frames: 64,
        batch_deadline: Duration::from_millis(50),
        trace_capacity: 0,
        ..GatewayConfig::default()
    }
}

struct Run {
    setup: Vec<f64>,
    /// Per round, frames per second at the reference host speed.
    round_rates: Vec<f64>,
    /// Per round, frames per wall second.
    raw_rates: Vec<f64>,
    host: HostSpeed,
    fresh_ms: Vec<f64>,
    wall: Duration,
    stats: StatsSnapshot,
    log: Log,
}

/// Runs the workload; see [`crate::run`].
#[must_use]
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    if !opts.trace {
        let Some(r) = measure(opts, opts.seconds, None, &mut out) else { return out };
        let mut m = Metrics::default();
        m.push(
            "setup_s",
            median(&r.setup),
            "s",
            spread_note(&r.setup, "set-ups, at reference host speed"),
        );
        m.push(
            "frames_per_s",
            median(&r.round_rates),
            "1/s",
            spread_note(
                &r.round_rates,
                &format!("rounds of {ROUND} frames, at reference host speed"),
            ),
        );
        out.metrics = m;
        out.freshness(&r.fresh_ms, FRESH_WINDOW, "push to decoded pull, at reference host speed");
        out.host_speed(&r.raw_rates, r.host.factors(), &format!("rounds of {ROUND} frames"));
        return out;
    }
    let half = opts.seconds / 2.0;
    let Some(bare) = measure(opts, half, None, &mut out) else { return out };
    let probe = Arc::new(Probe::default());
    let Some(traced) = measure(opts, half, Some(&probe), &mut out) else { return out };
    let frames = traced.stats.frames_out as f64;
    let log = &traced.log;
    let mut l = Layers::default();
    l.fill_codec(log, make_codec(None, 0, false).frame_dims());
    l.fill_gateway(&traced.stats);
    let handle = log.total(series::HANDLE).as_secs_f64();
    let request = log.total(series::REQUEST).as_secs_f64();
    let nested_codec =
        (log.nested_total(series::ENCODE) + log.nested_total(series::DECODE)).as_secs_f64();
    l.gateway_self_us_per_frame = ratio((handle - nested_codec) * 1e6, frames);
    l.wire_client_us_per_frame = ratio((request - handle) * 1e6, frames);
    let wall = (traced.wall - traced.host.spent()).as_secs_f64();
    l.residual_frac = ratio(wall - request, wall);
    l.trace_overhead_frac = 1.0 - ratio(median(&traced.round_rates), median(&bare.round_rates));
    (l.matmul_t_gflops, l.matmul_into_gflops) = crate::common::gemm_gflops();
    out.metrics = l.metrics();
    out
}

/// One measured run; `None` (with `out` marked) if set-up failed.
fn measure(
    opts: &Opts,
    seconds: f64,
    probe: Option<&Arc<Probe>>,
    out: &mut Outcome,
) -> Option<Run> {
    let result = match probe {
        None => measure_with(opts, seconds, None, |g| g, |c| c),
        Some(p) => measure_with(
            opts,
            seconds,
            Some(p),
            |g| Arc::new(TimedService::new(g, Arc::clone(p))),
            |c| TimedConnection::new(c, Arc::clone(p)),
        ),
    };
    match result {
        Ok((run, part)) => {
            out.absorb(part);
            Some(run)
        }
        Err(e) => {
            out.problem(format!("loopback set-up failed: {e}"));
            None
        }
    }
}

fn measure_with<S, C>(
    opts: &Opts,
    seconds: f64,
    probe: Option<&Arc<Probe>>,
    wrap_service: impl Fn(Arc<Gateway>) -> Arc<S>,
    wrap_conn: impl Fn(LoopbackConnection<S>) -> C,
) -> Result<(Run, Outcome), String>
where
    S: Service + 'static,
    C: Connection,
{
    let corrupt = opts.corrupt_decode;
    let build = || -> Result<(Matrix, Arc<Gateway>, Client<C>), String> {
        let pool = mnist_like::generate(POOL, opts.seed).x().clone();
        let gateway = Arc::new(
            Gateway::new(gateway_config(), Clock::manual(Duration::from_micros(100)), |shard| {
                make_codec(probe, shard, corrupt)
            })
            .map_err(|e| e.to_string())?,
        );
        let conn = Loopback::new(wrap_service(Arc::clone(&gateway)))
            .connect()
            .map_err(|e| e.to_string())?;
        let mut client = Client::from_connection(wrap_conn(conn));
        client.hello(1).map_err(|e| e.to_string())?;
        Ok((pool, gateway, client))
    };
    let ((pool, gateway, mut client), setup) = timed_setup(SETUP_REPS, build, drop)?;
    if let Some(p) = probe {
        p.take();
    }

    let mut part = Outcome::default();
    let mut deliveries = Deliveries::new(CLUSTERS.len());
    let mut pushed_at: Vec<VecDeque<Instant>> = vec![VecDeque::new(); CLUSTERS.len()];
    let mut fresh_ms = Vec::new();
    let mut round_rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut host = HostSpeed::new();
    let mut i = 0usize;
    let start = now();
    let stop_at = start + Duration::from_secs_f64(seconds);
    loop {
        let round_fresh = fresh_ms.len();
        let round_start = now();
        for _ in 0..ROUND {
            let c = i % CLUSTERS.len();
            let row = i % POOL;
            i += 1;
            part.attempted += 1;
            let t = now();
            match client.push(CLUSTERS[c], pool.view_rows(row..row + 1)) {
                Ok(PushOutcome::Accepted(_)) => {
                    deliveries.expect(c, row, 1);
                    pushed_at[c].push_back(t);
                }
                Ok(refused) => {
                    part.failed += 1;
                    part.problem(format!("push refused: {refused:?}"));
                }
                Err(e) => {
                    part.failed += 1;
                    part.problem(format!("push failed: {e}"));
                }
            }
        }
        for (c, &cluster) in CLUSTERS.iter().enumerate() {
            loop {
                match client.pull(cluster, PULL) {
                    Ok(frames) if frames.rows() == 0 => break,
                    Ok(frames) => {
                        let t = now();
                        for _ in 0..frames.rows() {
                            if let Some(p) = pushed_at[c].pop_front() {
                                fresh_ms.push((t - p).as_secs_f64() * 1e3);
                            }
                        }
                        deliveries.deliver(c, &frames);
                    }
                    Err(e) => {
                        part.failed += 1;
                        part.problem(format!("pull failed: {e}"));
                        break;
                    }
                }
            }
        }
        let raw = ROUND as f64 / round_start.elapsed().as_secs_f64();
        let slowness = host.sample();
        raw_rates.push(raw);
        round_rates.push(raw * slowness);
        for f in &mut fresh_ms[round_fresh..] {
            *f /= slowness;
        }
        if now() >= stop_at {
            break;
        }
    }
    let wall = start.elapsed();
    let log = probe.map(|p| p.take()).unwrap_or_default();
    let stats = gateway.stats();

    let reference = reference_decode(make_codec(None, 0, false).as_mut(), &pool);
    deliveries.check(&reference, &mut part);
    Ok((Run { setup, round_rates, raw_rates, host, fresh_ms, wall, stats, log }, part))
}

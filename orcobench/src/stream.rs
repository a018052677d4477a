//! `tcp-stream-2k`: open-loop streaming over real TCP sockets.
//!
//! The gateway runs the deployed edge configuration,
//! `GatewayConfig::default()` (2 shards, batch 64, 5 ms deadline, 4096-span
//! trace ring), behind a `TcpServer`. One pusher thread sends 8-row pushes
//! for 8 clusters round-robin on a fixed schedule of 2,000 frames/s; one
//! subscriber connection receives every cluster's `StreamFrames`. Every
//! flush here is deadline-driven at a few rows, so small-batch GEMMs, the
//! deadline flusher, the outbox writer and the socket hops dominate.
//!
//! Freshness is timed from each frame's *scheduled* push time, so a stall
//! also counts against the frames queued behind it.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orco_datasets::mnist_like;
use orco_serve::{
    Client, Clock, Connection, Gateway, GatewayConfig, PushOutcome, Service, StatsSnapshot, Tcp,
    TcpConnection, TcpServer, Transport,
};
use orco_tensor::Matrix;

use crate::common::{make_codec, timed_setup, Opts, SETUP_REPS};
use crate::layers::Layers;
use crate::oracle::{reference_decode, Deliveries};
use crate::probe::{fingerprint, now, series, Event, Log, Probe};
use crate::report::{median, quantile, ratio, spread_note, Metrics, Outcome};
use crate::wrap::{TimedConnection, TimedService};

/// Streamed clusters; 4 hash to each of the 2 shards.
pub const CLUSTERS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Offered load, frames per second.
pub const RATE: f64 = 2000.0;
/// Rows per push.
const ROWS: usize = 8;
/// Distinct frames generated per run and cycled through.
const POOL: usize = 2048;
/// Frames per freshness window (one second of offered load).
const FRESH_WINDOW: usize = RATE as usize;
/// How long the subscriber waits for stragglers after the last push.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// The gateway under test: the deployed default.
#[must_use]
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig::default()
}

/// One push as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Push {
    cluster: usize,
    due: Instant,
    accepted: bool,
}

/// One `StreamFrames` as the subscriber saw it.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    cluster: usize,
    at: Instant,
    rows: usize,
    first_fp: u64,
}

struct Run {
    setup: Vec<f64>,
    /// Per delivered row: scheduled push time → arrival at the subscriber.
    fresh_ms: Vec<f64>,
    frames_per_s: f64,
    max_lag: Duration,
    pushes: Vec<Push>,
    arrivals: Vec<Arrival>,
    /// Per cluster, the push index of each accepted row.
    row_push: Vec<Vec<usize>>,
    shard_of: Vec<usize>,
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
            r.frames_per_s,
            "1/s",
            format!("delivered at an offered {RATE} frames/s"),
        );
        out.metrics = m;
        out.freshness(&r.fresh_ms, FRESH_WINDOW, "scheduled push to subscriber");
        return out;
    }
    let half = opts.seconds / 2.0;
    let Some(bare) = measure(opts, half, None, &mut out) else { return out };
    let probe = Arc::new(Probe::default());
    let Some(traced) = measure(opts, half, Some(&probe), &mut out) else { return out };
    let mut l = Layers::default();
    l.fill_codec(&traced.log, make_codec(None, 0, false).frame_dims());
    l.fill_gateway(&traced.stats);
    fill_transport(&traced, &mut l);
    l.gen_lag_ms = traced.max_lag.as_secs_f64() * 1e3;
    l.trace_overhead_frac =
        ratio(quantile(&traced.fresh_ms, 0.5), quantile(&bare.fresh_ms, 0.5)) - 1.0;
    (l.matmul_t_gflops, l.matmul_into_gflops) = crate::common::gemm_gflops();
    out.metrics = l.metrics();
    out
}

/// Per-layer transport, delivery and ledger figures of a traced run.
///
/// Each delivered row's freshness splits into segments that telescope:
/// generator lag (due → send), transit (send → `handle_frame` entry),
/// batch wait (→ its `encode_batch` start), encode, hand-off (→ the
/// `decode_batch` start), decode, and delivery (→ subscriber arrival).
/// Every segment but the hand-off is timed at a named seam, so the
/// hand-off is the ledger's residual.
fn fill_transport(r: &Run, l: &mut Layers) {
    let log = &r.log;
    let requests = sorted(log.events(series::REQUEST));
    let handles = sorted(log.events(series::HANDLE));
    let rtt_us: Vec<f64> = requests.iter().map(|e| e.dur().as_secs_f64() * 1e6).collect();
    l.push_rtt_p50_us = quantile(&rtt_us, 0.5);
    l.push_rtt_p99_us = quantile(&rtt_us, 0.99);
    let own: Vec<f64> = requests
        .iter()
        .zip(&handles)
        .map(|(q, h)| (q.dur().as_secs_f64() - h.dur().as_secs_f64()) * 1e6)
        .collect();
    l.transport_self_us = median(&own);
    let frames = r.arrivals.iter().map(|a| a.rows).sum::<usize>() as f64;
    let handle_s: f64 = handles.iter().map(|e| e.dur().as_secs_f64()).sum();
    let nested_codec =
        (log.nested_total(series::ENCODE) + log.nested_total(series::DECODE)).as_secs_f64();
    l.gateway_self_us_per_frame = ratio((handle_s - nested_codec) * 1e6, frames);

    // Decode calls by the fingerprint of their first row, in call order.
    let mut decodes: BTreeMap<u64, VecDeque<Event>> = BTreeMap::new();
    for e in sorted(log.events(series::DECODE)) {
        decodes.entry(e.tag).or_default().push_back(e);
    }
    // Encode call of each accepted push: a shard flushes all its pending
    // rows at once, and one push's rows are enqueued atomically.
    let encode_of = encode_per_push(r, &sorted(log.events(series::ENCODE)));
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let mut deliver_ms = Vec::new();
    let mut seg = [0.0f64; 7];
    let mut fresh_sum = 0.0;
    let mut rows = 0usize;
    let mut cursor = vec![0usize; CLUSTERS.len()];
    for a in &r.arrivals {
        let first = cursor[a.cluster];
        cursor[a.cluster] += a.rows;
        let Some(dec) = decodes.get_mut(&a.first_fp).and_then(VecDeque::pop_front) else {
            continue;
        };
        deliver_ms.push(ms(dec.end, a.at));
        if handles.len() != r.pushes.len() || requests.len() != r.pushes.len() {
            continue;
        }
        for j in first..first + a.rows {
            let Some(&k) = r.row_push[a.cluster].get(j) else { continue };
            let Some(enc) = encode_of.get(k).copied().flatten() else { continue };
            let (due, send, entry) = (r.pushes[k].due, requests[k].start, handles[k].start);
            let parts = [
                ms(due, send),
                ms(send, entry),
                ms(entry, enc.start),
                ms(enc.start, enc.end),
                ms(enc.end, dec.start),
                ms(dec.start, dec.end),
                ms(dec.end, a.at),
            ];
            for (s, p) in seg.iter_mut().zip(parts) {
                *s += p;
            }
            fresh_sum += ms(due, a.at);
            rows += 1;
        }
    }
    l.stream_deliver_ms = median(&deliver_ms);
    let n = rows as f64;
    l.batch_wait_ms = ratio(seg[2], n);
    let named = seg[0] + seg[1] + seg[2] + seg[3] + seg[5] + seg[6];
    l.residual_frac = ratio(fresh_sum - named, fresh_sum);
}

fn sorted(events: &[Event]) -> Vec<Event> {
    let mut v = events.to_vec();
    v.sort_by_key(|e| e.start);
    v
}

/// For each push, the encode call that carried its rows (`None` for a
/// refused push or when the call sequence does not line up).
fn encode_per_push(r: &Run, encodes: &[Event]) -> Vec<Option<Event>> {
    let shards = r.shard_of.iter().max().map_or(1, |m| m + 1);
    let mut per_shard: Vec<VecDeque<Event>> = vec![VecDeque::new(); shards];
    for e in encodes {
        if let Some(q) = per_shard.get_mut(e.shard as usize) {
            q.push_back(*e);
        }
    }
    let mut left = vec![0usize; shards];
    let mut current: Vec<Option<Event>> = vec![None; shards];
    r.pushes
        .iter()
        .map(|p| {
            if !p.accepted {
                return None;
            }
            let s = r.shard_of[p.cluster];
            if left[s] == 0 {
                let e = per_shard[s].pop_front()?;
                left[s] = e.rows as usize;
                current[s] = Some(e);
            }
            left[s] = left[s].checked_sub(ROWS)?;
            current[s]
        })
        .collect()
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
            out.problem(format!("tcp set-up failed: {e}"));
            None
        }
    }
}

struct Rig<C: Connection> {
    pool: Matrix,
    gateway: Arc<Gateway>,
    server: TcpServer,
    pusher: Client<C>,
    subscriber: Client<TcpConnection>,
}

fn teardown<C: Connection>(rig: Rig<C>) -> Result<(), String> {
    close(rig.pusher, rig.subscriber, rig.server)
}

/// Shuts the gateway down through the pusher, closes both connections and
/// joins the server's threads.
fn close<C: Connection>(
    mut pusher: Client<C>,
    subscriber: Client<TcpConnection>,
    server: TcpServer,
) -> Result<(), String> {
    let result = pusher.shutdown().map_err(|e| format!("shutdown failed: {e}"));
    drop(subscriber);
    drop(pusher);
    server.join();
    result
}

fn measure_with<S, C>(
    opts: &Opts,
    seconds: f64,
    probe: Option<&Arc<Probe>>,
    wrap_service: impl Fn(Arc<Gateway>) -> Arc<S>,
    wrap_conn: impl Fn(TcpConnection) -> C,
) -> Result<(Run, Outcome), String>
where
    S: Service + 'static,
    C: Connection + Send,
{
    let corrupt = opts.corrupt_decode;
    let build = || -> Result<Rig<C>, String> {
        let pool = mnist_like::generate(POOL, opts.seed).x().clone();
        let gateway = Arc::new(
            Gateway::new(gateway_config(), Clock::real(), |shard| {
                make_codec(probe, shard, corrupt)
            })
            .map_err(|e| e.to_string())?,
        );
        let server = TcpServer::spawn_service(wrap_service(Arc::clone(&gateway)), "127.0.0.1:0")
            .map_err(|e| e.to_string())?;
        let tcp = Tcp::new(server.local_addr().to_string());
        let connect = || -> Result<(Client<C>, Client<TcpConnection>), String> {
            let mut pusher =
                Client::from_connection(wrap_conn(tcp.connect().map_err(|e| e.to_string())?));
            pusher.hello(1).map_err(|e| e.to_string())?;
            let mut subscriber = Client::connect(&tcp).map_err(|e| e.to_string())?;
            subscriber.hello(2).map_err(|e| e.to_string())?;
            for &c in &CLUSTERS {
                subscriber.subscribe(c).map_err(|e| e.to_string())?;
            }
            Ok((pusher, subscriber))
        };
        match connect() {
            Ok((pusher, subscriber)) => Ok(Rig { pool, gateway, server, pusher, subscriber }),
            Err(e) => {
                stop_server(server.local_addr());
                server.join();
                Err(e)
            }
        }
    };
    let mut teardown_error = None;
    let (rig, setup) = timed_setup(SETUP_REPS, build, |r| {
        if let Err(e) = teardown(r) {
            teardown_error.get_or_insert(e);
        }
    })?;
    if let Some(e) = teardown_error {
        let _ = teardown(rig);
        return Err(e);
    }
    if let Some(p) = probe {
        p.take();
    }
    let Rig { pool, gateway, server, mut pusher, mut subscriber } = rig;
    let shard_of: Vec<usize> = CLUSTERS.iter().map(|&c| gateway.shard_of(c)).collect();

    let mut part = Outcome::default();
    let mut expected = Deliveries::new(CLUSTERS.len());
    let mut pushes = Vec::new();
    let mut row_push: Vec<Vec<usize>> = vec![Vec::new(); CLUSTERS.len()];
    let mut max_lag = Duration::ZERO;
    let interval = Duration::from_secs_f64(ROWS as f64 / RATE);
    let n_pushes = ((seconds * RATE) as usize / ROWS).max(1);
    let (done_tx, done_rx) = mpsc::channel::<Vec<usize>>();
    let t0 = now() + Duration::from_millis(2);

    let sub = std::thread::scope(|scope| {
        // Owned by this closure so that it closes, and the subscriber
        // stops, even if the generator below unwinds.
        let done_tx = done_tx;
        let sub_client = &mut subscriber;
        let sub = scope.spawn(move || subscribe_loop(sub_client, &done_rx));
        for k in 0..n_pushes {
            let due = t0 + interval * u32::try_from(k).expect("push count fits u32");
            let wait = due.saturating_duration_since(now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            max_lag = max_lag.max(now().saturating_duration_since(due));
            let c = k % CLUSTERS.len();
            let first = (k * ROWS) % POOL;
            part.attempted += ROWS as u64;
            let accepted = match pusher.push(CLUSTERS[c], pool.view_rows(first..first + ROWS)) {
                Ok(PushOutcome::Accepted(_)) => true,
                Ok(refused) => {
                    part.problem(format!("push refused: {refused:?}"));
                    false
                }
                Err(e) => {
                    part.problem(format!("push failed: {e}"));
                    false
                }
            };
            if accepted {
                expected.expect(c, first, ROWS);
                row_push[c].extend(std::iter::repeat_n(k, ROWS));
            } else {
                part.failed += ROWS as u64;
            }
            pushes.push(Push { cluster: c, due, accepted });
        }
        let counts = (0..CLUSTERS.len()).map(|c| expected.expected(c)).collect();
        // The subscriber also stops on a closed channel, so a failed send
        // only means it has already given up.
        let _ = done_tx.send(counts);
        sub.join()
    });
    let log = probe.map(|p| p.take()).unwrap_or_default();
    let stats = gateway.stats();
    let shutdown = close(pusher, subscriber, server);
    let (mut delivered, arrivals, stream_errors) =
        sub.map_err(|_| "subscriber thread panicked".to_string())?;
    if let Err(e) = shutdown {
        part.problem(e);
    }
    if stream_errors > 0 {
        part.failed += stream_errors;
        part.problem(format!("{stream_errors} stream read errors"));
    }

    let mut fresh_ms = Vec::new();
    let mut cursor = vec![0usize; CLUSTERS.len()];
    for a in &arrivals {
        for j in cursor[a.cluster]..cursor[a.cluster] + a.rows {
            if let Some(&k) = row_push[a.cluster].get(j) {
                fresh_ms.push(a.at.saturating_duration_since(pushes[k].due).as_secs_f64() * 1e3);
            }
        }
        cursor[a.cluster] += a.rows;
    }
    let span = arrivals.last().map_or(0.0, |a| a.at.saturating_duration_since(t0).as_secs_f64());
    let frames_per_s = ratio(delivered.total_delivered() as f64, span);

    delivered.adopt_expected(&expected);
    let reference = reference_decode(make_codec(None, 0, false).as_mut(), &pool);
    delivered.check(&reference, &mut part);
    Ok((
        Run {
            setup,
            fresh_ms,
            frames_per_s,
            max_lag,
            pushes,
            arrivals,
            row_push,
            shard_of,
            stats,
            log,
        },
        part,
    ))
}

/// Receives streamed batches until every expected row has arrived, or
/// [`DRAIN_GRACE`] after the generator finished. Returns the deliveries,
/// the arrivals, and the number of stream read errors.
fn subscribe_loop(
    sub: &mut Client<TcpConnection>,
    done: &mpsc::Receiver<Vec<usize>>,
) -> (Deliveries, Vec<Arrival>, u64) {
    let mut delivered = Deliveries::new(CLUSTERS.len());
    let mut arrivals = Vec::new();
    let mut errors = 0u64;
    let mut finished: Option<(Vec<usize>, Instant)> = None;
    loop {
        if finished.is_none() {
            match done.try_recv() {
                Ok(counts) => finished = Some((counts, now())),
                Err(mpsc::TryRecvError::Disconnected) => finished = Some((Vec::new(), now())),
                Err(mpsc::TryRecvError::Empty) => {}
            }
        }
        if let Some((counts, at)) = &finished {
            let all = !counts.is_empty()
                && counts.iter().enumerate().all(|(c, &n)| delivered.delivered(c) >= n);
            if all || at.elapsed() >= DRAIN_GRACE {
                break;
            }
        }
        match sub.recv_streamed(Duration::from_millis(20)) {
            Ok(Some((cluster, frames))) => {
                let at = now();
                let Some(c) = CLUSTERS.iter().position(|&x| x == cluster) else {
                    errors += 1;
                    continue;
                };
                if frames.rows() == 0 {
                    continue;
                }
                arrivals.push(Arrival {
                    cluster: c,
                    at,
                    rows: frames.rows(),
                    first_fp: fingerprint(frames.row(0)),
                });
                delivered.deliver(c, &frames);
            }
            Ok(None) => {}
            Err(_) => {
                errors += 1;
                break;
            }
        }
    }
    (delivered, arrivals, errors)
}

/// Pokes a server whose clients never connected into shutting down.
fn stop_server(addr: SocketAddr) {
    if let Ok(mut c) = Client::connect(&Tcp::new(addr.to_string())) {
        let _ = c.shutdown();
    }
}

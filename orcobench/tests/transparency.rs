//! The timing wrappers must be invisible: every trait method, defaulted
//! ones included, reaches the wrapped value, and wrapped outputs equal the
//! bare ones bit for bit. A wrapper that let `Codec::encode_batch` fall
//! back to the trait's per-frame default would still "work" but time a
//! different program; the marker types below make every default body
//! produce something the override does not, so such a slip fails here.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use orco_datasets::{mnist_like, DatasetKind};
use orco_nn::Loss;
use orco_serve::{
    Clock, Connection, Gateway, GatewayConfig, Loopback, Message, Outbox, Service, Transport,
};
use orco_tensor::{MatView, Matrix};
use orco_wsn::{DeploymentBackend, Network, NetworkConfig, PacketKind};
use orcobench::probe::{series, Probe};
use orcobench::wrap::{TimedBackend, TimedCodec, TimedConnection, TimedService, TimedSplit};
use orcodcs::{
    AsymmetricAutoencoder, Codec, EncoderCheckpoint, FrameDims, OrcoConfig, OrcoError, RoundStats,
    SplitModel, TrainSpec, TrainingHistory,
};

fn small_config() -> OrcoConfig {
    OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16)
}

fn small_ae() -> AsymmetricAutoencoder {
    AsymmetricAutoencoder::new(&small_config()).expect("valid config")
}

/// A codec whose every override answers differently from the trait's
/// default body for the same method.
#[derive(Debug)]
struct Marker {
    ae: AsymmetricAutoencoder,
}

impl Marker {
    fn new() -> Self {
        Self { ae: small_ae() }
    }
}

impl Codec for Marker {
    fn name(&self) -> &'static str {
        "marker"
    }
    fn input_dim(&self) -> usize {
        3
    }
    fn bytes_per_frame(&self) -> u64 {
        8
    }
    fn code_len(&self) -> usize {
        5
    }
    fn frame_dims(&self) -> FrameDims {
        FrameDims { input: 7, code: 9 }
    }
    fn train(&mut self, _x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        let mut h = TrainingHistory::default();
        h.rounds.push(RoundStats {
            round: spec.epochs,
            epoch: 0,
            loss: 0.25,
            sim_time_s: 0.0,
            uplink_bytes: 0,
            energy_j: 0.0,
            link: orco_wsn::LinkStats::default(),
        });
        Ok(h)
    }
    fn encode_frame(&mut self, _frame: &[f32]) -> Result<Vec<f32>, OrcoError> {
        Ok(vec![1.0; 9])
    }
    fn decode_frame(&mut self, _code: &[f32]) -> Result<Vec<f32>, OrcoError> {
        Ok(vec![2.0; 7])
    }
    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        *out = Matrix::filled(frames.rows(), 2, 42.0);
        Ok(())
    }
    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        *out = Matrix::filled(codes.rows(), 4, 43.0);
        Ok(())
    }
    fn loss(&self) -> Loss {
        Loss::Huber { delta: 0.75 }
    }
    fn reconstruct(&mut self, _x: &Matrix) -> Result<Matrix, OrcoError> {
        Ok(Matrix::filled(1, 1, 44.0))
    }
    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        Some(&mut self.ae)
    }
    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        Some(EncoderCheckpoint::capture(&self.ae, "marker"))
    }
    fn with_encoder(&self, _checkpoint: &EncoderCheckpoint) -> Result<Box<dyn Codec>, OrcoError> {
        Ok(Box::new(Marker::new()))
    }
}

/// Every `Codec` method of `a` and `b` answers identically.
fn assert_same_codec(a: &mut dyn Codec, b: &mut dyn Codec) {
    let frames = Matrix::filled(4, a.input_dim(), 0.5);
    let codes = Matrix::filled(4, a.code_len(), 0.25);
    assert_eq!(a.name(), b.name());
    assert_eq!(a.input_dim(), b.input_dim());
    assert_eq!(a.bytes_per_frame(), b.bytes_per_frame());
    assert_eq!(a.code_len(), b.code_len());
    assert_eq!(a.frame_dims(), b.frame_dims());
    assert_eq!(a.loss(), b.loss());
    assert_eq!(a.encode_frame(frames.row(0)).ok(), b.encode_frame(frames.row(0)).ok());
    assert_eq!(a.decode_frame(codes.row(0)).ok(), b.decode_frame(codes.row(0)).ok());
    let (mut oa, mut ob) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    a.encode_batch(frames.as_view(), &mut oa).expect("encode");
    b.encode_batch(frames.as_view(), &mut ob).expect("encode");
    assert_eq!(oa, ob);
    a.decode_batch(codes.as_view(), &mut oa).expect("decode");
    b.decode_batch(codes.as_view(), &mut ob).expect("decode");
    assert_eq!(oa, ob);
    assert_eq!(a.reconstruct(&frames).ok(), b.reconstruct(&frames).ok());
    assert_eq!(a.checkpoint(), b.checkpoint());
    assert_eq!(a.split_model().map(|m| m.latent_dim()), b.split_model().map(|m| m.latent_dim()));
    let spec = TrainSpec { epochs: 3, batch_size: 2, seed: 0, data_fraction: 1.0 };
    let ha = a.train(&frames, &spec).expect("train");
    let hb = b.train(&frames, &spec).expect("train");
    let losses =
        |h: &TrainingHistory| h.rounds.iter().map(|r| r.loss.to_bits()).collect::<Vec<_>>();
    assert_eq!(losses(&ha), losses(&hb));
}

#[test]
fn codec_wrapper_forwards_every_method() {
    let probe = Arc::new(Probe::default());
    let mut bare = Marker::new();
    let mut wrapped = TimedCodec::new(Box::new(Marker::new()), Arc::clone(&probe), 3);
    assert_same_codec(&mut bare, &mut wrapped);

    let ckpt = bare.checkpoint().expect("marker checkpoints");
    let mut staged_bare = bare.with_encoder(&ckpt).expect("stage");
    let mut staged_wrapped = wrapped.with_encoder(&ckpt).expect("stage");
    assert_same_codec(staged_bare.as_mut(), staged_wrapped.as_mut());

    let log = probe.take();
    assert!(log.calls(series::ENCODE) >= 2 && log.calls(series::DECODE) >= 2);
    assert!(
        log.events(series::ENCODE).iter().all(|e| e.shard == 3),
        "staged codecs keep their shard"
    );
}

#[test]
fn wrapped_autoencoder_is_bit_identical() {
    let probe = Arc::new(Probe::default());
    let mut bare = small_ae();
    let mut wrapped = TimedCodec::new(Box::new(small_ae()), Arc::clone(&probe), 0);
    assert_same_codec(&mut bare, &mut wrapped);
    let frames = mnist_like::generate(8, 3).x().clone();
    let (mut a, mut b) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    bare.encode_batch(frames.as_view(), &mut a).expect("encode");
    wrapped.encode_batch(frames.as_view(), &mut b).expect("encode");
    assert_eq!(a, b);
    let log = probe.take();
    let last = log.events(series::ENCODE).last().expect("encode was timed");
    assert_eq!(last.rows, 8);
}

/// A service that logs which methods reached it.
struct FakeService {
    clock: Clock,
    calls: Mutex<Vec<String>>,
}

impl FakeService {
    fn note(&self, call: String) {
        self.calls.lock().expect("log lock").push(call);
    }
}

impl Service for FakeService {
    fn handle_frame(&self, frame: &[u8], reply: &mut Vec<u8>, outbox: Option<&Arc<Outbox>>) {
        reply.clear();
        reply.extend_from_slice(frame);
        reply.push(u8::from(outbox.is_some()));
        self.note("handle".into());
    }
    fn clock(&self) -> &Clock {
        &self.clock
    }
    fn is_shutting_down(&self) -> bool {
        true
    }
    fn on_time_advance(&self) {
        self.note("advance".into());
    }
    fn worker_count(&self) -> usize {
        3
    }
    fn run_worker(&self, idx: usize) {
        self.note(format!("worker {idx}"));
    }
}

#[test]
fn service_wrapper_forwards_every_method() {
    let fake = Arc::new(FakeService {
        clock: Clock::manual(Duration::from_micros(7)),
        calls: Mutex::new(Vec::new()),
    });
    let probe = Arc::new(Probe::default());
    let wrapped = TimedService::new(Arc::clone(&fake), Arc::clone(&probe));
    let mut reply = Vec::new();
    let outbox = Arc::new(Outbox::new());
    wrapped.handle_frame(b"abc", &mut reply, Some(&outbox));
    assert_eq!(reply, b"abc\x01");
    assert!(wrapped.is_shutting_down());
    assert_eq!(wrapped.worker_count(), 3);
    assert!(!wrapped.clock().is_real());
    wrapped.on_time_advance();
    wrapped.run_worker(2);
    assert_eq!(*fake.calls.lock().expect("log lock"), ["handle", "advance", "worker 2"]);
    assert_eq!(probe.take().calls(series::HANDLE), 1);
}

fn gateway() -> Arc<Gateway> {
    let cfg = small_config();
    Arc::new(
        Gateway::new(
            GatewayConfig { shards: 2, batch_max_frames: 4, ..GatewayConfig::default() },
            Clock::manual(Duration::from_micros(100)),
            |_| Box::new(AsymmetricAutoencoder::new(&cfg).expect("valid")) as Box<dyn Codec>,
        )
        .expect("valid gateway"),
    )
}

fn script() -> Vec<Message> {
    let frames = mnist_like::generate(6, 9).x().clone();
    vec![
        Message::Hello { client_id: 5, nonce: 1, mac: 0 },
        Message::PushFrames { cluster_id: 7, trace: 1, frames: frames.clone() },
        Message::PushFrames { cluster_id: 8, trace: 2, frames },
        Message::PullDecoded { cluster_id: 7, max_frames: 64, trace: 3 },
        Message::PullDecoded { cluster_id: 8, max_frames: 2, trace: 4 },
        Message::StatsRequest,
    ]
}

#[test]
fn wrapped_gateway_replies_byte_for_byte() {
    let probe = Arc::new(Probe::default());
    let bare = gateway();
    let wrapped = TimedService::new(gateway(), Arc::clone(&probe));
    for msg in script() {
        let frame = msg.encode();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bare.handle_frame(&frame, &mut a, None);
        wrapped.handle_frame(&frame, &mut b, None);
        assert_eq!(a, b, "reply to {msg:?} differs");
    }
    assert_eq!(probe.take().calls(series::HANDLE), script().len());
}

/// A connection whose `poll_stream` answers where the default would not.
struct FakeConnection;

impl Connection for FakeConnection {
    fn request(&mut self, msg: &Message) -> Result<Message, OrcoError> {
        Ok(match msg {
            Message::StatsRequest => Message::ShutdownAck,
            other => other.clone(),
        })
    }
    fn poll_stream(&mut self, _timeout: Duration) -> Result<Option<Message>, OrcoError> {
        Ok(Some(Message::Busy { queued: 1, capacity: 2 }))
    }
}

#[test]
fn connection_wrapper_forwards_every_method() {
    let probe = Arc::new(Probe::default());
    let mut wrapped = TimedConnection::new(FakeConnection, Arc::clone(&probe));
    assert_eq!(wrapped.request(&Message::StatsRequest).ok(), Some(Message::ShutdownAck));
    assert_eq!(
        wrapped.poll_stream(Duration::from_millis(1)).ok().flatten(),
        Some(Message::Busy { queued: 1, capacity: 2 })
    );
    assert_eq!(probe.take().calls(series::REQUEST), 1);

    let mut bare = Loopback::new(gateway()).connect().expect("connect");
    let mut wrapped =
        TimedConnection::new(Loopback::new(gateway()).connect().expect("connect"), probe);
    for msg in script() {
        assert_eq!(bare.request(&msg).ok(), wrapped.request(&msg).ok(), "reply to {msg:?} differs");
    }
}

#[test]
fn split_wrapper_forwards_every_method() {
    let probe = Arc::new(Probe::default());
    let mut bare = small_ae();
    let mut wrapped = TimedSplit::new(small_ae(), Arc::clone(&probe));
    assert_eq!(SplitModel::input_dim(&bare), wrapped.input_dim());
    assert_eq!(SplitModel::latent_dim(&bare), wrapped.latent_dim());
    assert_eq!(bare.encoder_flops_forward(), wrapped.encoder_flops_forward());
    assert_eq!(bare.encoder_flops_backward(), wrapped.encoder_flops_backward());
    assert_eq!(bare.decoder_flops_forward(), wrapped.decoder_flops_forward());
    assert_eq!(bare.decoder_flops_backward(), wrapped.decoder_flops_backward());
    let x = mnist_like::generate(4, 2).x().clone();
    for _ in 0..2 {
        let la = SplitModel::aggregator_encode_train(&mut bare, &x);
        let lb = wrapped.aggregator_encode_train(&x);
        assert_eq!(la, lb);
        let ra = SplitModel::edge_decode_train(&mut bare, &la);
        let rb = wrapped.edge_decode_train(&lb);
        assert_eq!(ra, rb);
        let ga = SplitModel::edge_decoder_update(&mut bare, &ra);
        let gb = wrapped.edge_decoder_update(&rb);
        assert_eq!(ga, gb);
        SplitModel::aggregator_encoder_update(&mut bare, &ga);
        wrapped.aggregator_encoder_update(&gb);
    }
    assert_eq!(bare.reconstruct_inference(&x), wrapped.reconstruct_inference(&x));
    let log = probe.take();
    for s in [series::ENC_FWD, series::DEC_FWD, series::DEC_BWD, series::ENC_BWD] {
        assert!(log.calls(s) > 0, "{s} was not timed");
    }
}

#[test]
fn backend_wrapper_forwards_every_method() {
    let probe = Arc::new(Probe::default());
    let cfg = NetworkConfig { num_devices: 8, seed: 4, ..NetworkConfig::default() };
    let mut bare = Network::new(cfg.clone());
    let mut wrapped = TimedBackend::new(Network::new(cfg), Arc::clone(&probe));
    fn drive(d: &mut dyn DeploymentBackend) -> Vec<String> {
        let (agg, edge) = (d.aggregator(), d.edge());
        let device = d.devices()[1];
        let mut seen = vec![
            d.backend_name().to_string(),
            format!("{:?}", d.transmit(agg, edge, 512, PacketKind::LatentVector)),
            format!("{:?}", d.compute(edge, 1_000_000)),
            format!("{:?}", d.raw_aggregation_round(4)),
            format!("{:?}", d.broadcast_encoder_columns(64)),
            format!("{:?}", d.compressed_aggregation_round(16, 1000)),
        ];
        d.wait(0.5);
        seen.push(format!("{:?}", d.kill_device(device)));
        seen.push(format!("{:?} {:?}", d.alive_devices(), d.node_energy_j(agg)));
        seen.push(format!("{:?} {}", d.accounting(), d.now_s().to_bits()));
        d.reset_accounting();
        seen.push(format!("{:?}", d.accounting()));
        seen
    }
    assert_eq!(drive(&mut bare), drive(&mut wrapped));
    let log = probe.take();
    assert_eq!(log.calls(series::TRANSMIT), 1);
    assert_eq!(log.calls(series::COMPUTE), 1);
}

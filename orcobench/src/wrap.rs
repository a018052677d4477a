//! Timing wrappers around each layer's public trait.
//!
//! Each wrapper forwards **every** trait method to the wrapped value,
//! defaulted ones included, so a wrapped layer runs exactly the code the
//! bare layer runs; the timed methods additionally log one
//! [`Event`](crate::probe::Event) per call. A wrapper that let a defaulted
//! method fall back to the trait's default body (for example
//! `Codec::encode_batch` → the per-frame loop) would measure a different
//! program; `tests/transparency.rs` pins this down.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

use orco_nn::Loss;
use orco_serve::{Clock, Connection, Message, Outbox, Service};
use orco_tensor::{MatView, Matrix};
use orco_wsn::{DeploymentBackend, NodeId, PacketKind, TrafficAccounting, WsnError};
use orcodcs::{
    Codec, EncoderCheckpoint, FrameDims, OrcoError, SplitModel, TrainSpec, TrainingHistory,
};

use crate::probe::{fingerprint, now, series, Event, Probe};

thread_local! {
    /// Set while this thread is inside `TimedService::handle_frame`, so a
    /// codec call can tell whether the dispatch path made it.
    static IN_SERVICE: Cell<bool> = const { Cell::new(false) };
}

fn event(start: std::time::Instant, rows: usize) -> Event {
    Event {
        start,
        end: now(),
        rows: u32::try_from(rows).unwrap_or(u32::MAX),
        shard: 0,
        nested: IN_SERVICE.with(Cell::get),
        tag: 0,
    }
}

/// A [`Codec`] that times `encode_batch` and `decode_batch`, the data
/// plane the gateway drives.
#[derive(Debug)]
pub struct TimedCodec {
    inner: Box<dyn Codec>,
    probe: Arc<Probe>,
    shard: u32,
}

impl TimedCodec {
    /// Wraps the codec of gateway shard `shard`.
    #[must_use]
    pub fn new(inner: Box<dyn Codec>, probe: Arc<Probe>, shard: usize) -> Self {
        Self { inner, probe, shard: u32::try_from(shard).unwrap_or(u32::MAX) }
    }
}

impl Codec for TimedCodec {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn bytes_per_frame(&self) -> u64 {
        self.inner.bytes_per_frame()
    }

    fn code_len(&self) -> usize {
        self.inner.code_len()
    }

    fn frame_dims(&self) -> FrameDims {
        self.inner.frame_dims()
    }

    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        self.inner.train(x, spec)
    }

    fn encode_frame(&mut self, frame: &[f32]) -> Result<Vec<f32>, OrcoError> {
        self.inner.encode_frame(frame)
    }

    fn decode_frame(&mut self, code: &[f32]) -> Result<Vec<f32>, OrcoError> {
        self.inner.decode_frame(code)
    }

    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        let start = now();
        let result = self.inner.encode_batch(frames, out);
        self.probe
            .record(series::ENCODE, Event { shard: self.shard, ..event(start, frames.rows()) });
        result
    }

    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        let start = now();
        let result = self.inner.decode_batch(codes, out);
        let end = now();
        let tag = if result.is_ok() && out.rows() > 0 { fingerprint(out.row(0)) } else { 0 };
        self.probe.record(
            series::DECODE,
            Event { end, shard: self.shard, tag, ..event(start, codes.rows()) },
        );
        result
    }

    fn loss(&self) -> Loss {
        self.inner.loss()
    }

    fn reconstruct(&mut self, x: &Matrix) -> Result<Matrix, OrcoError> {
        self.inner.reconstruct(x)
    }

    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        self.inner.split_model()
    }

    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        self.inner.checkpoint()
    }

    fn with_encoder(&self, checkpoint: &EncoderCheckpoint) -> Result<Box<dyn Codec>, OrcoError> {
        let staged = self.inner.with_encoder(checkpoint)?;
        Ok(Box::new(Self { inner: staged, probe: Arc::clone(&self.probe), shard: self.shard }))
    }
}

/// A [`Service`] that times `handle_frame`.
pub struct TimedService<S: Service + ?Sized> {
    inner: Arc<S>,
    probe: Arc<Probe>,
}

impl<S: Service + ?Sized> TimedService<S> {
    /// Wraps a shared service.
    #[must_use]
    pub fn new(inner: Arc<S>, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<S: Service + ?Sized> Service for TimedService<S> {
    fn handle_frame(&self, frame: &[u8], reply: &mut Vec<u8>, outbox: Option<&Arc<Outbox>>) {
        let start = now();
        IN_SERVICE.with(|f| f.set(true));
        self.inner.handle_frame(frame, reply, outbox);
        IN_SERVICE.with(|f| f.set(false));
        self.probe.record(series::HANDLE, event(start, 0));
    }

    fn clock(&self) -> &Clock {
        self.inner.clock()
    }

    fn is_shutting_down(&self) -> bool {
        self.inner.is_shutting_down()
    }

    fn on_time_advance(&self) {
        self.inner.on_time_advance();
    }

    fn worker_count(&self) -> usize {
        self.inner.worker_count()
    }

    fn run_worker(&self, idx: usize) {
        self.inner.run_worker(idx);
    }
}

/// A [`Connection`] that times `request`.
#[derive(Debug)]
pub struct TimedConnection<C> {
    inner: C,
    probe: Arc<Probe>,
}

impl<C: Connection> TimedConnection<C> {
    /// Wraps an open connection.
    #[must_use]
    pub fn new(inner: C, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<C: Connection> Connection for TimedConnection<C> {
    fn request(&mut self, msg: &Message) -> Result<Message, OrcoError> {
        let start = now();
        let reply = self.inner.request(msg);
        self.probe.record(series::REQUEST, event(start, 0));
        reply
    }

    fn poll_stream(&mut self, timeout: Duration) -> Result<Option<Message>, OrcoError> {
        self.inner.poll_stream(timeout)
    }
}

/// A [`SplitModel`] that times the four training calls.
#[derive(Debug)]
pub struct TimedSplit<M> {
    inner: M,
    probe: Arc<Probe>,
}

impl<M: SplitModel> TimedSplit<M> {
    /// Wraps a split model.
    #[must_use]
    pub fn new(inner: M, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<M: SplitModel> SplitModel for TimedSplit<M> {
    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn latent_dim(&self) -> usize {
        self.inner.latent_dim()
    }

    fn aggregator_encode_train(&mut self, x: &Matrix) -> Matrix {
        let start = now();
        let out = self.inner.aggregator_encode_train(x);
        self.probe.record(series::ENC_FWD, event(start, x.rows()));
        out
    }

    fn edge_decode_train(&mut self, latent: &Matrix) -> Matrix {
        let start = now();
        let out = self.inner.edge_decode_train(latent);
        self.probe.record(series::DEC_FWD, event(start, latent.rows()));
        out
    }

    fn edge_decoder_update(&mut self, grad_reconstruction: &Matrix) -> Matrix {
        let start = now();
        let out = self.inner.edge_decoder_update(grad_reconstruction);
        self.probe.record(series::DEC_BWD, event(start, grad_reconstruction.rows()));
        out
    }

    fn aggregator_encoder_update(&mut self, grad_latent: &Matrix) {
        let start = now();
        self.inner.aggregator_encoder_update(grad_latent);
        self.probe.record(series::ENC_BWD, event(start, grad_latent.rows()));
    }

    fn reconstruct_inference(&mut self, x: &Matrix) -> Matrix {
        self.inner.reconstruct_inference(x)
    }

    fn encoder_flops_forward(&self) -> u64 {
        self.inner.encoder_flops_forward()
    }

    fn encoder_flops_backward(&self) -> u64 {
        self.inner.encoder_flops_backward()
    }

    fn decoder_flops_forward(&self) -> u64 {
        self.inner.decoder_flops_forward()
    }

    fn decoder_flops_backward(&self) -> u64 {
        self.inner.decoder_flops_backward()
    }
}

/// A [`DeploymentBackend`] that times `transmit` and `compute`.
#[derive(Debug)]
pub struct TimedBackend<D> {
    inner: D,
    probe: Arc<Probe>,
}

impl<D: DeploymentBackend> TimedBackend<D> {
    /// Wraps a deployment backend.
    #[must_use]
    pub fn new(inner: D, probe: Arc<Probe>) -> Self {
        Self { inner, probe }
    }
}

impl<D: DeploymentBackend> DeploymentBackend for TimedBackend<D> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }

    fn accounting(&self) -> &TrafficAccounting {
        self.inner.accounting()
    }

    fn reset_accounting(&mut self) {
        self.inner.reset_accounting();
    }

    fn wait(&mut self, dt_s: f64) {
        self.inner.wait(dt_s);
    }

    fn aggregator(&self) -> NodeId {
        self.inner.aggregator()
    }

    fn edge(&self) -> NodeId {
        self.inner.edge()
    }

    fn devices(&self) -> &[NodeId] {
        self.inner.devices()
    }

    fn alive_devices(&self) -> Vec<NodeId> {
        self.inner.alive_devices()
    }

    fn node_energy_j(&self, id: NodeId) -> Result<f64, WsnError> {
        self.inner.node_energy_j(id)
    }

    fn kill_device(&mut self, id: NodeId) -> Result<(), WsnError> {
        self.inner.kill_device(id)
    }

    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<f64, WsnError> {
        let start = now();
        let out = self.inner.transmit(from, to, payload_bytes, kind);
        self.probe.record(series::TRANSMIT, event(start, 0));
        out
    }

    fn compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        let start = now();
        let out = self.inner.compute(at, flops);
        self.probe.record(series::COMPUTE, event(start, 0));
        out
    }

    fn raw_aggregation_round(&mut self, bytes_per_device: u64) -> Result<f64, WsnError> {
        self.inner.raw_aggregation_round(bytes_per_device)
    }

    fn broadcast_encoder_columns(&mut self, column_bytes: u64) -> Result<f64, WsnError> {
        self.inner.broadcast_encoder_columns(column_bytes)
    }

    fn compressed_aggregation_round(
        &mut self,
        latent_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError> {
        self.inner.compressed_aggregation_round(latent_bytes, flops_per_device)
    }
}

//! The per-layer metrics of a traced run, in one fixed list so every
//! traced run reports every name (0 where a workload does not reach the
//! layer).

use orcodcs::FrameDims;

use crate::probe::{series, Log};
use crate::report::{ratio, Metrics};

/// Per-layer values; see `README.md` for what each one should move.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub encode_us_per_frame: f64,
    pub encode_rows_per_call: f64,
    pub encode_gflops: f64,
    pub decode_us_per_frame: f64,
    pub decode_rows_per_call: f64,
    pub decode_gflops: f64,
    pub matmul_t_gflops: f64,
    pub matmul_into_gflops: f64,
    pub gateway_self_us_per_frame: f64,
    pub wire_client_us_per_frame: f64,
    pub rows_per_flush: f64,
    pub size_flushes: f64,
    pub deadline_flushes: f64,
    pub pull_flushes: f64,
    pub busy_rejections: f64,
    pub batch_wait_ms: f64,
    pub push_rtt_p50_us: f64,
    pub push_rtt_p99_us: f64,
    pub transport_self_us: f64,
    pub stream_deliver_ms: f64,
    pub gen_lag_ms: f64,
    pub split_enc_fwd_ms: f64,
    pub split_dec_fwd_ms: f64,
    pub split_dec_bwd_ms: f64,
    pub split_enc_bwd_ms: f64,
    pub split_gflops: f64,
    pub orch_self_ms: f64,
    pub wsn_us_per_round: f64,
    pub wsn_sim_s_per_round: f64,
    pub residual_frac: f64,
    pub trace_overhead_frac: f64,
}

impl Layers {
    /// Fills the codec rows from a traced log. FLOPs come from the layer
    /// shapes: one `input × code` dense layer each way, 2 FLOPs per MAC.
    pub fn fill_codec(&mut self, log: &Log, dims: FrameDims) {
        let flops_per_row = 2.0 * dims.input as f64 * dims.code as f64;
        for (name, us, per_call, gflops) in [
            (
                series::ENCODE,
                &mut self.encode_us_per_frame,
                &mut self.encode_rows_per_call,
                &mut self.encode_gflops,
            ),
            (
                series::DECODE,
                &mut self.decode_us_per_frame,
                &mut self.decode_rows_per_call,
                &mut self.decode_gflops,
            ),
        ] {
            let ns = log.total(name).as_nanos() as f64;
            let rows = log.rows(name) as f64;
            *us = ratio(ns / 1e3, rows);
            *per_call = ratio(rows, log.calls(name) as f64);
            *gflops = ratio(rows * flops_per_row, ns);
        }
    }

    /// Fills the gateway counters from a stats snapshot.
    pub fn fill_gateway(&mut self, stats: &orco_serve::StatsSnapshot) {
        self.rows_per_flush = ratio(stats.frames_in as f64, stats.batches as f64);
        self.size_flushes = stats.size_flushes as f64;
        self.deadline_flushes = stats.deadline_flushes as f64;
        self.pull_flushes = stats.pull_flushes as f64;
        self.busy_rejections = stats.busy_rejections as f64;
    }

    /// The list in `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let rows: [(&'static str, f64, &'static str); 31] = [
            ("codec.encode.us_per_frame", self.encode_us_per_frame, "us"),
            ("codec.encode.rows_per_call", self.encode_rows_per_call, "count"),
            ("codec.encode.gflops", self.encode_gflops, "GFLOP/s"),
            ("codec.decode.us_per_frame", self.decode_us_per_frame, "us"),
            ("codec.decode.rows_per_call", self.decode_rows_per_call, "count"),
            ("codec.decode.gflops", self.decode_gflops, "GFLOP/s"),
            ("tensor.matmul_t.gflops", self.matmul_t_gflops, "GFLOP/s"),
            ("tensor.matmul_into.gflops", self.matmul_into_gflops, "GFLOP/s"),
            ("gateway.self.us_per_frame", self.gateway_self_us_per_frame, "us"),
            ("wire.client.us_per_frame", self.wire_client_us_per_frame, "us"),
            ("gateway.rows_per_flush", self.rows_per_flush, "count"),
            ("gateway.size_flushes", self.size_flushes, "count"),
            ("gateway.deadline_flushes", self.deadline_flushes, "count"),
            ("gateway.pull_flushes", self.pull_flushes, "count"),
            ("gateway.busy_rejections", self.busy_rejections, "count"),
            ("gateway.batch_wait.ms", self.batch_wait_ms, "ms"),
            ("transport.push_rtt.p50_us", self.push_rtt_p50_us, "us"),
            ("transport.push_rtt.p99_us", self.push_rtt_p99_us, "us"),
            ("transport.self.us", self.transport_self_us, "us"),
            ("stream.deliver.ms", self.stream_deliver_ms, "ms"),
            ("gen.lag_ms", self.gen_lag_ms, "ms"),
            ("split.enc_fwd.ms", self.split_enc_fwd_ms, "ms"),
            ("split.dec_fwd.ms", self.split_dec_fwd_ms, "ms"),
            ("split.dec_bwd.ms", self.split_dec_bwd_ms, "ms"),
            ("split.enc_bwd.ms", self.split_enc_bwd_ms, "ms"),
            ("split.gflops", self.split_gflops, "GFLOP/s"),
            ("orch.self.ms", self.orch_self_ms, "ms"),
            ("wsn.us_per_round", self.wsn_us_per_round, "us"),
            ("wsn.sim_s_per_round", self.wsn_sim_s_per_round, "s"),
            ("ledger.residual_frac", self.residual_frac, "fraction"),
            ("bench.trace_overhead_frac", self.trace_overhead_frac, "fraction"),
        ];
        for (name, value, unit) in rows {
            m.push(name, value, unit, "");
        }
        m
    }
}

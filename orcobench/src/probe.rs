//! Call recording for the traced run.
//!
//! Every wrapper in [`crate::wrap`] logs one [`Event`] per timed call into
//! a shared [`Probe`]; the workloads turn the event lists into per-layer
//! metrics once the timed region has ended.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The benchmark's one wall-clock read.
#[allow(clippy::disallowed_methods)]
#[must_use]
pub fn now() -> Instant {
    // orco-lint: allow(wall-clock, reason = "the benchmark measures real elapsed time")
    Instant::now()
}

/// Series names, one per timed seam.
pub mod series {
    /// `Codec::encode_batch`.
    pub const ENCODE: &str = "codec.encode";
    /// `Codec::decode_batch`.
    pub const DECODE: &str = "codec.decode";
    /// `Service::handle_frame`.
    pub const HANDLE: &str = "service.handle_frame";
    /// `Connection::request`.
    pub const REQUEST: &str = "connection.request";
    /// `SplitModel::aggregator_encode_train`.
    pub const ENC_FWD: &str = "split.enc_fwd";
    /// `SplitModel::edge_decode_train`.
    pub const DEC_FWD: &str = "split.dec_fwd";
    /// `SplitModel::edge_decoder_update`.
    pub const DEC_BWD: &str = "split.dec_bwd";
    /// `SplitModel::aggregator_encoder_update`.
    pub const ENC_BWD: &str = "split.enc_bwd";
    /// `DeploymentBackend::transmit`.
    pub const TRANSMIT: &str = "wsn.transmit";
    /// `DeploymentBackend::compute`.
    pub const COMPUTE: &str = "wsn.compute";
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// When the call was entered.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Frames (matrix rows) the call carried; 0 where rows mean nothing.
    pub rows: u32,
    /// Gateway shard of a codec call; 0 elsewhere.
    pub shard: u32,
    /// Whether the call ran inside a `Service::handle_frame` on the same
    /// thread (a codec call made by the dispatch path itself).
    pub nested: bool,
    /// [`fingerprint`] of the first decoded row of a decode call; 0
    /// elsewhere.
    pub tag: u64,
}

impl Event {
    /// The call's duration.
    #[must_use]
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// A shared, append-only log of timed calls keyed by series name.
#[derive(Debug, Default)]
pub struct Probe {
    log: Mutex<BTreeMap<&'static str, Vec<Event>>>,
}

impl Probe {
    /// Appends one event to `series`.
    pub fn record(&self, series: &'static str, event: Event) {
        self.log
            .lock()
            .expect("probe lock is never poisoned")
            .entry(series)
            .or_default()
            .push(event);
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Log {
        Log(std::mem::take(&mut *self.log.lock().expect("probe lock is never poisoned")))
    }
}

/// A drained probe: event lists by series name.
#[derive(Debug, Default, Clone)]
pub struct Log(pub BTreeMap<&'static str, Vec<Event>>);

impl Log {
    /// The events of one series (empty if it never fired).
    #[must_use]
    pub fn events(&self, series: &str) -> &[Event] {
        self.0.get(series).map_or(&[], Vec::as_slice)
    }

    /// Total time spent in one series.
    #[must_use]
    pub fn total(&self, series: &str) -> Duration {
        self.events(series).iter().map(Event::dur).sum()
    }

    /// Total time of one series' calls that ran nested in `handle_frame`.
    #[must_use]
    pub fn nested_total(&self, series: &str) -> Duration {
        self.events(series).iter().filter(|e| e.nested).map(Event::dur).sum()
    }

    /// Total rows carried by one series.
    #[must_use]
    pub fn rows(&self, series: &str) -> u64 {
        self.events(series).iter().map(|e| u64::from(e.rows)).sum()
    }

    /// Number of calls in one series.
    #[must_use]
    pub fn calls(&self, series: &str) -> usize {
        self.events(series).len()
    }
}

/// A cheap identity of a decoded row: three spaced elements, bit for bit.
/// Distinct frames decode to distinct rows, so equal fingerprints mean the
/// same frame; the oracle also compares sampled rows in full.
#[must_use]
pub fn fingerprint(row: &[f32]) -> u64 {
    let Some(&last) = row.last() else { return 0 };
    let picks = [row[0], row[row.len() / 2], last];
    picks.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

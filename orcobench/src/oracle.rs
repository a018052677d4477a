//! The serving correctness oracle, checked after the timed region.
//!
//! During a run the workload only notes, per cluster, which pool frame
//! each accepted push carried and the [`fingerprint`] of each delivered
//! row (plus a full copy of every [`SAMPLE_EVERY`]-th row). Afterwards the
//! pool is passed through an identically built codec with one
//! `encode_batch` → `decode_batch`, and every delivered row must match
//! its frame's reference row: exactly once, in per-cluster push order,
//! and bit for bit on the sampled rows.

use orco_tensor::Matrix;
use orcodcs::Codec;

use crate::probe::fingerprint;
use crate::report::Outcome;

/// One delivered row in this many (per cluster) is kept whole and
/// compared bit for bit.
pub const SAMPLE_EVERY: usize = 61;

/// Per-cluster record of what was pushed and what came back.
#[derive(Debug, Clone)]
pub struct Deliveries {
    expected: Vec<Vec<u32>>,
    delivered: Vec<Vec<u64>>,
    samples: Vec<(usize, usize, Vec<f32>)>,
}

impl Deliveries {
    /// An empty record for `clusters` clusters (indexed `0..clusters`).
    #[must_use]
    pub fn new(clusters: usize) -> Self {
        Self {
            expected: vec![Vec::new(); clusters],
            delivered: vec![Vec::new(); clusters],
            samples: Vec::new(),
        }
    }

    /// Notes that an accepted push for cluster `c` carried pool rows
    /// `first..first + rows`.
    pub fn expect(&mut self, c: usize, first: usize, rows: usize) {
        self.expected[c]
            .extend((first..first + rows).map(|r| u32::try_from(r).expect("pool index fits u32")));
    }

    /// Takes the pushed-row record of `other` (kept by the pushing thread
    /// while this one recorded deliveries).
    pub fn adopt_expected(&mut self, other: &Deliveries) {
        self.expected.clone_from(&other.expected);
    }

    /// Notes rows delivered for cluster `c`, in delivery order.
    pub fn deliver(&mut self, c: usize, frames: &Matrix) {
        for r in 0..frames.rows() {
            let seq = self.delivered[c].len();
            let row = frames.row(r);
            self.delivered[c].push(fingerprint(row));
            if seq.is_multiple_of(SAMPLE_EVERY) {
                self.samples.push((c, seq, row.to_vec()));
            }
        }
    }

    /// Rows pushed and accepted for cluster `c`.
    #[must_use]
    pub fn expected(&self, c: usize) -> usize {
        self.expected[c].len()
    }

    /// Rows delivered for cluster `c`.
    #[must_use]
    pub fn delivered(&self, c: usize) -> usize {
        self.delivered[c].len()
    }

    /// Total rows delivered.
    #[must_use]
    pub fn total_delivered(&self) -> usize {
        self.delivered.iter().map(Vec::len).sum()
    }

    /// Checks every delivery against `reference` (the pool decoded by an
    /// identically built codec) and counts each undelivered, duplicated or
    /// wrong frame as one failure in `out`.
    pub fn check(&self, reference: &Matrix, out: &mut Outcome) {
        let ref_fp: Vec<u64> =
            (0..reference.rows()).map(|r| fingerprint(reference.row(r))).collect();
        let (mut undelivered, mut extra, mut wrong) = (0u64, 0u64, 0u64);
        for (c, (exp, got)) in self.expected.iter().zip(&self.delivered).enumerate() {
            undelivered += exp.len().saturating_sub(got.len()) as u64;
            extra += got.len().saturating_sub(exp.len()) as u64;
            let mut bad: Vec<bool> =
                exp.iter().zip(got).map(|(&p, &fp)| ref_fp[p as usize] != fp).collect();
            for (_, seq, row) in self.samples.iter().filter(|s| s.0 == c) {
                if let Some(&p) = exp.get(*seq) {
                    let same = reference
                        .row(p as usize)
                        .iter()
                        .zip(row)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !same {
                        bad[*seq] = true;
                    }
                }
            }
            wrong += bad.iter().filter(|&&b| b).count() as u64;
        }
        if undelivered > 0 {
            out.problem(format!("{undelivered} accepted frames never came back"));
        }
        if extra > 0 {
            out.problem(format!("{extra} rows came back that were never pushed"));
        }
        if wrong > 0 {
            out.problem(format!(
                "{wrong} rows differ from the reference encode→decode (or arrived out of order)"
            ));
        }
        out.failed += undelivered + extra + wrong;
    }
}

/// Decodes the whole frame pool through `codec` with one `encode_batch`
/// and one `decode_batch`: the reference every delivered row must equal.
///
/// # Panics
///
/// Panics if the freshly built reference codec rejects the pool's shape,
/// which would be a bug in the benchmark itself.
#[must_use]
pub fn reference_decode(codec: &mut dyn Codec, pool: &Matrix) -> Matrix {
    let mut codes = Matrix::zeros(0, 0);
    codec.encode_batch(pool.as_view(), &mut codes).expect("reference encode accepts the pool");
    let mut decoded = Matrix::zeros(0, 0);
    codec.decode_batch(codes.as_view(), &mut decoded).expect("reference decode accepts the codes");
    decoded
}

//! The OrcoDCS benchmark: three workloads over the repository's serving
//! and training paths, end-to-end metrics from an untraced run, and
//! per-layer metrics from a traced run that wraps each layer's public
//! trait (see [`wrap`]). `README.md` lists the workloads and metrics.

pub mod common;
pub mod layers;
pub mod loopback;
pub mod oracle;
pub mod probe;
pub mod report;
pub mod stream;
pub mod train;
pub mod wrap;

pub use common::Opts;
pub use report::Outcome;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["loopback-b64", "tcp-stream-2k", "train-online"];

/// Tensor kernel threads every workload runs with.
pub const TENSOR_THREADS: usize = 1;

/// Runs one workload by name; `None` for an unknown name.
#[must_use]
pub fn run(workload: &str, opts: &Opts) -> Option<Outcome> {
    orco_tensor::parallel::set_threads(TENSOR_THREADS);
    match workload {
        "loopback-b64" => Some(loopback::run(opts)),
        "tcp-stream-2k" => Some(stream::run(opts)),
        "train-online" => Some(train::run(opts)),
        _ => None,
    }
}

/// Host and configuration facts recorded beside every result, as one JSON
/// object.
#[must_use]
pub fn facts(workload: &str, opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let gateway = match workload {
        "loopback-b64" => format!("{:?}", loopback::gateway_config()),
        "tcp-stream-2k" => format!("{:?}", stream::gateway_config()),
        _ => "none".into(),
    };
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"tensor_threads\": {}, \"gateway\": \"{}\"}}",
        opts.seed,
        opts.seconds,
        opts.trace,
        TENSOR_THREADS,
        gateway.replace('"', "'"),
    )
}

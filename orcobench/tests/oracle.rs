//! The correctness oracle must fail a run whose outputs are wrong: one
//! flipped bit in `decode_batch`, or a reordered delivery.

use std::process::Command;

use orco_tensor::Matrix;
use orcobench::oracle::Deliveries;
use orcobench::{run, Opts, Outcome};

fn opts(corrupt_decode: bool) -> Opts {
    Opts { seed: 3, seconds: 0.3, trace: false, corrupt_decode }
}

#[test]
fn clean_runs_pass_the_oracle() {
    for workload in ["loopback-b64", "tcp-stream-2k"] {
        let out = run(workload, &opts(false)).expect("known workload");
        assert!(out.correct(), "{workload}: {:?}", out.problems);
        assert!(out.attempted > 0);
    }
}

#[test]
fn one_flipped_decode_bit_fails_every_serving_workload() {
    for workload in ["loopback-b64", "tcp-stream-2k"] {
        let out = run(workload, &opts(true)).expect("known workload");
        assert!(!out.correct(), "{workload} passed with a corrupting codec");
        assert!(out.failed > 0, "{workload}: corrupted rows must count as failed");
    }
}

#[test]
fn the_binary_exits_nonzero_on_an_oracle_failure() {
    let output = Command::new(env!("CARGO_BIN_EXE_orcobench"))
        .args([
            "--workload",
            "loopback-b64",
            "--seed",
            "2",
            "--seconds",
            "0.3",
            "--trace",
            "0",
            "--corrupt-decode",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
}

#[test]
fn reordered_or_missing_rows_are_caught() {
    let reference = Matrix::from_fn(4, 5, |r, c| (r * 10 + c) as f32);
    let rows = |idx: &[usize]| reference.select_rows(idx);

    let mut exact = Deliveries::new(1);
    exact.expect(0, 0, 4);
    exact.deliver(0, &rows(&[0, 1, 2, 3]));
    let mut out = Outcome { attempted: 4, ..Outcome::default() };
    exact.check(&reference, &mut out);
    assert!(out.correct(), "{:?}", out.problems);

    let mut swapped = Deliveries::new(1);
    swapped.expect(0, 0, 4);
    swapped.deliver(0, &rows(&[0, 2, 1, 3]));
    let mut out = Outcome { attempted: 4, ..Outcome::default() };
    swapped.check(&reference, &mut out);
    assert_eq!(out.failed, 2);

    let mut short = Deliveries::new(1);
    short.expect(0, 0, 4);
    short.deliver(0, &rows(&[0, 1, 2]));
    let mut out = Outcome { attempted: 4, ..Outcome::default() };
    short.check(&reference, &mut out);
    assert_eq!(out.failed, 1);
}

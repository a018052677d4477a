//! `orcobench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host facts and every metric with its unit and sample count,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when the correctness oracle fails and 2
//! on a usage error.

use std::process::ExitCode;

use orcobench::{facts, run, Opts, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("orcobench: {msg}");
    eprintln!(
        "usage: orcobench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--corrupt-decode]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Opts { seed: 1, seconds: 30.0, trace: false, corrupt_decode: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-decode" {
            opts.corrupt_decode = true;
            continue;
        }
        let Some(value) = args.next() else { return usage(&format!("{flag} needs a value")) };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Some(())
            }
            "--seed" => value.parse().ok().map(|v| opts.seed = v),
            "--seconds" => {
                value.parse().ok().filter(|v| *v > 0.0 && *v <= 600.0).map(|v| opts.seconds = v)
            }
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    Some(())
                }
                _ => None,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if parsed.is_none() {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one if WORKLOADS.contains(&one) => vec![one],
        other => return usage(&format!("unknown workload {other:?}")),
    };
    let mut all_correct = true;
    for name in names {
        println!("# facts {}", facts(name, &opts));
        let outcome = run(name, &opts).expect("the name is one of WORKLOADS");
        for m in outcome.metrics.0.iter().chain(&outcome.info.0) {
            println!("# {name} {:<28} {:>14.6} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
        for p in &outcome.problems {
            println!("# {name} ORACLE FAILURE: {p}");
        }
        all_correct &= outcome.correct();
        println!("{}", outcome.json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! Command line: `perfbench --workload <name|all> [--seed N]
//! [--seconds S] [--trace 0|1]`.
//!
//! Prints one detail line (host, fingerprints, check failures) and then
//! the result line — `correct`, `attempted`, `failed` and `metrics` —
//! which is always the last line of standard output. `--workload all`
//! runs the four workloads in turn and ends with a combined line whose
//! metric names are prefixed by the workload.

use std::process::ExitCode;

use perfbench::{run_workload, Params, DEFAULT_SEED, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut p = Params {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => p.seed = v,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => p.seconds = v,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => p.trace = false,
                "1" => p.trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload.as_str()]
    } else {
        return usage(&format!("unknown workload {workload}"));
    };

    let mut combined = perfbench::util::Outcome::default();
    for name in &names {
        let out = run_workload(name, &p).expect("known workload");
        println!("{}", out.detail_line(name, p.seed, p.trace));
        println!("{}", out.result_line());
        combined
            .problems
            .extend(out.problems.iter().map(|p| format!("{name}: {p}")));
        combined.attempted += out.attempted;
        combined.failed += out.failed;
        for (m, v, u) in out.metrics {
            combined.metric(format!("{name}/{m}"), v, u);
        }
    }
    if names.len() > 1 {
        println!("{}", combined.result_line());
    }
    ExitCode::SUCCESS
}

//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <rewrite-cold|rewrite-warm|run-hot|fleet-cold> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the effective configuration, one line per metric, and as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Nothing is reported unless every
//! correctness check passed. Exit codes: 0 reported, 1 a check or an
//! operation failed, 2 bad usage or a pinned setting overridden.

use rvdyn_benchmark::metrics::{self, config_prefix, WORKLOADS};
use rvdyn_benchmark::{drive, fleet, rewrite, runhot, Outcome};
use std::process::exit;

fn usage(msg: &str) -> ! {
    eprintln!("rvdyn-benchmark: {msg}");
    eprintln!(
        "usage: rvdyn-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    let trace = trace.unwrap_or_else(|| usage("--trace is required"));

    // The library reads these for its defaults; a run under either would
    // measure a configuration other than the one it prints.
    for var in rvdyn_benchmark::PINNED_ENV {
        if let Some(v) = std::env::var_os(var) {
            usage(&format!(
                "{var}={} is set; the benchmark pins the engine and thread count, unset it",
                v.to_string_lossy()
            ));
        }
    }
    metrics::set_config(&workload, seed);
    println!("{}", config_prefix());

    let trace_file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"));
    let trace_file = trace.then_some(trace_file.as_path());
    let run = match workload.as_str() {
        "rewrite-cold" => drive::<rewrite::Cold>(seed, seconds, trace, trace_file),
        "rewrite-warm" => drive::<rewrite::Warm>(seed, seconds, trace, trace_file),
        "run-hot" => drive::<runhot::RunHot>(seed, seconds, trace, trace_file),
        "fleet-cold" => drive::<fleet::Fleet>(seed, seconds, trace, trace_file),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let Outcome {
        correct,
        attempted,
        failed,
        values,
    } = run.unwrap_or_else(|e| {
        eprintln!("{} error: {e}", config_prefix());
        exit(1);
    });
    let names = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if !correct {
        eprintln!(
            "{} {failed} of {attempted} operations failed; no metrics reported",
            config_prefix()
        );
        println!(
            "{}",
            metrics::result_json(false, attempted, failed, &[], &values)
        );
        exit(1);
    }
    for (name, unit) in names {
        println!(
            "{} {name} = {} {unit}",
            config_prefix(),
            values.get(name).copied().unwrap_or(0.0)
        );
    }
    if let Some(path) = trace_file {
        println!("{} spans written to {}", config_prefix(), path.display());
        if workload == "run-hot" {
            // The paper's Table 1 (RISC-V, SiFive P550) next to the
            // modelled overheads.
            for (config, name, paper) in [
                ("function count", "func_overhead_pct", "0.8%"),
                ("BB count", "bb_overhead_pct", "15.3%"),
                ("BB count, optimal placement", "bbopt_overhead_pct", "none"),
            ] {
                println!(
                    "{} Table 1 {config}: paper {paper}, modelled {}%",
                    config_prefix(),
                    values.get(name).copied().unwrap_or(0.0)
                );
            }
            println!(
                "{} the emulator's cost model is an unvalidated stand-in for the P550",
                config_prefix()
            );
        }
    }
    println!(
        "{}",
        metrics::result_json(true, attempted, failed, names, &values)
    );
}

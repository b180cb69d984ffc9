//! # rvdyn-bench — evaluation harnesses
//!
//! Code that regenerates every quantitative artifact of the paper's §4
//! plus the experiments listed in DESIGN.md §4. Each bin prints only its
//! JSON result line(s) on stdout, written through [`rvdyn::json`];
//! progress goes to stderr.
//!
//! * **T1** — the §4.3 results table, with the **A1** dead-register
//!   ablation as its sidebar (`src/bin/table1.rs`; it also renders the
//!   table to stderr);
//! * **E-DBT**, **P2**, **S1**, **FL1**, **T2** — the `emu`, `parallel`,
//!   `service`, `fleet` and `tools` bins;
//! * **A2** — springboard strategy distribution (`benches/jump_strategy`);
//! * **A3** — parallel parsing scalability (`benches/parallel_parse`);
//! * **A4** — decoder throughput (`benches/decode_throughput`);
//! * **A5** — software single-step cost (`benches/single_step`).
//!
//! The bins share one harness: [`args`] for their positional arguments,
//! [`time`] and [`best_of`] for every wall-clock reading, and [`emit`]
//! for every result line.
//!
//! The RISC-V columns are *measured on the emulator substrate* with its
//! deterministic P550-flavoured cycle model; the x86 column is measured
//! natively on the host (see [`x86`]), with the pre-optimisation Dyninst
//! trampoline modelled by explicit spill traffic — see DESIGN.md §2 for
//! why each substitution preserves the paper's comparison.

pub mod riscv;
pub mod x86;

use rvdyn::json;
use std::time::Instant;

/// The bin's positional arguments: one optional positive integer per
/// `(name, help, default)` entry of `spec`, in order. Anything else — an
/// extra argument, a flag, zero or a non-number — prints the usage to
/// stderr and exits with status 2.
pub fn args<const K: usize>(bin: &str, spec: [(&str, &str, usize); K]) -> [usize; K] {
    let given: Vec<String> = std::env::args().skip(1).collect();
    if given.len() > K {
        usage(bin, &spec);
    }
    std::array::from_fn(|i| match given.get(i) {
        None => spec[i].2,
        Some(a) => match a.parse() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!(
                    "{bin}: invalid {} {a:?}: expected a positive integer",
                    spec[i].0
                );
                usage(bin, &spec)
            }
        },
    })
}

fn usage(bin: &str, spec: &[(&str, &str, usize)]) -> ! {
    let names: Vec<String> = spec.iter().map(|(name, ..)| format!("[{name}]")).collect();
    eprintln!("usage: {bin} {}", names.join(" "));
    for (name, help, default) in spec {
        eprintln!("  {name:<10} {help} (default {default})");
    }
    std::process::exit(2)
}

/// Wall-clock nanoseconds `f` took, and its result: the one stopwatch
/// every bin and the x86 column read.
pub fn time<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as u64, out)
}

/// The fastest of `reps` timed runs. Each run builds its input with
/// `setup`, untimed, then [`time`]s `run` over it. Returns the fastest
/// run's nanoseconds, input and result (the earliest on a tie).
pub fn best_of<S, T>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> T,
) -> (u64, S, T) {
    let mut best: Option<(u64, S, T)> = None;
    for _ in 0..reps.max(1) {
        let mut input = setup();
        let (ns, out) = time(|| run(&mut input));
        if best.as_ref().is_none_or(|b| ns < b.0) {
            best = Some((ns, input, out));
        }
    }
    best.expect("at least one run")
}

/// Print one result line on stdout.
pub fn emit(build: impl FnOnce(&mut json::Object<'_>)) {
    println!("{}", json::object(build));
}

/// Logical CPUs the host offers (1 when it cannot say); the CI gates
/// condition their speedup thresholds on it.
pub fn ncpu() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One row of the §4.3 table. The x86 column is optional: the
/// counter-placement rows are an rvdyn extension with no x86-side
/// measurement (the paper's table only has every-block counting).
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub label: &'static str,
    pub x86_seconds: Option<f64>,
    pub x86_overhead: Option<f64>,
    pub riscv_seconds: f64,
    pub riscv_overhead: Option<f64>,
}

/// Render rows in the paper's format.
pub fn render_table(rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("|                 | x86      |        | RISC-V   |        |\n");
    s.push_str("|-----------------|----------|--------|----------|--------|\n");
    for r in rows {
        let xs = r.x86_seconds.map(|v| format!("{v:.4}")).unwrap_or_default();
        let xo = r
            .x86_overhead
            .map(|v| format!("{:.1}%", v * 100.0))
            .unwrap_or_default();
        let ro = r
            .riscv_overhead
            .map(|v| format!("{:.1}%", v * 100.0))
            .unwrap_or_default();
        s.push_str(&format!(
            "| {:<15} | {:>8} | {:>6} | {:>8.4} | {:>6} |\n",
            r.label, xs, xo, r.riscv_seconds, ro
        ));
    }
    s
}

//! Experiment P2: instrument-stage scaling (the parallel plan phase).
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin parallel -- [FUNCS] [ITERS]`
//! (defaults FUNCS=256, ITERS=7). Prints one JSON line per worker count
//! (the `BENCH_parallel.json` lines).
//!
//! Instruments every chained function of
//! `rvdyn_asm::many_functions_program(FUNCS)` with per-block counters at
//! worker counts {1, 2, 4, 8}, timing only the instrument stage (plan +
//! layout + springboards; parse and ELF serialisation excluded). The
//! reported time per configuration is the minimum over ITERS runs.
//! Output bytes are asserted bit-identical across all thread counts
//! before anything is printed — a run that broke determinism never
//! reports a speedup.

use rvdyn::{BinaryEditor, PointKind, SessionOptions, Snippet};
use rvdyn_bench::{args, best_of, emit, ncpu};

struct Measured {
    instrument_ns: u64,
    plans_built: usize,
    workers: usize,
    writes: Vec<(u64, Vec<u8>)>,
}

fn measure(bin: &rvdyn::Binary, funcs: usize, threads: usize, iters: usize) -> Measured {
    let setup = || {
        let mut ed = BinaryEditor::from_binary(bin.clone(), SessionOptions::new().threads(threads));
        let c = ed.alloc_var(8);
        let mut pts = Vec::new();
        for i in 0..funcs {
            pts.extend(
                ed.find_points(&format!("f_{i}"), PointKind::BlockEntry)
                    .unwrap(),
            );
        }
        ed.insert(&pts, Snippet::increment(c));
        ed
    };
    let (instrument_ns, ed, result) = best_of(iters, setup, |ed| {
        ed.instrumented().expect("instrumentation succeeds")
    });
    let d = ed.diagnostics();
    Measured {
        instrument_ns,
        plans_built: d.plans_built,
        workers: d.instrument_workers,
        writes: result.memory_writes().to_vec(),
    }
}

fn main() {
    let [funcs, iters] = args(
        "parallel",
        [
            ("FUNCS", "chained functions in the stress mutatee", 256),
            ("ITERS", "timing repetitions, minimum is reported", 7),
        ],
    );

    eprintln!("many_functions_program({funcs}), {iters} timing reps — measuring…");
    let bin = rvdyn_asm::many_functions_program(funcs);

    // All counts run even on small machines (oversubscribed pools must
    // still be deterministic); the CI speedup gate conditions on `ncpu`.
    let counts = [1usize, 2, 4, 8];

    let results: Vec<(usize, Measured)> = counts
        .iter()
        .map(|&t| (t, measure(&bin, funcs, t, iters)))
        .collect();

    // Determinism gate before any reporting.
    for (t, m) in &results[1..] {
        assert_eq!(
            m.writes, results[0].1.writes,
            "threads={t} produced different patch bytes than threads=1"
        );
    }

    let base_ns = results[0].1.instrument_ns;
    for (t, m) in &results {
        emit(|o| {
            o.field("config", "parallel_rewrite")
                .field("funcs", funcs)
                .field("threads", *t)
                .field("ncpu", ncpu())
                .field("instrument_ns", m.instrument_ns)
                .field("plans_built", m.plans_built)
                .field("workers", m.workers)
                .field("speedup", base_ns as f64 / m.instrument_ns as f64);
        });
    }
}

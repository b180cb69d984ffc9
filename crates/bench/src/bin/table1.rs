//! Regenerate the §4.3 results table (experiment T1).
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin table1 -- [N] [REPS]`
//! (defaults N=1000, REPS=1 — the paper's matrix size scaled up 10x,
//! which the cached execution engine can afford: set `RVDYN_EMU=cached`
//! to run the mutatee on the DBT back end, see docs/EMULATOR.md. Pass
//! `100` for the paper's original size; malformed arguments are
//! rejected with a usage message).
//!
//! Renders the table in the paper's layout on stderr: x86 measured
//! natively on the host with a modelled pre-optimisation trampoline,
//! RISC-V measured on the emulator substrate with the P550-flavoured
//! cycle model, plus the A1 dead-register ablation sidebar. Absolute
//! seconds differ from the paper's testbed by construction; the
//! comparison targets are the overhead percentages and their ordering
//! (see EXPERIMENTS.md).
//!
//! Stdout carries one JSON line per RISC-V configuration (the
//! `BENCH_table1.json` lines): its modelled seconds, the x86 column's
//! seconds where the paper has one, and the full `rvdyn-diagnostics-v1`
//! object — per-stage wall-clock attribution of the toolkit's own
//! pipeline. The A1 force-spill run is the `bb_count_force_spill` line.

use rvdyn::RegAllocMode;
use rvdyn_bench::riscv::{self, Config};
use rvdyn_bench::x86::{self, Probe};
use rvdyn_bench::{args, emit, render_table, Row};

fn main() {
    let [n, reps] = args(
        "table1",
        [
            ("N", "matrix size", 1000),
            ("REPS", "matmul calls per run", 1),
        ],
    );

    eprintln!("matmul {n}x{n}, {reps} call(s) — measuring…");

    // RISC-V side (emulator + cycle model).
    let rv_base = riscv::measure(n, reps, Config::Base, RegAllocMode::DeadRegisters);
    let rv_fn = riscv::measure(n, reps, Config::FunctionCount, RegAllocMode::DeadRegisters);
    let rv_bb = riscv::measure(
        n,
        reps,
        Config::BasicBlockCount,
        RegAllocMode::DeadRegisters,
    );
    let rv_bb_opt = riscv::measure(
        n,
        reps,
        Config::BasicBlockCountOptimal,
        RegAllocMode::DeadRegisters,
    );

    // x86 side (native host; spill-modelled trampolines).
    // Scale the native reps up so the timings are measurable.
    let xreps = reps * 40;
    let x_base = x86::measure(n, xreps, Probe::None);
    let x_fn = x86::measure(n, xreps, Probe::FunctionEntry);
    let x_bb = x86::measure(n, xreps, Probe::PerBlock);

    let ovh = |v: f64, b: f64| (v - b) / b;
    let rows = [
        Row {
            label: "Base",
            x86_seconds: Some(x_base),
            x86_overhead: None,
            riscv_seconds: rv_base.mutatee_seconds,
            riscv_overhead: None,
        },
        Row {
            label: "Function count",
            x86_seconds: Some(x_fn),
            x86_overhead: Some(ovh(x_fn, x_base)),
            riscv_seconds: rv_fn.mutatee_seconds,
            riscv_overhead: Some(ovh(rv_fn.mutatee_seconds, rv_base.mutatee_seconds)),
        },
        Row {
            label: "BB count",
            x86_seconds: Some(x_bb),
            x86_overhead: Some(ovh(x_bb, x_base)),
            riscv_seconds: rv_bb.mutatee_seconds,
            riscv_overhead: Some(ovh(rv_bb.mutatee_seconds, rv_base.mutatee_seconds)),
        },
        Row {
            label: "BB count (opt)",
            x86_seconds: None,
            x86_overhead: None,
            riscv_seconds: rv_bb_opt.mutatee_seconds,
            riscv_overhead: Some(ovh(rv_bb_opt.mutatee_seconds, rv_base.mutatee_seconds)),
        },
    ];

    eprintln!("\nTable 1 (§4.3) reproduction — matmul {n}x{n}, {reps} call(s):\n");
    eprint!("{}", render_table(&rows));
    eprintln!();
    eprintln!(
        "RISC-V dynamic stats: base {} insts; fn-count counter = {}; \
         bb-count counter = {} ({} spills)",
        rv_base.icount, rv_fn.counter, rv_bb.counter, rv_bb.spills
    );
    eprintln!(
        "counter placement   : optimal placed {} of {} counters \
         ({} elided, {} counts reconstructed); total block count {} \
         (matches every-block: {})",
        rv_bb_opt.diag.counters_placed,
        rv_bb_opt.diag.counters_placed + rv_bb_opt.diag.counters_elided,
        rv_bb_opt.diag.counters_elided,
        rv_bb_opt.diag.counts_reconstructed,
        rv_bb_opt.counter,
        rv_bb_opt.counter == rv_bb.counter,
    );
    eprintln!(
        "paper reference     : x86 1.4% / 66.9%; RISC-V 0.8% / 15.3% \
         (fn / bb overhead)"
    );

    // A1 sidebar: the dead-register ablation at the same size.
    let rv_bb_spill = riscv::measure(n, reps, Config::BasicBlockCount, RegAllocMode::ForceSpill);
    eprintln!(
        "\nA1 ablation (per-block counter): dead-register {:.4}s vs \
         force-spill {:.4}s ({:+.1}% if spilling)",
        rv_bb.mutatee_seconds,
        rv_bb_spill.mutatee_seconds,
        ovh(rv_bb_spill.mutatee_seconds, rv_bb.mutatee_seconds) * 100.0
    );

    for (label, x86_seconds, m) in [
        ("base", Some(x_base), &rv_base),
        ("function_count", Some(x_fn), &rv_fn),
        ("bb_count", Some(x_bb), &rv_bb),
        ("bb_count_optimal", None, &rv_bb_opt),
        ("bb_count_force_spill", None, &rv_bb_spill),
    ] {
        emit(|o| {
            o.field("config", label)
                .field("mutatee_seconds", m.mutatee_seconds);
            if let Some(x) = x86_seconds {
                o.field("x86_seconds", x);
            }
            o.raw("diagnostics", &m.diag.to_json());
        });
    }
}

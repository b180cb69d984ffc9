//! Execution-engine speedup benchmark (experiment E-DBT): the cached
//! (block-translating) engine against the reference interpreter on the
//! §4.1 matmul workload, plus a translation-stress scale point.
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin emu -- [N] [REPS]`
//! (defaults N=100, REPS=1 — the paper's matrix size). Prints one JSON
//! line (the `BENCH_emu.json` line).
//!
//! The bin *asserts* the bit-identity contract before printing anything:
//! both engines must retire the same instruction count, model the same
//! cycle count, produce the same stdout and the same final registers
//! (docs/EMULATOR.md §"Cost-model bit-identity"). Only then is the host
//! wall-clock speedup reported — identical answers, delivered faster.
//! CI gates the matmul speedup at >= 5x (BENCH_emu.json).

use rvdyn_bench::{args, best_of, emit};
use rvdyn_emu::{load_binary, EmuEngine, Machine, StopReason};
use rvdyn_symtab::Binary;

/// One engine's best-of-3 wall clock on `bin`, and the machine that ran
/// it: its counters, final registers and stdout are what the
/// bit-identity assertion compares.
fn run(bin: &Binary, engine: EmuEngine, fuel: u64) -> (u64, Machine) {
    let setup = || {
        let mut m = load_binary(bin);
        m.engine = engine;
        m.fuel = Some(fuel);
        m
    };
    let (ns, m, stop) = best_of(3, setup, |m| m.run());
    assert_eq!(stop, StopReason::Exited(0), "mutatee must exit cleanly");
    (ns, m)
}

/// Run both engines, assert the bit-identity contract, return
/// (interpreter ns, cached ns, cached machine).
fn compare(label: &str, bin: &Binary, fuel: u64) -> (u64, u64, Machine) {
    let (i_ns, i) = run(bin, EmuEngine::Interpreter, fuel);
    let (c_ns, c) = run(bin, EmuEngine::Cached, fuel);
    assert_eq!(i.icount, c.icount, "{label}: instruction counts diverge");
    assert_eq!(i.cycles, c.cycles, "{label}: modelled cycles diverge");
    assert_eq!(i.gpr, c.gpr, "{label}: final integer registers diverge");
    assert_eq!(i.fpr, c.fpr, "{label}: final float registers diverge");
    assert_eq!(i.stdout, c.stdout, "{label}: stdout diverges");
    assert!(
        c.emu_blocks_translated() > 0,
        "{label}: nothing was translated"
    );
    (i_ns, c_ns, c)
}

fn main() {
    let [n, reps] = args(
        "emu",
        [
            ("N", "matrix size", 100),
            ("REPS", "matmul calls per run", 1),
        ],
    );

    eprintln!("matmul {n}x{n}, {reps} call(s) — interpreter vs cached engine…");
    let bin = rvdyn_asm::matmul_program(n, reps);
    let (mi_ns, mc_ns, mc) = compare("matmul", &bin, 40_000_000_000);

    // Translation stress: 10k distinct functions — tens of thousands of
    // blocks through the cache, little reuse per block.
    let funcs = 10_000usize;
    eprintln!("many_functions({funcs}) — translation stress…");
    let many = rvdyn_asm::many_functions_program(funcs);
    let (si_ns, sc_ns, sc) = compare("many_functions", &many, 4_000_000_000);

    emit(|o| {
        o.field("config", "emu")
            .field("n", n)
            .field("reps", reps)
            .field("icount", mc.icount)
            .field("cycles", mc.cycles)
            .field("interpreter_ns", mi_ns)
            .field("cached_ns", mc_ns)
            .field("speedup", mi_ns as f64 / mc_ns.max(1) as f64)
            .field("blocks_translated", mc.emu_blocks_translated())
            .field("chain_links", mc.emu_chain_links())
            .field("invalidations", mc.emu_invalidations());
        o.object("scale", |s| {
            s.field("functions", funcs)
                .field("icount", sc.icount)
                .field("interpreter_ns", si_ns)
                .field("cached_ns", sc_ns)
                .field("speedup", si_ns as f64 / sc_ns.max(1) as f64)
                .field("blocks_translated", sc.emu_blocks_translated());
        });
    });
}

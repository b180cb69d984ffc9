//! Experiment F1: fleet-scale dynamic instrumentation.
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin fleet -- [PROCESSES]`
//! (default PROCESSES=100). Prints one JSON line (the `BENCH_fleet.json`
//! line).
//!
//! Instruments and runs PROCESSES copies of the matmul mutatee two
//! ways, over the *same* binary, snippet, and engine:
//!
//! - **sequential** — PROCESSES independent one-process
//!   [`FleetController`]s, one after another, each paying the full
//!   pipeline: parse, snippet lowering/relocation, verified patch
//!   commit, run to exit. This is what a tool that instruments one
//!   process at a time has to do.
//! - **fleet** — one [`FleetController`]: the front half is parsed
//!   once, the patch is planned once, and the N verified deliveries
//!   plus N runs are multiplexed through the controller's event loop
//!   over its worker pool (`RVDYN_THREADS` sizes the pool, exactly as
//!   it does for the plan phase).
//!
//! Before anything is reported the harness asserts both legs agree:
//! every process, in either leg, must exit 0 with the identical
//! instrumentation counter value — a run that diverged never reports a
//! speedup. The controller contract is documented in `docs/FLEET.md`.
//!
//! [`FleetController`]: rvdyn::FleetController

use rvdyn::{FleetController, PointKind, SessionOptions, Snippet};
use rvdyn_bench::{args, emit, ncpu, time};

/// One full single-process lifecycle: a one-process fleet, entry
/// counter, verified commit, run to exit. Returns (exit_code, counter).
fn run_one(binary: rvdyn::Binary, opts: SessionOptions) -> (i64, u64) {
    let mut fleet = FleetController::from_binary(binary, opts);
    let pid = fleet.spawn(1)[0];
    let counter = fleet.alloc_var(8);
    let pts = fleet
        .find_points("matmul", PointKind::FuncEntry)
        .expect("points");
    fleet.insert(&pts, Snippet::increment(counter));
    fleet.commit_all().expect("commit");
    fleet.run_all();
    let code = match fleet.result(pid) {
        Some(Ok(code)) => *code,
        other => panic!("single-process run failed: {other:?}"),
    };
    (
        code,
        fleet.read_var(pid, counter).expect("counter readable"),
    )
}

fn main() {
    let [n] = args(
        "fleet",
        [(
            "PROCESSES",
            "mutatees to instrument and run in each leg",
            100,
        )],
    );

    let opts = SessionOptions::new();
    let threads = opts.thread_count();
    let engine = opts.emu_engine();
    let binary = rvdyn_asm::matmul_program(16, 2);

    eprintln!(
        "fleet: {n} mutatees, {threads} worker thread(s), {} engine — measuring…",
        engine.label()
    );

    // Untimed warmup: one lifecycle per leg, to fault in code paths and
    // capture the reference (exit code, counter) both legs must match.
    let (ref_code, ref_counter) = run_one(binary.clone(), opts.clone());
    assert_eq!(ref_code, 0, "warmup mutatee must exit cleanly");

    // Leg 1: N sequential full-pipeline sessions.
    let (sequential_ns, ()) = time(|| {
        for i in 0..n {
            let (code, counter) = run_one(binary.clone(), opts.clone());
            assert_eq!(
                (code, counter),
                (ref_code, ref_counter),
                "sequential run {i} diverged"
            );
        }
    });

    // Leg 2: one fleet controller over the same N mutatees.
    let (fleet_ns, (fleet, pids, counter)) = time(|| {
        let mut fleet = FleetController::from_binary(binary, opts);
        let pids = fleet.spawn(n);
        let counter = fleet.alloc_var(8);
        let pts = fleet
            .find_points("matmul", PointKind::FuncEntry)
            .expect("points");
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().expect("fleet commit");
        fleet.run_all();
        (fleet, pids, counter)
    });

    // Parity: every fleet process must agree with the sequential runs.
    for pid in &pids {
        assert!(
            matches!(fleet.result(*pid), Some(Ok(code)) if *code == ref_code),
            "fleet pid {pid} diverged: {:?}",
            fleet.result(*pid)
        );
        assert_eq!(
            fleet.read_var(*pid, counter),
            Some(ref_counter),
            "fleet pid {pid} counter diverged"
        );
    }
    let summary = fleet.summary();
    assert_eq!(summary.processes_failed, 0, "no fleet process may fail");
    assert_eq!(summary.processes, n);

    let d = fleet.diagnostics();
    let shared_front_ns = d.timings.open_ns + d.timings.parse_ns + d.timings.instrument_ns;

    emit(|o| {
        o.field("config", "fleet")
            .field("processes", n)
            .field("threads", threads)
            .field("engine", engine.label())
            .field("ncpu", ncpu())
            .field("sequential_ns", sequential_ns)
            .field("fleet_ns", fleet_ns)
            .field("sequential_ns_per_process", sequential_ns / n as u64)
            .field("fleet_ns_per_process", fleet_ns / n as u64)
            .field("shared_front_half_ns", shared_front_ns)
            .field("events_dispatched", summary.events_dispatched)
            .field("speedup", sequential_ns as f64 / fleet_ns as f64);
    });
}

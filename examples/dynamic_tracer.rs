//! Dynamic function tracer (Figure 1, dynamic path; the TAU/HPCToolkit
//! use case from §2).
//!
//! ```sh
//! cargo run --example dynamic_tracer
//! ```
//!
//! Creates the mutatee process, inserts entry/exit counters into `fib`
//! *through the process-control interface* (no file is written), resumes
//! it, and reports call/return counts plus the modelled runtime. A single
//! live process is a one-process [`FleetController`].

use rvdyn::{FleetController, PointKind, SessionOptions, Snippet};

fn main() {
    let n = 12u64;
    let bin = rvdyn_asm::fib_program(n);

    // Figure 1, variant 1: create the process (stopped at entry).
    let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
    let pid = fleet.spawn(1)[0];

    // Instrumentation variables live in the patch data area of the live
    // process.
    let calls = fleet.alloc_var(8);
    let returns = fleet.alloc_var(8);

    let entries = fleet.find_points("fib", PointKind::FuncEntry).unwrap();
    let exits = fleet.find_points("fib", PointKind::FuncExit).unwrap();
    fleet.insert(&entries, Snippet::increment(calls));
    fleet.insert(&exits, Snippet::increment(returns));

    // Apply the patch to the live process and let it run.
    fleet.commit_all().expect("dynamic instrumentation applies");
    fleet.run_all();
    let code = match fleet.result(pid) {
        Some(Ok(code)) => *code,
        other => panic!("mutatee did not exit cleanly: {other:?}"),
    };

    let calls_n = fleet.read_var(pid, calls).unwrap();
    let returns_n = fleet.read_var(pid, returns).unwrap();
    let (seconds, icount) = fleet
        .with_process(pid, |p| (p.machine().now_seconds(), p.machine().icount))
        .unwrap();
    println!("fib({n}) exited with {code}");
    println!("fib was entered {calls_n} times and returned {returns_n} times");
    println!("modelled runtime: {seconds:.6}s, {icount} instructions");
    assert_eq!(calls_n, returns_n);
    // The call-tree size of naive fib: 2*fib(n+1)-1.
    let fib = |k: u64| -> u64 {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..k {
            let t = a + b;
            a = b;
            b = t;
        }
        a
    };
    assert_eq!(calls_n, 2 * fib(n + 1) - 1);
}

//! Precise invalidation of the DBT translation cache under the dynamic
//! instrumentation path (docs/EMULATOR.md §"Invalidation"): springboard
//! patches delivered through the debug interface land in basic blocks
//! the cached engine has *already* translated and chained, and both the
//! direct-jump and trap-springboard redirect paths must take effect on
//! the very next execution — never a stale cached step. The FaultPlan
//! corrupt-write case pins the same hook for torn deliveries.

mod common;

use common::run_to_exit;
use rvdyn::{
    EmuEngine, Error, Event, FaultPlan, FleetController, PointKind, Process, SessionOptions,
    Snippet,
};
use rvdyn_asm::{matmul_program, tiny_function_program};

/// Warm a process's translation cache by running it to the `nth` hit of
/// a breakpoint at `addr` (the function body before `addr`'s nth visit
/// has then executed n-1 times — translated, chained, hot).
fn warm_to(p: &mut Process, addr: u64, hits: usize) {
    p.set_breakpoint(addr).unwrap();
    for _ in 0..hits {
        match p.cont().unwrap() {
            Event::Breakpoint(at) => assert_eq!(at, addr),
            other => panic!("expected breakpoint during warmup, got {other:?}"),
        }
    }
    p.remove_breakpoint(addr).unwrap();
}

/// Springboard writes into a hot cached block: warm the mutatee under an
/// engine until `matmul`'s blocks are translated, then attach and commit
/// jump springboards *into those blocks* and finish the run. The counter
/// must come out identical on both engines, and the cached engine must
/// report invalidations for the patched blocks.
#[test]
fn springboard_write_into_hot_block_redirects_on_both_engines() {
    let reps = 6usize;
    let mut counters = Vec::new();
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let bin = matmul_program(5, reps);
        let mm = bin.symbol_by_name("matmul").unwrap().value;
        let mut p = Process::launch(&bin);
        p.machine_mut().engine = engine;
        // Two full executions of matmul's body: its blocks are cached
        // and chained before instrumentation exists.
        warm_to(&mut p, mm, 3);
        if engine == EmuEngine::Cached {
            assert!(
                p.machine().emu_blocks_translated() > 0,
                "warmup must have populated the translation cache"
            );
        }

        let mut fleet = FleetController::from_binary(bin, SessionOptions::new().engine(engine));
        let pid = fleet.attach(p);
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        if engine == EmuEngine::Cached {
            assert!(
                fleet
                    .with_process(pid, |p| p.machine().emu_invalidations())
                    .unwrap()
                    > 0,
                "committing springboards into hot blocks must invalidate them"
            );
        }
        assert!(matches!(run_to_exit(&mut fleet, pid), Ok(0)));
        counters.push(fleet.read_var(pid, counter).unwrap());
        // The redirect was taken on the remaining calls, through freshly
        // re-decoded blocks — the counter saw every post-commit entry.
        assert!(counters.last().copied().unwrap() > 0);
    }
    assert_eq!(
        counters[0], counters[1],
        "engines disagree on post-patch entry counts: {counters:?}"
    );
}

/// Same shape through the *trap* springboard path: the 2-byte `tiny`
/// function forces an ebreak springboard, so every post-commit call
/// resolves through the trap-redirect table — inside the cached engine's
/// block dispatcher, not the interpreter loop.
#[test]
fn trap_springboard_into_hot_block_resolves_on_both_engines() {
    let iters = 40u64;
    let warm_hits = 5usize;
    let mut counters = Vec::new();
    for engine in [EmuEngine::Interpreter, EmuEngine::Cached] {
        let bin = tiny_function_program(iters);
        let tiny = bin.symbol_by_name("tiny").unwrap().value;
        let mut p = Process::launch(&bin);
        p.machine_mut().engine = engine;
        warm_to(&mut p, tiny, warm_hits);

        let mut fleet = FleetController::from_binary(bin, SessionOptions::new().engine(engine));
        let pid = fleet.attach(p);
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("tiny", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        assert!(
            fleet
                .with_process(pid, |p| p.machine().trap_redirects.contains_key(&tiny))
                .unwrap(),
            "tiny must use the trap springboard"
        );
        assert!(matches!(run_to_exit(&mut fleet, pid), Ok(0)));
        counters.push(fleet.read_var(pid, counter).unwrap());
    }
    assert_eq!(
        counters[0], counters[1],
        "engines disagree on trap-redirect counts: {counters:?}"
    );
    // Exactly the calls made after the warmup stop are counted.
    assert_eq!(counters[0], iters - warm_hits as u64 + 1);
}

/// A FaultPlan-corrupted patch write still goes through the machine's
/// invalidation hook: the torn bytes kill every overlapping cached
/// block, so the engine re-decodes rather than executing stale steps —
/// pinned by arming `verify_translations`, whose coherence assertion
/// would trip if a stale block survived the corrupt write.
#[test]
fn corrupt_write_invalidates_hot_cached_blocks() {
    let bin = matmul_program(5, 6);
    let mm = bin.symbol_by_name("matmul").unwrap().value;
    let mut p = Process::launch(&bin);
    p.machine_mut().engine = EmuEngine::Cached;
    p.machine_mut().verify_translations = true;
    warm_to(&mut p, mm, 3);
    let warm_blocks = p.machine().emu_blocks_translated();
    assert!(warm_blocks > 0);

    let mut fleet =
        FleetController::from_binary(bin, SessionOptions::new().engine(EmuEngine::Cached));
    let pid = fleet.attach(p);
    fleet
        .set_fault_plan(pid, FaultPlan::new().corrupt_write(1, 0))
        .unwrap();
    let counter = fleet.alloc_var(8);
    let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
    fleet.insert(&pts, Snippet::increment(counter));
    fleet.commit_all().unwrap();
    // The corrupted region fails read-back verification…
    assert!(matches!(
        fleet.result(pid),
        Some(Err(Error::PatchVerifyFailed { .. }))
    ));
    // …but the bytes *were* delivered, and the invalidation hook killed
    // the overlapping cached blocks — the coherence invariant holds even
    // for torn writes the commit refused.
    assert!(
        fleet
            .with_process(pid, |p| p.machine().emu_invalidations())
            .unwrap()
            > 0,
        "corrupt write must invalidate overlapping cached blocks"
    );
    assert_eq!(fleet.process_diagnostics(pid).unwrap().faults_injected, 1);
}

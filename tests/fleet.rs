//! Fleet-scale dynamic instrumentation, end to end through the public
//! API: one [`FleetController`] must instrument N mutatees with the
//! exact bytes the static [`BinaryEditor`] writes into a rewritten
//! image, isolate injected faults to the targeted process, produce
//! identical results at every worker count, survive a process dying in
//! the middle of a fleet-wide patch commit, and uninstrument one
//! attached process without disturbing the rest. The contract under
//! test is written down in `docs/FLEET.md`.

use rvdyn::telemetry::CollectSink;
use rvdyn::tools::{MemTracer, TraceOptions};
use rvdyn::{
    BinaryEditor, Error, Event, FaultPlan, FleetController, PointKind, Process, ProfileOptions,
    Profiler, RunOutput, SessionOptions, Snippet, TelemetryEvent,
};
use rvdyn_asm::matmul_program;

/// The static path over the same binary and snippet the fleet uses:
/// rewrite the file image and run it. Returns (exit_code, counter, run)
/// so callers can compare the rewritten image's memory against fleet
/// processes.
fn static_reference() -> (i64, u64, RunOutput) {
    let mut ed = BinaryEditor::from_binary(matmul_program(8, 2), SessionOptions::new());
    let c = ed.alloc_var(8);
    let pts = ed.find_points("matmul", PointKind::FuncEntry).unwrap();
    ed.insert(&pts, Snippet::increment(c));
    let out = ed.instrument_and_run(100_000_000).unwrap();
    let counter = out.read_u64(c.addr).unwrap();
    (out.exit_code, counter, out)
}

fn instrumented_fleet(n: usize, opts: SessionOptions) -> (FleetController, Vec<u32>, rvdyn::Var) {
    let mut fleet = FleetController::from_binary(matmul_program(8, 2), opts);
    let pids = fleet.spawn(n);
    let c = fleet.alloc_var(8);
    let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
    fleet.insert(&pts, Snippet::increment(c));
    (fleet, pids, c)
}

/// The parity claim: a fleet of 100 processes ends up with patch regions
/// *bit-identical* to the static rewrite's image, in every process, and
/// every process computes the static run's result.
#[test]
fn fleet_of_100_matches_the_static_rewrite_bit_for_bit() {
    let (seq_code, seq_counter, image) = static_reference();
    assert_eq!(seq_code, 0);

    let (mut fleet, pids, c) = instrumented_fleet(100, SessionOptions::new());
    fleet.commit_all().unwrap();
    fleet.run_all();

    let regions = fleet.commit_regions().to_vec();
    assert!(!regions.is_empty(), "commit must deliver patch regions");
    for pid in &pids {
        assert!(
            matches!(fleet.result(*pid), Some(Ok(code)) if *code == seq_code),
            "pid {pid}: {:?}",
            fleet.result(*pid)
        );
        assert_eq!(fleet.read_var(*pid, c), Some(seq_counter), "pid {pid}");
        // Every delivered region must read back byte-identical to the
        // rewritten image's memory at the same addresses.
        for (addr, bytes) in &regions {
            let fleet_bytes = fleet
                .with_process(*pid, |p| p.read_mem(*addr, bytes.len()).unwrap())
                .unwrap();
            let static_bytes = image.machine().read_mem(*addr, bytes.len()).unwrap();
            assert_eq!(fleet_bytes, *bytes, "pid {pid} region {addr:#x} vs plan");
            assert_eq!(
                fleet_bytes, static_bytes,
                "pid {pid} region {addr:#x} vs static image"
            );
        }
    }

    let s = fleet.summary();
    assert_eq!(s.processes, 100);
    assert_eq!(s.processes_failed, 0);
    // One commit completion and at least one run completion per process.
    assert!(s.events_dispatched >= 200, "got {}", s.events_dispatched);
}

/// Fault isolation: a write-corruption fault plan targeted at exactly
/// one pid mid-fleet must surface as that pid's typed
/// `PatchVerifyFailed` — and the other N−1 processes commit, run, and
/// count as if nothing happened.
#[test]
fn targeted_fault_hits_one_process_and_spares_the_rest() {
    let (_, seq_counter, _) = static_reference();
    let (mut fleet, pids, c) = instrumented_fleet(8, SessionOptions::new());
    let victim = pids[3];
    // Write 0 is the data-area zero-fill; write 1 the first region.
    fleet
        .set_fault_plan(victim, FaultPlan::new().corrupt_write(1, 0))
        .unwrap();
    fleet.commit_all().unwrap();
    fleet.run_all();

    match fleet.result(victim) {
        Some(Err(Error::PatchVerifyFailed { addr })) => assert!(*addr > 0),
        other => panic!("victim must fail patch verification, got {other:?}"),
    }
    let s = fleet.summary();
    assert_eq!(s.processes_failed, 1);
    assert_eq!(s.faults_injected, 1);
    for pid in pids {
        if pid == victim {
            continue;
        }
        assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
        assert_eq!(fleet.read_var(pid, c), Some(seq_counter), "pid {pid}");
        assert_eq!(
            fleet.process_diagnostics(pid).unwrap().faults_injected,
            0,
            "pid {pid} must see no injected faults"
        );
    }
    // The victim's per-process diagnostics carry the injection.
    assert_eq!(
        fleet.process_diagnostics(victim).unwrap().faults_injected,
        1
    );
}

/// Event-loop determinism: per-process results, counters, and the
/// dispatched-event total must be identical whether the fleet's back
/// half runs inline (threads=1, strictly deterministic dispatch order)
/// or over a 4-worker pool (arrival order may differ; outcomes may not).
#[test]
fn worker_count_does_not_change_any_observable_outcome() {
    let run = |threads: usize| {
        let (mut fleet, pids, c) = instrumented_fleet(12, SessionOptions::new().threads(threads));
        fleet.commit_all().unwrap();
        fleet.run_all();
        let s = fleet.summary();
        let per_pid: Vec<(u32, i64, u64, u64)> = pids
            .iter()
            .map(|pid| {
                let code = match fleet.result(*pid) {
                    Some(Ok(code)) => *code,
                    other => panic!("pid {pid}: {other:?}"),
                };
                let d = fleet.process_diagnostics(*pid).unwrap();
                (*pid, code, fleet.read_var(*pid, c).unwrap(), d.instret)
            })
            .collect();
        (per_pid, s.events_dispatched, s.processes_failed)
    };
    let (seq1, events1, failed1) = run(1);
    let (seq4, events4, failed4) = run(4);
    assert_eq!(seq1, seq4, "per-process outcomes must be thread-invariant");
    assert_eq!(events1, events4, "event totals must be thread-invariant");
    assert_eq!((failed1, failed4), (0, 0));
}

/// A process that exits *before* the fleet-wide commit reaches it is a
/// per-process `FleetProcessLost`, not a fleet failure: the commit job
/// detects the dead process, skips delivery, and the rest of the fleet
/// commits and runs normally.
#[test]
fn process_exit_during_patch_is_recovered_per_process() {
    let sink = CollectSink::new();
    let (mut fleet, pids, c) = instrumented_fleet(6, SessionOptions::new().telemetry(sink.clone()));
    let dead = pids[1];
    // Run the victim to exit through the debugger escape hatch while
    // the rest of the fleet is still stopped at entry.
    let code = fleet
        .with_process(dead, |p| loop {
            match p.cont().unwrap() {
                rvdyn::Event::Exited(code) => break code,
                _ => continue,
            }
        })
        .unwrap();
    assert_eq!(code, 0);

    fleet.commit_all().unwrap();
    fleet.run_all();

    match fleet.result(dead) {
        Some(Err(Error::FleetProcessLost { pid })) => assert_eq!(*pid, dead),
        other => panic!("expected FleetProcessLost, got {other:?}"),
    }
    for pid in pids {
        if pid == dead {
            continue;
        }
        assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
        assert!(fleet.read_var(pid, c).unwrap() > 0, "pid {pid}");
    }
    let s = fleet.summary();
    assert_eq!(s.processes_failed, 1);
    // The failure is typed in telemetry too: exactly one FleetProcessFailed.
    let failed: Vec<u32> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::FleetProcessFailed { pid } => Some(*pid),
            _ => None,
        })
        .collect();
    assert_eq!(failed, vec![dead]);
}

/// Tool/fault interaction: a `FaultPlan` corrupting one process's patch
/// delivery must not perturb a single record of the other N−1 memory
/// traces. The victim surfaces its typed commit failure; every survivor
/// drains a trace identical to the uninstrumented interpreter oracle.
#[test]
fn fault_in_one_process_leaves_other_traces_intact() {
    let bin = matmul_program(5, 1);
    let mut fleet = FleetController::from_binary(bin.clone(), SessionOptions::new().threads(4));
    let pids = fleet.spawn(6);
    let tracer = MemTracer::plan_fleet(&mut fleet, &TraceOptions::default()).unwrap();
    let victim = pids[2];
    fleet
        .set_fault_plan(victim, FaultPlan::new().corrupt_write(1, 0))
        .unwrap();
    fleet.commit_all().unwrap();
    fleet.run_all();

    // The clean-run ground truth, from an uninstrumented machine.
    let site_set: std::collections::BTreeSet<u64> = tracer.pcs().into_iter().collect();
    let mut m = rvdyn_emu::load_binary(&bin);
    m.arm_mem_oracle();
    m.fuel = Some(50_000_000);
    assert!(matches!(m.run(), rvdyn::StopReason::Exited(0)));
    let expected: Vec<rvdyn::TraceRecord> = m
        .take_mem_oracle()
        .into_iter()
        .filter(|op| site_set.contains(&op.pc))
        .map(|op| rvdyn::TraceRecord {
            pc: op.pc,
            addr: op.addr,
            len: op.len,
            is_store: op.is_store,
        })
        .collect();
    assert!(!expected.is_empty());

    match fleet.result(victim) {
        Some(Err(Error::PatchVerifyFailed { .. })) => {}
        other => panic!("victim must fail its commit, got {other:?}"),
    }
    for pid in pids {
        if pid == victim {
            continue;
        }
        assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
        let d = tracer.drain_fleet(&mut fleet, pid).unwrap();
        assert_eq!(d.dropped, 0, "pid {pid}");
        assert_eq!(d.records, expected, "pid {pid}: trace perturbed by fault");
    }
    assert_eq!(fleet.summary().processes_failed, 1);
}

/// Tool/fault interaction, profiler side: one process dying before the
/// fleet is sampled yields a typed per-pid error — and the other N−1
/// profiles are exactly the profiles an undisturbed fleet produces.
#[test]
fn dead_process_does_not_perturb_other_fleet_profiles() {
    let bin = matmul_program(5, 1);
    let profiler = Profiler::new(ProfileOptions {
        interval_cycles: 2_000,
        max_samples: 1 << 20,
    });

    // Reference: an undisturbed 1-process fleet's sample pcs.
    let mut ref_fleet = FleetController::from_binary(bin.clone(), SessionOptions::new());
    let ref_pid = ref_fleet.spawn(1)[0];
    let reference = profiler.sample_fleet(&mut ref_fleet).unwrap();
    let ref_pcs = &reference.per_process[&ref_pid].sample_pcs;
    assert!(!ref_pcs.is_empty());

    let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
    let pids = fleet.spawn(4);
    let dead = pids[1];
    let code = fleet
        .with_process(dead, |p| loop {
            match p.cont().unwrap() {
                rvdyn::Event::Exited(code) => break code,
                _ => continue,
            }
        })
        .unwrap();
    assert_eq!(code, 0);

    let out = profiler.sample_fleet(&mut fleet).unwrap();
    assert!(
        matches!(out.outcomes.get(&dead), Some(Err(_))),
        "dead pid must surface a typed error, got {:?}",
        out.outcomes.get(&dead)
    );
    let mut live_samples = 0;
    for pid in pids {
        if pid == dead {
            continue;
        }
        assert!(matches!(out.outcomes.get(&pid), Some(Ok(0))), "pid {pid}");
        assert_eq!(
            &out.per_process[&pid].sample_pcs, ref_pcs,
            "pid {pid}: profile perturbed by the dead neighbour"
        );
        live_samples += out.per_process[&pid].samples;
    }
    assert_eq!(out.profile.samples, live_samples);
}

/// Attach and uninstrument one member of a running fleet: two spawned
/// processes plus one attached mid-run share one commit; removing the
/// attached pid's instrumentation halfway through its run freezes its
/// counter while the other two count every call to completion.
#[test]
fn uninstrumenting_an_attached_pid_freezes_only_its_counter() {
    let reps = 6u64;
    let bin = matmul_program(5, reps as usize);
    let main = bin.symbol_by_name("main").unwrap().value;

    // Half the uninstrumented run's modelled cycles: the attached pid
    // is uninstrumented somewhere in the middle of its matmul calls.
    let mut probe = Process::launch(&bin);
    while !matches!(probe.cont().unwrap(), Event::Exited(_)) {}
    let halfway = probe.machine().cycles / 2;

    // A process already running, stopped at main.
    let mut running = Process::launch(&bin);
    running.set_breakpoint(main).unwrap();
    assert_eq!(running.cont().unwrap(), Event::Breakpoint(main));
    running.remove_breakpoint(main).unwrap();

    let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
    let spawned = fleet.spawn(2);
    let attached = fleet.attach(running);
    let c = fleet.alloc_var(8);
    let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
    fleet.insert(&pts, Snippet::increment(c));
    fleet.commit_all().unwrap();

    // Run the attached pid to the halfway cycle, then uninstrument it.
    let stop = fleet
        .with_process(attached, |p| {
            p.machine_mut().stop_at_cycles = Some(halfway);
            p.cont().unwrap()
        })
        .unwrap();
    assert!(matches!(stop, Event::CycleLimit(_)), "got {stop:?}");
    let frozen = fleet.read_var(attached, c).unwrap();
    assert!(
        frozen > 0 && frozen < reps,
        "the attached pid must stop mid-run, counted {frozen} of {reps}"
    );
    fleet.remove_instrumentation(attached).unwrap();
    fleet.run_all();

    assert!(matches!(fleet.result(attached), Some(Ok(0))));
    assert_eq!(fleet.read_var(attached, c), Some(frozen), "counter frozen");
    for pid in spawned {
        assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
        assert_eq!(fleet.read_var(pid, c), Some(reps), "pid {pid}");
    }
    assert_eq!(fleet.summary().processes_failed, 0);
}

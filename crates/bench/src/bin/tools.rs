//! Experiment T1: tool overhead — memory tracer and sampling profiler.
//!
//! Usage: `cargo run -p rvdyn-bench --release --bin tools -- [SIZE]`
//! (default SIZE=16: the matmul mutatee's matrix dimension). Prints one
//! JSON line (the `BENCH_tools.json` line).
//!
//! Three measured legs over the same mutatee:
//!
//! - **baseline** — the uninstrumented binary run to exit on the cached
//!   engine: the denominator for every overhead figure.
//! - **memtrace** — every load/store instrumented with the
//!   [`MemTracer`] ring snippet, run on the cached engine, ring drained
//!   and serialized to `rvdyn-trace-v1`. Reports records/second
//!   sustained by the instrumented mutatee (the CI gate: ≥ 1M/s), the
//!   slowdown vs baseline, and the serializer round-trip throughput.
//! - **sample** — the [`Profiler`] interrupting every 10k modelled
//!   cycles with a full stack walk per interrupt. Reports samples
//!   taken, wall-clock overhead vs baseline, and samples/second.
//!
//! Correctness is asserted before anything is reported: the drained
//! trace must equal the interpreter-side memory-op oracle record for
//! record, and both tool runs must exit 0 — a run that diverged never
//! reports a throughput.
//!
//! [`MemTracer`]: rvdyn::MemTracer
//! [`Profiler`]: rvdyn::Profiler

use rvdyn::tools::{serialize_trace, MemTracer, TraceOptions, TraceReader};
use rvdyn::{EmuEngine, FleetController, ProfileOptions, Profiler, SessionOptions};
use rvdyn_bench::{args, emit, time};

fn main() {
    let [size] = args("tools", [("SIZE", "matmul matrix dimension", 16)]);
    let binary = rvdyn_asm::matmul_program(size, 2);
    let opts = SessionOptions::new().engine(EmuEngine::Cached);
    let engine = opts.emu_engine();

    eprintln!(
        "tools: matmul({size}, 2) mutatee, {} engine — measuring…",
        engine.label()
    );

    // Baseline: the uninstrumented mutatee, warm then timed.
    let baseline_ns = {
        let mut warm = rvdyn_emu::load_binary(&binary);
        assert!(matches!(warm.run(), rvdyn_emu::StopReason::Exited(0)));
        let mut m = rvdyn_emu::load_binary(&binary);
        m.engine = engine;
        let (ns, stop) = time(|| m.run());
        assert!(matches!(stop, rvdyn_emu::StopReason::Exited(0)));
        ns
    };

    // Memtrace leg: full-program tracer, ring sized for the whole run.
    let mut fleet = FleetController::from_binary(binary.clone(), opts.clone());
    let pid = fleet.spawn(1)[0];
    let tracer = MemTracer::plan_fleet(
        &mut fleet,
        &TraceOptions {
            capacity: 1 << 21,
            funcs: None,
        },
    )
    .expect("plan");
    fleet.commit_all().expect("commit");
    let (trace_wall_ns, ()) = time(|| fleet.run_all());
    assert!(
        matches!(fleet.result(pid), Some(Ok(0))),
        "traced mutatee must exit cleanly: {:?}",
        fleet.result(pid)
    );
    let drained = tracer.drain_fleet(&mut fleet, pid).expect("drain");
    assert_eq!(drained.dropped, 0, "ring must hold the whole run");

    // Parity gate: the trace must equal the interpreter-side oracle.
    {
        let sites: std::collections::BTreeSet<u64> = tracer.pcs().into_iter().collect();
        let mut m = rvdyn_emu::load_binary(&binary);
        m.arm_mem_oracle();
        assert!(matches!(m.run(), rvdyn_emu::StopReason::Exited(0)));
        let expected: Vec<rvdyn::TraceRecord> = m
            .take_mem_oracle()
            .into_iter()
            .filter(|op| sites.contains(&op.pc))
            .map(|op| rvdyn::TraceRecord {
                pc: op.pc,
                addr: op.addr,
                len: op.len,
                is_store: op.is_store,
            })
            .collect();
        assert_eq!(drained.records, expected, "trace diverged from the oracle");
    }

    let records = drained.records.len() as u64;

    // Serializer round trip: records → rvdyn-trace-v1 bytes → records.
    let (serialize_ns, bytes) = time(|| serialize_trace(&drained.records));
    let (parse_ns, reader) = time(|| TraceReader::parse(&bytes).expect("validate"));
    assert_eq!(reader.len() as u64, records);

    // Profiler leg: 10k-cycle sampling over a fresh process.
    let mut fleet = FleetController::from_binary(binary, opts);
    let pid = fleet.spawn(1)[0];
    let profiler = Profiler::new(ProfileOptions {
        interval_cycles: 10_000,
        max_samples: 1 << 20,
    });
    let (profile_wall_ns, run) = time(|| profiler.sample_fleet(&mut fleet).expect("sampled run"));
    assert!(
        matches!(run.outcomes.get(&pid), Some(Ok(0))),
        "sampled mutatee must exit cleanly"
    );
    assert!(run.profile.samples > 0, "interval must fire");

    emit(|o| {
        o.field("config", "tools")
            .field("size", size)
            .field("engine", engine.label())
            .field("baseline_ns", baseline_ns)
            .field("trace_records", records)
            .field("trace_dropped", drained.dropped)
            .field("trace_wall_ns", trace_wall_ns)
            .field(
                "trace_records_per_s",
                records as f64 / (trace_wall_ns as f64 / 1e9),
            )
            .field("trace_overhead", trace_wall_ns as f64 / baseline_ns as f64)
            .field("trace_bytes", bytes.len())
            .field(
                "trace_bytes_per_record",
                bytes.len() as f64 / records.max(1) as f64,
            )
            .field("serialize_ns", serialize_ns)
            .field("validate_ns", parse_ns)
            .field("profile_samples", run.profile.samples)
            .field("profile_max_depth", run.profile.max_depth)
            .field("profile_wall_ns", profile_wall_ns)
            .field(
                "profile_overhead",
                profile_wall_ns as f64 / baseline_ns as f64,
            )
            .field(
                "samples_per_s",
                run.profile.samples as f64 / (profile_wall_ns as f64 / 1e9),
            );
    });
}

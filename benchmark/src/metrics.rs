//! The metric registry (names and units, in the order `BENCHMARK.json`
//! lists them), the effective-configuration prefix, and the result line.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["rewrite-cold", "rewrite-warm", "run-hot", "fleet-cold"];

/// End-to-end metrics: defined, and never 0, on every workload. Times
/// are CPU time of the whole process (see `drive`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("request_cpu_ms_p50", "ms"),
    ("request_cpu_ms_p99", "ms"),
    ("requests_per_cpu_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload
/// never calls reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Wall-clock request latency and rate of the untraced phase.
    ("request_ms_p50", "ms"),
    ("request_ms_p99", "ms"),
    ("requests_per_s", "1/s"),
    // Workload-level numbers that exist on some workloads only.
    ("sim_mips", "MIPS"),
    ("func_overhead_pct", "%"),
    ("bb_overhead_pct", "%"),
    ("bbopt_overhead_pct", "%"),
    ("trace_mrec_per_s", "Mrec/s"),
    ("commit_ms", "ms"),
    ("procs_per_s", "1/s"),
    ("failed_ratio", "ratio"),
    // symtab
    ("symtab.parse_ns", "ns"),
    ("symtab.write_ns", "ns"),
    ("symtab.bytes_in", "B"),
    ("symtab.bytes_out", "B"),
    // analysis (core's content key and cache)
    ("analysis.key_ns", "ns"),
    ("analysis.key_bytes", "B"),
    ("analysis.cache_lookup_ns", "ns"),
    ("analysis.of_binary_ns", "ns"),
    ("analysis.cache_hits", "count"),
    ("analysis.cache_misses", "count"),
    ("analysis.cache_hit_ratio", "ratio"),
    // parse
    ("parse.cfg_ns", "ns"),
    ("parse.gaps_ns", "ns"),
    ("parse.loops_ns", "ns"),
    ("parse.insts_per_s", "1/s"),
    ("parse.functions", "count"),
    ("parse.blocks", "count"),
    ("parse.insts", "count"),
    // dataflow
    ("dataflow.liveness_ns", "ns"),
    // patch / codegen
    ("patch.placement_ns", "ns"),
    ("patch.apply_ns", "ns"),
    ("patch.points", "count"),
    ("patch.spills", "count"),
    ("patch.counters_placed", "count"),
    ("patch.counters_elided", "count"),
    ("patch.plans_built", "count"),
    ("patch.workers", "count"),
    // emu
    ("emu.load_ns", "ns"),
    ("emu.run_ns", "ns"),
    ("emu.icount", "count"),
    ("emu.cycles", "count"),
    ("emu.host_ns_per_inst", "ns"),
    ("emu.blocks_translated", "count"),
    ("emu.chain_links", "count"),
    ("emu.invalidations", "count"),
    // proccontrol / fleet
    ("fleet.spawn_ns", "ns"),
    ("fleet.commit_ns", "ns"),
    ("fleet.run_ns", "ns"),
    ("fleet.events_dispatched", "count"),
    ("fleet.regions_written", "count"),
    ("fleet.processes_failed", "count"),
    // tools
    ("tools.trace_plan_ns", "ns"),
    ("tools.trace_drain_ns", "ns"),
    ("tools.trace_serialize_ns", "ns"),
    ("tools.trace_validate_ns", "ns"),
    ("tools.trace_records", "count"),
    ("tools.trace_dropped", "count"),
    ("tools.trace_bytes_per_record", "B"),
    ("tools.profile_ns", "ns"),
    ("tools.profile_samples", "count"),
    // Traced-run checks: self time per layer per request, the part of
    // each request no layer span covers, and what tracing itself cost.
    ("self.symtab_ns", "ns"),
    ("self.analysis_ns", "ns"),
    ("self.session_ns", "ns"),
    ("self.parse_ns", "ns"),
    ("self.dataflow_ns", "ns"),
    ("self.patch_ns", "ns"),
    ("self.emu_ns", "ns"),
    ("self.fleet_ns", "ns"),
    ("self.tools_ns", "ns"),
    ("trace.uncovered_ns", "ns"),
    ("trace.uncovered_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The layers whose self time is reported, with the metric for each.
pub const LAYERS: &[(&str, &str)] = &[
    ("symtab", "self.symtab_ns"),
    ("analysis", "self.analysis_ns"),
    ("session", "self.session_ns"),
    ("parse", "self.parse_ns"),
    ("dataflow", "self.dataflow_ns"),
    ("patch", "self.patch_ns"),
    ("emu", "self.emu_ns"),
    ("fleet", "self.fleet_ns"),
    ("tools", "self.tools_ns"),
];

static PREFIX: OnceLock<String> = OnceLock::new();

/// Pin the effective configuration printed on every output line.
pub fn set_config(workload: &str, seed: u64) {
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = PREFIX.set(format!(
        "[rvdyn-benchmark workload={workload} seed={seed} engine={} threads={} ncpu={ncpu} commit={}]",
        crate::ENGINE.label(),
        crate::THREADS,
        commit()
    ));
}

pub fn config_prefix() -> &'static str {
    PREFIX.get().map_or("[rvdyn-benchmark]", |s| s.as_str())
}

/// The commit under test, when the checkout is a git repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of `names` in registry order.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

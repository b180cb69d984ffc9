//! The repository benchmark: one closed-loop client driving the rvdyn
//! toolkit through four workloads, with a traced run that attributes
//! each request's wall time to the layer (crate) whose public API did
//! the work. See `README.md` in this directory for the metrics, their
//! units and which layer should move which end-to-end number.
//!
//! The library half holds everything the self-tests exercise (seeded
//! image generation, the span recorder, the metric registry); `main.rs`
//! is the command line.

pub mod exec;
pub mod fleet;
pub mod images;
pub mod metrics;
pub mod rewrite;
pub mod rng;
pub mod runhot;
pub mod spans;
pub mod stats;

use rvdyn::{EmuEngine, ParseOptions, SessionOptions};

/// Worker threads every session uses: two, so the per-call thread
/// spawning in the parallel pipeline stages is on the measured path.
pub const THREADS: usize = 2;

/// The execution engine every mutatee runs on: the library default.
pub const ENGINE: EmuEngine = EmuEngine::Interpreter;

/// Environment variables the library reads for its defaults. The
/// benchmark pins both through code and refuses to run when either is
/// set, so a run can never silently measure another configuration.
pub const PINNED_ENV: [&str; 2] = ["RVDYN_EMU", "RVDYN_THREADS"];

/// Parse options for one image: the pinned thread count, with gap
/// parsing on for stripped images.
pub fn parse_options(gaps: bool) -> ParseOptions {
    ParseOptions {
        parse_gaps: gaps,
        threads: THREADS,
        ..ParseOptions::default()
    }
}

/// Session options for one request.
pub fn session_options(gaps: bool) -> SessionOptions {
    SessionOptions::new()
        .parse_options(parse_options(gaps))
        .threads(THREADS)
        .engine(ENGINE)
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed timespec for the
    // duration of the call, laid out as the C struct on 64-bit Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// What one phase of a workload measured, before it is turned into
/// metrics.
#[derive(Default)]
pub struct Phase {
    /// (wall, process CPU) nanoseconds of every completed request.
    pub requests: Vec<(u64, u64)>,
    /// Operations issued (requests, fleet processes, check runs).
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Workload-level numbers (e.g. `sim_mips`), by metric name.
    pub values: std::collections::BTreeMap<&'static str, f64>,
}

impl Phase {
    /// CPU milliseconds of each completed request.
    pub fn cpu_ms(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.1 as f64 / 1e6).collect()
    }

    /// Wall milliseconds of each completed request.
    pub fn wall_ms(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.0 as f64 / 1e6).collect()
    }

    /// Record one failed operation with its reason on stderr.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("{} FAILED: {what}", metrics::config_prefix());
    }
}

/// A stopwatch reading both wall time and this process's CPU time.
pub struct Clock {
    wall: std::time::Instant,
    cpu: u64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: std::time::Instant::now(),
            cpu: process_cpu_ns(),
        }
    }

    /// (wall, CPU) nanoseconds since `start`.
    pub fn read(&self) -> (u64, u64) {
        (
            self.wall.elapsed().as_nanos() as u64,
            process_cpu_ns().saturating_sub(self.cpu),
        )
    }
}

/// One workload: built from its seed, measured in phases, then checked.
pub trait Workload: Sized {
    /// Untimed set-up: generate inputs, warm up, prepare references.
    /// Run `SETUP_REPS` times (`rep` = 0, 1, …); the last one is kept.
    fn setup(seed: u64, rep: u64) -> Result<Self, String>;
    /// One closed-loop phase lasting about `dur`.
    fn phase(&mut self, dur: std::time::Duration, spans: &mut spans::Spans) -> Phase;
    /// Untimed correctness checks of what the phases produced.
    fn check(&mut self, spans: &mut spans::Spans) -> Phase;
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 3;

/// Workload-level numbers a traced run takes from its untraced phase.
const UNTRACED: &[&str] = &[
    "sim_mips",
    "func_overhead_pct",
    "bb_overhead_pct",
    "bbopt_overhead_pct",
    "trace_mrec_per_s",
    "commit_ms",
    "procs_per_s",
];

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: std::collections::BTreeMap<&'static str, f64>,
}

/// Run one workload: set up `SETUP_REPS` times, then either one
/// untraced phase of `seconds` (the end-to-end metrics), or an untraced
/// and a traced phase of `seconds / 2` each (the per-layer metrics and
/// what tracing costs); then the correctness checks. With `trace_file`
/// set, the traced phase's spans are written there.
///
/// End-to-end times are process CPU time: on a shared two-vCPU virtual
/// machine, time stolen by the host moved wall-clock medians by up to 2x
/// between otherwise identical runs, while CPU time held within a few
/// percent. Wall-clock latency is reported by the traced run.
pub fn drive<W: Workload>(
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    use stats::{median, quantile, ratio};
    use std::time::Duration;
    let mut setups = Vec::new();
    let mut w = None;
    for rep in 0..SETUP_REPS {
        drop(w.take());
        let clock = Clock::start();
        w = Some(W::setup(seed, rep)?);
        setups.push(clock.read().1 as f64 / 1e9);
    }
    let mut w = w.expect("at least one set-up");
    let mut values = std::collections::BTreeMap::new();
    let (attempted, failed);
    if !trace {
        let mut off = spans::Spans::new(false);
        let a = w.phase(Duration::from_secs_f64(seconds), &mut off);
        // The peak of set-up and the timed phase; the checks after it
        // are verification, not workload.
        let peak_rss = metrics::peak_rss_mib();
        let c = w.check(&mut off);
        let cpu = a.cpu_ms();
        eprintln!(
            "{} {} requests, {} beyond p99",
            metrics::config_prefix(),
            cpu.len(),
            cpu.len() / 100
        );
        values.insert("setup_s", median(&setups));
        values.insert("request_cpu_ms_p50", quantile(&cpu, 0.5));
        values.insert("request_cpu_ms_p99", quantile(&cpu, 0.99));
        values.insert(
            "requests_per_cpu_s",
            ratio(cpu.len() as f64 * 1e3, cpu.iter().sum()),
        );
        values.insert("peak_rss_mib", peak_rss);
        attempted = a.attempted + c.attempted;
        failed = a.failed + c.failed;
    } else {
        let half = Duration::from_secs_f64(seconds / 2.0);
        let a = w.phase(half, &mut spans::Spans::new(false));
        let mut rec = spans::Spans::new(true);
        let b = w.phase(half, &mut rec);
        let traced = rec.spans().len();
        let c = w.check(&mut rec);
        let sum = spans::Summary::of(&rec.spans()[..traced]);
        values = b.values.clone();
        for name in UNTRACED {
            if let Some(v) = a.values.get(name) {
                values.insert(name, *v);
            }
        }
        for (k, v) in &c.values {
            values.entry(k).or_insert(*v);
        }
        for (name, _) in metrics::PER_LAYER {
            if let Some(stem) = name.strip_suffix("_ns") {
                if sum.calls(stem) > 0 {
                    values.entry(name).or_insert(sum.mean_ns(stem));
                }
            }
        }
        let wall = a.wall_ms();
        values.insert("request_ms_p50", quantile(&wall, 0.5));
        values.insert("request_ms_p99", quantile(&wall, 0.99));
        values.insert(
            "requests_per_s",
            ratio(wall.len() as f64 * 1e3, wall.iter().sum()),
        );
        let requests = sum.requests.len() as f64;
        for (layer, name) in metrics::LAYERS {
            let own = sum.self_ns.get(layer).copied().unwrap_or(0) as f64;
            values.insert(name, ratio(own, requests));
        }
        let uncovered: Vec<f64> = sum.requests.iter().map(|r| r.1 as f64).collect();
        let walls: f64 = sum.requests.iter().map(|r| r.0 as f64).sum();
        values.insert("trace.uncovered_ns", median(&uncovered));
        values.insert(
            "trace.uncovered_pct",
            ratio(uncovered.iter().sum::<f64>() * 100.0, walls),
        );
        let p50 = |p: &Phase| quantile(&p.cpu_ms(), 0.5);
        values.insert(
            "trace.overhead_pct",
            (ratio(p50(&b), p50(&a)) - 1.0) * 100.0,
        );
        values.insert("trace.spans", traced as f64);
        attempted = a.attempted + b.attempted + c.attempted;
        failed = a.failed + b.failed + c.failed;
        values.insert("failed_ratio", ratio(failed as f64, attempted as f64));
        if let Some(path) = trace_file {
            rec.write_chrome(path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    })
}

//! `run-hot`: the paper's §4.1 matmul at N=100 run to exit in four
//! configurations (base, and statically rewritten for function count, BB
//! count every-block and BB count optimal), plus one memory-trace run
//! (drain, serialise, parse) and one sampling-profiler run at smaller N.
//! Nearly all the time is the emulator executing hot loops.

use crate::exec::{self, EmuTally, Stop};
use crate::images::{Family, Image, Kind};
use crate::rewrite::{serve, Handle};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::ratio;
use crate::Phase;
use rvdyn::tools::{serialize_trace, ProfileOptions, Profiler, TraceReader};
use rvdyn::{Analysis, AnalysisCache, TraceRecord};
use rvdyn_proccontrol::Process;
use rvdyn_symtab::Binary;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Matrix size of the Table 1 runs (the paper's N).
pub const HOT_N: usize = 100;
/// Matrix size of the traced run: about 26k records, inside the ring.
pub const TRACE_N: usize = 12;
/// Matrix size and sampling interval (modelled cycles) of the profiled run.
pub const PROFILE_N: usize = 40;
pub const PROFILE_INTERVAL: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Config {
    Base,
    Func,
    Bb,
    BbOpt,
    Trace,
    Profile,
}

const CYCLE: [Config; 6] = [
    Config::Base,
    Config::Func,
    Config::Bb,
    Config::BbOpt,
    Config::Trace,
    Config::Profile,
];

fn image(n: usize, label: &str) -> Image {
    Image {
        family: if n == HOT_N {
            Family::MatmulData
        } else {
            Family::Matmul
        },
        label: label.into(),
        elf: rvdyn_asm::matmul_program(n, 1)
            .to_bytes()
            .expect("generated images serialise"),
        stripped: false,
        names: vec!["matmul".into()],
    }
}

pub struct RunHot {
    hot: Image,
    trace: Image,
    profile: Binary,
    profile_analysis: Arc<Analysis>,
    cache: Arc<AnalysisCache>,
    rng: Rng,
    next_id: u64,
    /// Modelled cycles of the last run of each Table 1 configuration.
    cycles: BTreeMap<Config, u64>,
    /// Observed results every later run must repeat; the checks compare
    /// them with independent oracles once, after the timed phases.
    entry_count: Option<u64>,
    block_counts: BTreeMap<Config, BTreeMap<u64, u64>>,
    trace_records: Option<Vec<TraceRecord>>,
    trace_pcs: Vec<u64>,
    profile_pcs: Option<Vec<u64>>,
}

/// What one phase accumulates beyond latencies.
#[derive(Default)]
struct Acc {
    emu: EmuTally,
    traces: u64,
    trace_records: u64,
    trace_ns: u64,
    trace_bytes: u64,
    trace_dropped: u64,
    profile_samples: u64,
    profiles: u64,
    counts: crate::rewrite::Counts,
}

impl crate::Workload for RunHot {
    fn setup(seed: u64, _rep: u64) -> Result<RunHot, String> {
        let hot = image(HOT_N, "matmul(100, 1)");
        let trace = image(TRACE_N, "matmul(12, 1)");
        let profile = rvdyn_asm::matmul_program(PROFILE_N, 1);
        let profile_analysis = Analysis::of_binary(profile.clone(), &crate::parse_options(false));
        // The cache holds both rewritten images' analyses, so requests
        // spend their time in the back half and the emulator.
        let cache = AnalysisCache::new(2);
        let mut spans = Spans::new(false);
        for kind in [Kind::Entry, Kind::Every, Kind::Optimal] {
            serve(&hot, kind, 0, &cache, &mut spans)?;
        }
        serve(&trace, Kind::MemTrace, 0, &cache, &mut spans)?;
        // Warm-up: run the two small images once.
        exec::run(
            &Binary::parse(&trace.elf).map_err(|e| e.to_string())?,
            &mut spans,
        )?;
        exec::run(&profile, &mut spans)?;
        Ok(RunHot {
            hot,
            trace,
            profile,
            profile_analysis,
            cache,
            rng: Rng::derive(seed, 7),
            next_id: 0,
            cycles: BTreeMap::new(),
            entry_count: None,
            block_counts: BTreeMap::new(),
            trace_records: None,
            trace_pcs: Vec::new(),
            profile_pcs: None,
        })
    }

    fn phase(&mut self, dur: Duration, spans: &mut Spans) -> Phase {
        let mut phase = Phase::default();
        let mut acc = Acc::default();
        let t0 = Instant::now();
        // Whole cycles only, in a seeded order, so every run measures
        // the same mix of configurations.
        loop {
            let mut cycle = CYCLE;
            self.rng.shuffle(&mut cycle);
            for config in cycle {
                self.next_id += 1;
                spans.set_request(self.next_id);
                phase.attempted += 1;
                let clock = crate::Clock::start();
                let root = spans.begin("request");
                let r = self.request(config, spans, &mut acc);
                spans.end(root);
                let took = clock.read();
                match r {
                    Ok(()) => phase.requests.push(took),
                    Err(e) => phase.fail(&format!("{config:?}: {e}")),
                }
            }
            if t0.elapsed() >= dur {
                break;
            }
        }
        let v = &mut phase.values;
        let base = self.cycles.get(&Config::Base).copied().unwrap_or(0) as f64;
        let overhead = |c: Config| {
            let x = self.cycles.get(&c).copied().unwrap_or(0) as f64;
            ratio(x - base, base) * 100.0
        };
        v.insert("func_overhead_pct", overhead(Config::Func));
        v.insert("bb_overhead_pct", overhead(Config::Bb));
        v.insert("bbopt_overhead_pct", overhead(Config::BbOpt));
        v.insert("sim_mips", acc.emu.mips());
        v.insert(
            "trace_mrec_per_s",
            ratio(acc.trace_records as f64 * 1e3, acc.trace_ns as f64),
        );
        acc.emu.record(v);
        let traces = acc.traces as f64;
        v.insert(
            "tools.trace_records",
            ratio(acc.trace_records as f64, traces),
        );
        v.insert(
            "tools.trace_dropped",
            ratio(acc.trace_dropped as f64, traces),
        );
        v.insert(
            "tools.trace_bytes_per_record",
            ratio(acc.trace_bytes as f64, acc.trace_records as f64),
        );
        v.insert(
            "tools.profile_samples",
            ratio(acc.profile_samples as f64, acc.profiles as f64),
        );
        acc.counts
            .record(&crate::spans::Summary::of(spans.spans()), v);
        phase
    }

    fn check(&mut self, _spans: &mut Spans) -> Phase {
        let mut phase = Phase::default();
        let mut check = |what: &str, r: Result<(), String>| {
            phase.attempted += 1;
            if let Err(e) = r {
                phase.fail(&format!("{what}: {e}"));
            }
        };
        let hot = Binary::parse(&self.hot.elf).expect("generated image parses");
        let entry = hot.symbol_by_name("matmul").map(|s| s.value).unwrap_or(0);
        check(
            "function count",
            exec::entry_hits(&hot, entry).and_then(|want| match self.entry_count {
                Some(got) if got == want => Ok(()),
                got => Err(format!("counter {got:?}, breakpoint oracle {want}")),
            }),
        );
        check(
            "block counts",
            match (
                self.block_counts.get(&Config::Bb),
                self.block_counts.get(&Config::BbOpt),
            ) {
                (Some(a), Some(b)) if a == b && a.values().sum::<u64>() > 0 => Ok(()),
                (a, b) => Err(format!(
                    "every-block total {:?}, optimal total {:?}",
                    a.map(|m| m.values().sum::<u64>()),
                    b.map(|m| m.values().sum::<u64>())
                )),
            },
        );
        let trace = Binary::parse(&self.trace.elf).expect("generated image parses");
        check(
            "memory trace",
            exec::mem_oracle(&trace, &self.trace_pcs).and_then(|want| match &self.trace_records {
                Some(got) if *got == want => Ok(()),
                got => Err(format!(
                    "trace of {:?} records, oracle {}",
                    got.as_ref().map(|g| g.len()),
                    want.len()
                )),
            }),
        );
        check(
            "profile",
            match &self.profile_pcs {
                Some(p) if !p.is_empty() => Ok(()),
                _ => Err("no samples taken".into()),
            },
        );
        phase
    }
}

impl RunHot {
    /// Require `got` to equal the first value seen, remembering it.
    fn same<T: PartialEq>(slot: &mut Option<T>, got: T, what: &str) -> Result<(), String> {
        match slot {
            None => {
                *slot = Some(got);
                Ok(())
            }
            Some(first) if *first == got => Ok(()),
            Some(_) => Err(format!("{what} differs from the first run")),
        }
    }

    fn request(&mut self, config: Config, spans: &mut Spans, acc: &mut Acc) -> Result<(), String> {
        let exit0 = |stop: &Stop| match stop {
            Stop::Exit(0) => Ok(()),
            other => Err(format!("mutatee stopped with {other:?}")),
        };
        match config {
            Config::Base => {
                let bin = spans
                    .time("symtab.parse", || Binary::parse(&self.hot.elf))
                    .map_err(|e| e.to_string())?;
                let ran = exec::run(&bin, spans)?;
                exit0(&ran.stop)?;
                acc.emu.add_ran(&ran);
                self.cycles.insert(config, ran.machine.cycles);
            }
            Config::Func => {
                let s = serve(&self.hot, Kind::Entry, 0, &self.cache, spans)?;
                acc.counts.add(&self.hot, &s);
                let Handle::Entry(var) = s.handle else {
                    unreachable!("an entry request plants an entry counter")
                };
                let bin = spans
                    .time("symtab.parse", || Binary::parse(&s.bytes))
                    .map_err(|e| e.to_string())?;
                let ran = exec::run(&bin, spans)?;
                exit0(&ran.stop)?;
                acc.emu.add_ran(&ran);
                self.cycles.insert(config, ran.machine.cycles);
                let count = ran
                    .machine
                    .mem
                    .load(var.addr, 8)
                    .map_err(|e| format!("{e:?}"))?;
                Self::same(&mut self.entry_count, count, "function counter")?;
            }
            Config::Bb | Config::BbOpt => {
                let kind = if config == Config::Bb {
                    Kind::Every
                } else {
                    Kind::Optimal
                };
                let mut s = serve(&self.hot, kind, 0, &self.cache, spans)?;
                acc.counts.add(&self.hot, &s);
                let Handle::Blocks(counter) = &s.handle else {
                    unreachable!("a block request plants block counters")
                };
                let (out, ns) = exec::run_output(&s.bytes, spans)?;
                if out.exit_code != 0 {
                    return Err(format!("exit code {}", out.exit_code));
                }
                acc.emu.add_machine(out.machine(), None, ns);
                self.cycles.insert(config, out.cycles);
                let counts = s
                    .editor
                    .block_counts(counter, &out)
                    .map_err(|e| e.to_string())?;
                let mut slot = self.block_counts.remove(&config);
                Self::same(&mut slot, counts, "block counts")?;
                self.block_counts.insert(config, slot.expect("just set"));
            }
            Config::Trace => {
                let mut s = serve(&self.trace, Kind::MemTrace, 0, &self.cache, spans)?;
                let Handle::Trace(tracer) = &s.handle else {
                    unreachable!("a trace request plants a tracer")
                };
                let (out, run_ns) = exec::run_output(&s.bytes, spans)?;
                if out.exit_code != 0 {
                    return Err(format!("exit code {}", out.exit_code));
                }
                let t = Instant::now();
                let drained = spans
                    .time("tools.trace_drain", || {
                        tracer.drain_output(&mut s.editor, &out)
                    })
                    .map_err(|e| e.to_string())?;
                let bytes = spans.time("tools.trace_serialize", || {
                    serialize_trace(&drained.records)
                });
                let parsed = spans
                    .time("tools.trace_validate", || TraceReader::parse(&bytes))
                    .map_err(|e| e.to_string())?;
                let tools_ns = t.elapsed().as_nanos() as u64;
                if parsed.records() != drained.records.as_slice() {
                    return Err("trace does not round-trip".into());
                }
                if drained.dropped != 0 {
                    return Err(format!("{} trace records dropped", drained.dropped));
                }
                acc.traces += 1;
                acc.trace_records += parsed.len() as u64;
                acc.trace_ns += run_ns + tools_ns;
                acc.trace_bytes += bytes.len() as u64;
                acc.trace_dropped += drained.dropped;
                self.trace_pcs = tracer.pcs();
                Self::same(&mut self.trace_records, drained.records, "trace")?;
            }
            Config::Profile => {
                let mut p = spans.time("emu.load", || Process::launch(&self.profile));
                p.machine_mut().engine = crate::ENGINE;
                let profiler = Profiler::new(ProfileOptions {
                    interval_cycles: PROFILE_INTERVAL,
                    ..ProfileOptions::default()
                });
                let run = spans
                    .time("tools.profile", || {
                        profiler.sample_process(&mut p, self.profile_analysis.code())
                    })
                    .map_err(|e| e.to_string())?;
                if run.exit_code != 0 {
                    return Err(format!("exit code {}", run.exit_code));
                }
                acc.profile_samples += run.profile.samples;
                acc.profiles += 1;
                Self::same(
                    &mut self.profile_pcs,
                    run.profile.sample_pcs,
                    "profile samples",
                )?;
            }
        }
        Ok(())
    }
}

//! `fleet-cold`: dynamic delivery. Each request is one whole fleet: a
//! `FleetController` over `PROCESSES` processes of a code-heavy mutatee
//! in which almost every block runs once (`many_functions` of about 2k),
//! an entry counter on every function, then `spawn`, `commit_all` and
//! `run_all` on the pinned two workers.

use crate::exec::EmuTally;
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{median, ratio};
use crate::Phase;
use rvdyn::{Analysis, FleetController, PointKind, Snippet};
use rvdyn_proccontrol::{Event, Process};
use rvdyn_symtab::Binary;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Processes per fleet.
pub const PROCESSES: usize = 16;

pub struct Fleet {
    binary: Binary,
    analysis: Arc<Analysis>,
    next_id: u64,
    /// The counter value every process reported (all must agree); the
    /// check compares it with a breakpoint count of function entries.
    counter: Option<u64>,
}

/// Function entries one run of `bin` executes, counted with a
/// breakpoint on every function entry of `analysis`.
fn entries_executed(bin: &Binary, analysis: &Analysis) -> Result<u64, String> {
    let mut p = Process::launch(bin);
    p.machine_mut().engine = crate::ENGINE;
    for &entry in analysis.code().functions.keys() {
        p.set_breakpoint(entry).map_err(|e| format!("{e:?}"))?;
    }
    // The process launches parked on `_start`, where `cont` steps over
    // the breakpoint without reporting it.
    let mut hits = u64::from(analysis.code().functions.contains_key(&p.pc()));
    loop {
        match p.cont() {
            Ok(Event::Breakpoint(_)) => hits += 1,
            Ok(Event::Exited(0)) => return Ok(hits),
            other => return Err(format!("oracle run stopped with {other:?}")),
        }
    }
}

impl crate::Workload for Fleet {
    fn setup(seed: u64, _rep: u64) -> Result<Fleet, String> {
        // About 2k functions; the narrow range keeps the work per fleet
        // nearly the same on every seed.
        let n = Rng::derive(seed, 8).range(2016, 2080) as usize;
        let binary = rvdyn_asm::many_functions_program(n);
        let analysis = Analysis::of_binary(binary.clone(), &crate::parse_options(false));
        // Warm-up: one small fleet through the whole lifecycle.
        let mut phase = Phase::default();
        let mut fleet = Fleet {
            binary,
            analysis,
            next_id: 0,
            counter: None,
        };
        fleet.request(2, &mut phase, &mut Spans::new(false), &mut Acc::default());
        if phase.failed > 0 {
            return Err("warm-up fleet failed".into());
        }
        fleet.counter = None;
        Ok(fleet)
    }

    fn phase(&mut self, dur: Duration, spans: &mut Spans) -> Phase {
        let mut phase = Phase::default();
        let mut acc = Acc::default();
        let t0 = Instant::now();
        loop {
            self.request(PROCESSES, &mut phase, spans, &mut acc);
            if t0.elapsed() >= dur {
                break;
            }
        }
        let fleets = acc.fleets as f64;
        let v = &mut phase.values;
        v.insert("commit_ms", median(&acc.commit_ms));
        v.insert(
            "procs_per_s",
            ratio(
                (acc.fleets * PROCESSES as u64) as f64 * 1e9,
                acc.wall_ns as f64,
            ),
        );
        v.insert(
            "sim_mips",
            ratio(acc.emu.icount as f64 * 1e3, acc.run_all_ns as f64),
        );
        v.insert("fleet.events_dispatched", ratio(acc.events as f64, fleets));
        v.insert("fleet.regions_written", ratio(acc.regions as f64, fleets));
        v.insert("fleet.processes_failed", acc.failed_procs as f64);
        v.insert("patch.apply_ns", ratio(acc.apply_ns as f64, fleets));
        v.insert("patch.points", ratio(acc.points as f64, fleets));
        v.insert("patch.plans_built", ratio(acc.plans as f64, fleets));
        v.insert("patch.workers", ratio(acc.workers as f64, fleets));
        v.insert("patch.spills", ratio(acc.spills as f64, fleets));
        let code = self.analysis.code();
        v.insert("parse.functions", code.functions.len() as f64);
        v.insert("parse.blocks", code.num_blocks() as f64);
        v.insert("parse.insts", code.num_insts() as f64);
        acc.emu.record(v);
        phase
    }

    fn check(&mut self, _spans: &mut Spans) -> Phase {
        let mut phase = Phase::default();
        phase.attempted += 1;
        match entries_executed(&self.binary, &self.analysis) {
            Ok(want) if self.counter == Some(want) => {}
            Ok(want) => phase.fail(&format!(
                "fleet counters {:?}, breakpoint oracle {want}",
                self.counter
            )),
            Err(e) => phase.fail(&e),
        }
        phase
    }
}

#[derive(Default)]
struct Acc {
    fleets: u64,
    wall_ns: u64,
    commit_ms: Vec<f64>,
    run_all_ns: u64,
    events: u64,
    regions: u64,
    failed_procs: u64,
    apply_ns: u64,
    points: u64,
    plans: u64,
    workers: u64,
    spills: u64,
    emu: EmuTally,
}

impl Fleet {
    fn request(&mut self, procs: usize, phase: &mut Phase, spans: &mut Spans, acc: &mut Acc) {
        self.next_id += 1;
        spans.set_request(self.next_id);
        phase.attempted += procs as u64;
        let clock = crate::Clock::start();
        let root = spans.begin("request");
        let mut fc = spans.time("session.from_analysis", || {
            FleetController::from_analysis(self.analysis.clone(), crate::session_options(false))
        });
        let var = fc.alloc_var(8);
        spans.time("patch.placement", || {
            let points: Vec<_> = fc
                .code()
                .functions
                .values()
                .flat_map(|f| rvdyn::find_points(f, PointKind::FuncEntry))
                .collect();
            fc.insert(&points, Snippet::increment(var));
        });
        let ts = Instant::now();
        let pids = spans.time("fleet.spawn", || fc.spawn(procs));
        let spawn_ns = ts.elapsed().as_nanos() as u64;
        let tc = Instant::now();
        let committed = spans.time("fleet.commit", || fc.commit_all());
        let commit_ns = tc.elapsed().as_nanos() as u64;
        let tr = Instant::now();
        if committed.is_ok() {
            spans.time("fleet.run", || fc.run_all());
        }
        let run_ns = tr.elapsed().as_nanos() as u64;
        spans.end(root);
        let took = clock.read();
        if let Err(e) = committed {
            phase.failed += procs as u64 - 1;
            phase.fail(&format!("commit_all: {e}"));
            return;
        }

        // Untimed: every process must exit 0 with the same counter.
        let mut ok = true;
        for pid in &pids {
            let counter = fc.read_var(*pid, var);
            match (fc.result(*pid), counter) {
                (Some(Ok(0)), Some(c)) if *self.counter.get_or_insert(c) == c => {}
                (r, c) => {
                    ok = false;
                    phase.fail(&format!(
                        "pid {pid}: result {:?}, counter {c:?}",
                        r.map(|r| r.as_ref().map_err(|e| e.to_string()))
                    ));
                }
            }
            if let Some(d) = fc.process_diagnostics(*pid) {
                acc.regions += d.patch_regions_written as u64;
                acc.emu.runs += 1;
                acc.emu.icount += d.instret;
                acc.emu.cycles += d.cycles;
                acc.emu.run_ns += d.timings.run_ns;
                acc.emu.blocks_translated += d.emu_blocks_translated;
                acc.emu.chain_links += d.emu_chain_links;
                acc.emu.invalidations += d.emu_invalidations;
            }
        }
        // `spawn` launches each process: its share is the load time.
        acc.emu.loads += procs as u64;
        acc.emu.load_ns += spawn_ns;
        let summary = fc.summary();
        let d = fc.diagnostics();
        acc.fleets += 1;
        acc.commit_ms.push(commit_ns as f64 / 1e6);
        acc.run_all_ns += run_ns;
        acc.events += summary.events_dispatched;
        acc.failed_procs += summary.processes_failed as u64;
        acc.apply_ns += d.timings.instrument_ns;
        acc.points += d.points_instrumented as u64;
        acc.plans += d.plans_built as u64;
        acc.workers += d.instrument_workers as u64;
        acc.spills += d.spills as u64;
        acc.wall_ns += took.0;
        if ok {
            phase.requests.push(took);
        }
    }
}

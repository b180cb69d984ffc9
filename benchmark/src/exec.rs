//! Running mutatees for the timed `run-hot` requests and for the
//! untimed correctness checks, plus the independent oracles the checks
//! compare instrumented runs against.

use crate::spans::Spans;
use rvdyn::{Machine, RunOutput, StopReason};
use rvdyn_proccontrol::{Event, Process};
use rvdyn_symtab::{Binary, SHF_ALLOC, SHF_WRITE};
use std::collections::BTreeMap;
use std::time::Instant;

/// Instruction budget for every run (matmul N=100 needs about 26M).
pub const FUEL: u64 = 4_000_000_000;

/// How a mutatee stopped. `nested_call` images stop at their leaf's
/// `ebreak` by design; everything else exits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    Exit(i64),
    Trap,
}

/// One finished run on a machine the benchmark loaded itself.
pub struct Ran {
    pub stop: Stop,
    pub machine: Machine,
    pub load_ns: u64,
    pub run_ns: u64,
}

/// Load `bin` and run it on the pinned engine, inside `emu.load` and
/// `emu.run` spans.
pub fn run(bin: &Binary, spans: &mut Spans) -> Result<Ran, String> {
    let t = Instant::now();
    let mut m = spans.time("emu.load", || rvdyn_emu::load_binary(bin));
    let load_ns = t.elapsed().as_nanos() as u64;
    m.engine = crate::ENGINE;
    m.fuel = Some(FUEL);
    let t = Instant::now();
    let stop = spans.time("emu.run", || m.run());
    let run_ns = t.elapsed().as_nanos() as u64;
    let stop = match stop {
        StopReason::Exited(c) => Stop::Exit(c),
        StopReason::Break(_) => Stop::Trap,
        other => return Err(format!("mutatee stopped with {other:?}")),
    };
    Ok(Ran {
        stop,
        machine: m,
        load_ns,
        run_ns,
    })
}

/// Run a rewritten ELF through the library's own runner, which the
/// editor's `block_counts` and the tracer's `drain_output` read from.
/// Parsing and loading are inside the `emu.run` span here.
pub fn run_output(elf: &[u8], spans: &mut Spans) -> Result<(RunOutput, u64), String> {
    let t = Instant::now();
    let out = spans
        .time("emu.run", || rvdyn::run_elf_with(elf, FUEL, crate::ENGINE))
        .map_err(|e| format!("instrumented run failed: {e}"))?;
    Ok((out, t.elapsed().as_nanos() as u64))
}

/// Mutatee-side totals over a set of runs, for the `emu.*` metrics and
/// `sim_mips`.
#[derive(Debug, Default, Clone)]
pub struct EmuTally {
    pub runs: u64,
    pub loads: u64,
    pub icount: u64,
    pub cycles: u64,
    pub load_ns: u64,
    pub run_ns: u64,
    pub blocks_translated: u64,
    pub chain_links: u64,
    pub invalidations: u64,
}

impl EmuTally {
    pub fn add_machine(&mut self, m: &Machine, load_ns: Option<u64>, run_ns: u64) {
        self.runs += 1;
        if let Some(ns) = load_ns {
            self.loads += 1;
            self.load_ns += ns;
        }
        self.run_ns += run_ns;
        self.icount += m.icount;
        self.cycles += m.cycles;
        self.blocks_translated += m.emu_blocks_translated();
        self.chain_links += m.emu_chain_links();
        self.invalidations += m.emu_invalidations();
    }

    pub fn add_ran(&mut self, r: &Ran) {
        self.add_machine(&r.machine, Some(r.load_ns), r.run_ns);
    }

    /// Mutatee instructions per host second of execution, in millions.
    pub fn mips(&self) -> f64 {
        crate::stats::ratio(self.icount as f64 * 1e3, self.run_ns as f64)
    }

    /// The `emu.*` per-layer metrics (means per run).
    pub fn record(&self, v: &mut BTreeMap<&'static str, f64>) {
        use crate::stats::ratio;
        let runs = self.runs as f64;
        v.insert("emu.load_ns", ratio(self.load_ns as f64, self.loads as f64));
        v.insert("emu.run_ns", ratio(self.run_ns as f64, runs));
        v.insert("emu.icount", ratio(self.icount as f64, runs));
        v.insert("emu.cycles", ratio(self.cycles as f64, runs));
        v.insert(
            "emu.host_ns_per_inst",
            ratio(self.run_ns as f64, self.icount as f64),
        );
        v.insert(
            "emu.blocks_translated",
            ratio(self.blocks_translated as f64, runs),
        );
        v.insert("emu.chain_links", ratio(self.chain_links as f64, runs));
        v.insert("emu.invalidations", ratio(self.invalidations as f64, runs));
    }
}

/// The observable result of a run the checks compare: how it stopped,
/// its stdout and the final contents of the image's writable sections.
#[derive(Debug, PartialEq, Eq)]
pub struct Observed {
    pub stop: Stop,
    pub stdout: Vec<u8>,
    pub state: Vec<u8>,
}

/// Observe a finished machine. With `time_dependent` set (matmul, whose
/// `.data` and stdout hold its own modelled elapsed time) only the
/// length of stdout and the zero-initialised sections are compared.
pub fn observe(original: &Binary, m: &Machine, stop: Stop, time_dependent: bool) -> Observed {
    let mut state = Vec::new();
    for s in &original.sections {
        let writable = s.flags & SHF_ALLOC != 0 && s.flags & SHF_WRITE != 0;
        let nobits = s.sh_type == rvdyn_symtab::elf::SHT_NOBITS;
        if writable && (nobits || !time_dependent) && !s.data.is_empty() {
            match m.mem.read_bytes(s.addr, s.data.len()) {
                Ok(b) => state.extend_from_slice(&b),
                Err(_) => state.extend_from_slice(b"<unmapped>"),
            }
        }
    }
    let stdout = if time_dependent {
        m.stdout.len().to_le_bytes().to_vec()
    } else {
        m.stdout.clone()
    };
    Observed {
        stop,
        stdout,
        state,
    }
}

/// Ground truth for an entry counter, independent of instrumentation:
/// run the original under a breakpoint at `entry` and count the hits.
pub fn entry_hits(bin: &Binary, entry: u64) -> Result<u64, String> {
    let mut p = Process::launch(bin);
    p.machine_mut().engine = crate::ENGINE;
    p.set_breakpoint(entry)
        .map_err(|e| format!("breakpoint at {entry:#x}: {e:?}"))?;
    // A process launches parked on its entry point, where `cont` steps
    // over a breakpoint without reporting it.
    let mut hits = u64::from(p.pc() == entry);
    loop {
        match p.cont() {
            Ok(Event::Breakpoint(pc)) if pc == entry => hits += 1,
            Ok(Event::Exited(_)) | Ok(Event::Trap(_)) => return Ok(hits),
            Ok(Event::Breakpoint(_)) | Ok(Event::Stepped(_)) => {}
            other => return Err(format!("oracle run stopped with {other:?}")),
        }
    }
}

/// Memory accesses of an uninstrumented run at `pcs`, in order: the
/// interpreter-side oracle the tracer's output must equal.
pub fn mem_oracle(bin: &Binary, pcs: &[u64]) -> Result<Vec<rvdyn::TraceRecord>, String> {
    let set: std::collections::BTreeSet<u64> = pcs.iter().copied().collect();
    let mut m = rvdyn_emu::load_binary(bin);
    m.engine = rvdyn::EmuEngine::Interpreter;
    m.arm_mem_oracle();
    m.fuel = Some(FUEL);
    match m.run() {
        StopReason::Exited(_) => {}
        other => return Err(format!("oracle run stopped with {other:?}")),
    }
    Ok(m.take_mem_oracle()
        .into_iter()
        .filter(|op| set.contains(&op.pc))
        .map(|op| rvdyn::TraceRecord {
            pc: op.pc,
            addr: op.addr,
            len: op.len,
            is_store: op.is_store,
        })
        .collect())
}

//! Live-process instrumentation (Figure 1, right): one controller, N ≥ 1
//! mutatees.
//!
//! The paper's dynamic path instruments a *running* process through the
//! process-control interface, either created by the mutator or attached
//! to. [`FleetController`] is that path for any number of processes —
//! a single process is a fleet of one. The controller works from one
//! [`Session`]-derived context:
//!
//! * the **front half** (binary model, CFG, loop depths, liveness) is
//!   computed once and shared behind the session's `Arc<Analysis>` — N
//!   copies of the same binary parse exactly once;
//! * the **plan** (snippet lowering, relocation, springboards) is also
//!   computed once, on the controller's template session, by the same
//!   [`Session::apply`] the static [`BinaryEditor`](crate::BinaryEditor)
//!   uses — reusing the parallel plan phase and its deterministic
//!   layout, so every process receives the bytes the static path writes
//!   into its rewritten image;
//! * the **per-process back half** — verified patch commits, run-loop
//!   event handling, redirect resolution — fans out over the
//!   [`ProcessSet`] worker pool, with the controller parked in a
//!   poll/park event loop consuming stop/trap/exit completions in
//!   arrival order.
//!
//! Processes join the fleet through the paper's two dynamic variants:
//! [`FleetController::spawn`] (create, stopped at entry) and
//! [`FleetController::attach`] (an already-running process).
//!
//! Failures are isolated per process: a [`FaultPlan`] targeted at one
//! pid mid-fleet produces a typed error attributed to that pid (e.g.
//! [`Error::PatchVerifyFailed`] from that process's commit read-back,
//! or [`Error::FleetProcessLost`] when the process died first) while
//! the other N−1 processes commit, run, and report normally. The full
//! controller contract — event-loop states, per-process lifecycle,
//! ordering and determinism caveats — is written down in
//! `docs/FLEET.md`.

use crate::diag::Diagnostics;
use crate::error::Error;
use crate::json;
use crate::session::{self, BlockCounter, Session, SessionOptions};
use crate::telemetry::{TelemetryEvent, TimedStage};
use rvdyn_codegen::snippet::{Snippet, Var};
use rvdyn_patch::{Point, PointKind, RelocationIndex};
use rvdyn_proccontrol::{Event, FaultPlan, ProcError, Process, ProcessSet};
use rvdyn_symtab::Binary;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The patch, frozen once by the template session's apply and shared
/// (behind an `Arc`) by every per-process commit job.
struct CommitPlan {
    /// Patch data area base (zero-filled before the regions land).
    data_addr: u64,
    /// Bytes to zero at `data_addr`.
    data_len: usize,
    /// Coalesced contiguous patch regions, in address order.
    regions: Vec<(u64, Vec<u8>)>,
    /// Trap-springboard redirects to install after a verified commit.
    trap_table: Vec<(u64, u64)>,
    /// Code span covered by the regions (for the machine's executable-
    /// region hint); `None` when there are no regions.
    code_span: Option<(u64, u64)>,
    /// Inverse writes restoring every springboard planted so far (this
    /// commit's and all earlier ones'): uninstrumentation.
    undo: Vec<(u64, Vec<u8>)>,
    /// Accumulated patch-area → original pc translation.
    reloc_index: RelocationIndex,
}

/// What one dispatched per-process job reported back.
enum JobOutcome {
    /// A commit job finished: how many regions verified, which region
    /// (if any) failed read-back, whether the process was already gone.
    Committed {
        verified: usize,
        failed: Option<u64>,
        lost: bool,
    },
    /// A run job finished one `cont` leg: the stop/trap/exit event, or
    /// the debug interface's refusal.
    Stopped(Result<Event, ProcError>),
}

/// Controller-side state for one fleet process.
struct ProcState {
    /// Per-process diagnostics: shared parse/instrument totals seeded
    /// from the template, plus this process's own commit/run/fault
    /// counters and timings.
    diag: Diagnostics,
    /// Terminal outcome: exit code, or the typed per-process error.
    /// `None` while the process is still live in the fleet.
    result: Option<Result<i64, Error>>,
    /// Whether this process holds a verified copy of the patch.
    committed: bool,
}

/// One process's row in a [`FleetSummary`].
pub struct ProcessReport {
    /// Controller-assigned pid.
    pub pid: u32,
    /// Clean exit code, when the process ran to completion.
    pub exit_code: Option<i64>,
    /// Rendered form of the typed per-process error, when the process
    /// failed (match on [`FleetController::result`] for the variant).
    pub error: Option<String>,
    /// The per-process diagnostics snapshot.
    pub diag: Diagnostics,
}

/// The fleet-level rollup: totals plus one [`ProcessReport`] per
/// process, sorted by pid (so the summary is identical for every worker
/// count).
pub struct FleetSummary {
    /// Processes spawned into the fleet.
    pub processes: usize,
    /// Completions the controller's event loop consumed and dispatched
    /// to per-process handlers (commit outcomes + run stop events).
    pub events_dispatched: u64,
    /// Total debug-interface faults injected across the fleet.
    pub faults_injected: u64,
    /// Processes that reached a terminal per-process error.
    pub processes_failed: usize,
    /// Per-process rows, ascending pid.
    pub per_process: Vec<ProcessReport>,
}

impl FleetSummary {
    /// Serialise the rollup as one line of `rvdyn-diagnostics-v1` JSON:
    /// a `fleet` object with the totals plus a `per_process` array, one
    /// all-numeric entry per process embedding that process's full
    /// diagnostics object. Entries are pid-sorted, so the output is
    /// stable across worker counts.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("schema", "rvdyn-diagnostics-v1");
            o.object("fleet", |f| {
                f.field("processes", self.processes)
                    .field("events_dispatched", self.events_dispatched)
                    .field("faults_injected", self.faults_injected)
                    .field("processes_failed", self.processes_failed);
            });
            o.array("per_process", |a| {
                for p in &self.per_process {
                    a.object(|e| {
                        e.field("pid", p.pid)
                            .field("exited", u8::from(p.exit_code.is_some()))
                            .field("exit_code", p.exit_code.unwrap_or(-1))
                            .field("failed", u8::from(p.error.is_some()))
                            .raw("diagnostics", &p.diag.to_json());
                    });
                }
            });
        })
    }
}

impl std::fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet:      {} processes, {} events dispatched, \
             {} faults injected, {} failed",
            self.processes, self.events_dispatched, self.faults_injected, self.processes_failed
        )?;
        for p in &self.per_process {
            match (&p.exit_code, &p.error) {
                (Some(c), _) => writeln!(
                    f,
                    "  pid {:>4}: exited {} ({} instret, {} cycles)",
                    p.pid, c, p.diag.instret, p.diag.cycles
                )?,
                (None, Some(e)) => writeln!(f, "  pid {:>4}: FAILED — {e}", p.pid)?,
                (None, None) => writeln!(f, "  pid {:>4}: live", p.pid)?,
            }
        }
        Ok(())
    }
}

/// Instrument and run N ≥ 1 mutatees from one controller: a template
/// [`Session`] (where points, snippets and variables are declared once)
/// plus a [`ProcessSet`] event loop that fans the per-process delivery
/// and run work over the session's worker pool.
///
/// ```
/// use rvdyn::{FleetController, PointKind, SessionOptions, Snippet};
///
/// let bin = rvdyn_asm::matmul_program(4, 1);
/// let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
/// let pids = fleet.spawn(4);
/// let counter = fleet.alloc_var(8);
/// let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
/// fleet.insert(&pts, Snippet::increment(counter));
/// fleet.commit_all().unwrap();   // plan once, deliver+verify per process
/// fleet.run_all();               // poll/park event loop to all exits
/// for pid in pids {
///     assert!(matches!(fleet.result(pid), Some(Ok(0))));
///     assert_eq!(fleet.read_var(pid, counter), Some(1));
/// }
/// ```
pub struct FleetController {
    /// The template session: front half, pending snippets, patch plan,
    /// controller-level diagnostics and telemetry.
    session: Session,
    /// The multiplexer owning every live process.
    set: ProcessSet<JobOutcome>,
    /// Per-pid controller state, keyed by controller-assigned pid.
    states: BTreeMap<u32, ProcState>,
    next_pid: u32,
    events_dispatched: u64,
    /// The frozen commit plan, once [`FleetController::commit_all`] ran.
    commit: Option<Arc<CommitPlan>>,
}

impl FleetController {
    /// Build a fleet controller over an already-constructed template
    /// session. The session's `threads` option sizes the worker pool
    /// (1 = run the event loop inline, strictly deterministically).
    pub fn from_session(session: Session) -> FleetController {
        let threads = session.threads();
        FleetController {
            session,
            set: ProcessSet::new(threads),
            states: BTreeMap::new(),
            next_pid: 0,
            events_dispatched: 0,
            commit: None,
        }
    }

    /// Open and analyze an ELF image, then build the controller (see
    /// [`Session::open`]).
    pub fn open(elf: &[u8], opts: SessionOptions) -> Result<FleetController, Error> {
        Ok(Self::from_session(Session::open(elf, opts)?))
    }

    /// Analyze an in-memory binary model, then build the controller.
    pub fn from_binary(binary: Binary, opts: SessionOptions) -> FleetController {
        Self::from_session(Session::from_binary(binary, opts))
    }

    /// Build the controller on a shared front-half analysis — the
    /// fleet-of-fleets path: any number of controllers (and plain
    /// sessions) share one `Arc<Analysis>`.
    pub fn from_analysis(analysis: Arc<crate::Analysis>, opts: SessionOptions) -> FleetController {
        Self::from_session(Session::from_analysis(analysis, opts))
    }

    /// Figure 1, variant 1: launch `n` new mutatees from the fleet's
    /// binary (each stopped at entry) and return their
    /// controller-assigned pids.
    pub fn spawn(&mut self, n: usize) -> Vec<u32> {
        let analysis = self.session.analysis().clone();
        (0..n)
            .map(|_| self.attach(Process::launch(analysis.binary())))
            .collect()
    }

    /// Figure 1, variant 2: take an already-running process (e.g. one
    /// stopped at a breakpoint mid-run) into the fleet and return its
    /// pid. The process must be running the fleet's binary; the next
    /// [`FleetController::commit_all`] delivers the patch into it like
    /// any spawned process.
    ///
    /// Every process joining the fleet runs the session's configured
    /// engine and, when a telemetry sink is configured, carries an
    /// observer streaming its debug-interface operations
    /// (`MemWritten`, `BreakpointSet`, …) from whichever worker drives
    /// it.
    pub fn attach(&mut self, mut process: Process) -> u32 {
        process.machine_mut().engine = self.session.engine();
        if let Some(sink) = self.session.sink() {
            process.set_observer(Box::new(move |ev| sink.event(&session::adapt_proc(ev))));
        }
        let pid = self.next_pid;
        self.next_pid += 1;
        self.set.insert(pid, process);
        let mut diag = Diagnostics::default();
        diag.record_parse(self.session.code());
        self.states.insert(
            pid,
            ProcState {
                diag,
                result: None,
                committed: false,
            },
        );
        self.session
            .emit(TelemetryEvent::FleetProcessSpawned { pid });
        pid
    }

    /// Pids of every process ever spawned or attached, ascending.
    pub fn pids(&self) -> Vec<u32> {
        self.states.keys().copied().collect()
    }

    /// Completions the event loop has consumed so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// The controller-level (template session) diagnostics: shared
    /// parse and instrument totals, plus fleet-wide commit/run stage
    /// wall-clock. Per-process counters live on
    /// [`FleetController::process_diagnostics`].
    pub fn diagnostics(&self) -> &Diagnostics {
        self.session.diagnostics()
    }

    /// The per-process diagnostics for `pid`.
    pub fn process_diagnostics(&self, pid: u32) -> Option<&Diagnostics> {
        self.states.get(&pid).map(|s| &s.diag)
    }

    /// The terminal outcome recorded for `pid`: `Ok(exit_code)` after a
    /// clean exit, the typed per-process error after a failure, `None`
    /// while the process is still live.
    pub fn result(&self, pid: u32) -> Option<&Result<i64, Error>> {
        self.states.get(&pid).and_then(|s| s.result.as_ref())
    }

    /// Allocate an instrumentation variable in the (per-process) patch
    /// data area. One allocation covers the whole fleet: every process
    /// gets its own copy at the same address.
    pub fn alloc_var(&mut self, size: u8) -> Var {
        self.session.alloc_var(size)
    }

    /// Allocate a bulk data region fleet-wide (see
    /// [`Session::alloc_region`]): every process gets its own copy of
    /// the region at the same address, zero-filled by the next
    /// [`FleetController::commit_all`].
    pub fn alloc_region(&mut self, len: u64) -> u64 {
        self.session.alloc_region(len)
    }

    /// The shared parsed code object (template session's analysis).
    pub fn code(&self) -> &rvdyn_parse::CodeObject {
        self.session.code()
    }

    /// Mutable access to the per-process diagnostics for `pid` — the
    /// hook tools use to fold their own counters (trace records drained,
    /// samples taken) into the per-process report.
    pub(crate) fn process_diag_mut(&mut self, pid: u32) -> Option<&mut Diagnostics> {
        self.states.get_mut(&pid).map(|s| &mut s.diag)
    }

    /// Crate-internal: mutable session core (tool counter/telemetry hook).
    pub(crate) fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Points of `kind` in the named function (template session).
    pub fn find_points(&self, func: &str, kind: PointKind) -> Result<Vec<Point>, Error> {
        self.session.find_points(func, kind)
    }

    /// Queue `snippet` at each point, fleet-wide.
    pub fn insert(&mut self, points: &[Point], snippet: Snippet) {
        self.session.insert(points, snippet);
    }

    /// Queue basic-block counting for the named function under the
    /// session's configured
    /// [`CounterPlacement`](rvdyn_patch::CounterPlacement); resolve the
    /// returned handle per process with [`Self::block_counts`].
    pub fn count_blocks(&mut self, func: &str) -> Result<BlockCounter, Error> {
        self.session.count_blocks(func)
    }

    /// Exact per-block execution counts for a [`BlockCounter`], read from
    /// the memory of the process under `pid` (reconstructed through the
    /// CFG flow equations under optimal placement).
    pub fn block_counts(
        &mut self,
        pid: u32,
        counter: &BlockCounter,
    ) -> Result<BTreeMap<u64, u64>, Error> {
        let p = self.set.get(pid).ok_or(Error::FleetProcessLost { pid })?;
        self.session
            .block_counts_with(counter, &mut |v| read_u64(p, v.addr))
    }

    /// Arm a deterministic [`FaultPlan`] on the debug interface of the
    /// single process under `pid`, without disturbing the rest of the
    /// fleet. Fails with [`Error::FleetProcessLost`] when the pid is
    /// unknown (or its process is mid-dispatch).
    pub fn set_fault_plan(&mut self, pid: u32, plan: FaultPlan) -> Result<(), Error> {
        match self.set.get_mut(pid) {
            Some(p) => {
                p.set_fault_plan(plan);
                Ok(())
            }
            None => Err(Error::FleetProcessLost { pid }),
        }
    }

    /// Run `f` against the (idle) process under `pid` — the escape
    /// hatch for direct debugger-style interaction with one fleet
    /// member (breakpoints, single mutatee runs, register pokes).
    pub fn with_process<R>(
        &mut self,
        pid: u32,
        f: impl FnOnce(&mut Process) -> R,
    ) -> Result<R, Error> {
        match self.set.get_mut(pid) {
            Some(p) => Ok(f(p)),
            None => Err(Error::FleetProcessLost { pid }),
        }
    }

    /// The coalesced patch regions the last [`FleetController::commit_all`]
    /// delivered into every process (empty before the first commit).
    /// Tests use this to check bit-identity against the static path.
    pub fn commit_regions(&self) -> &[(u64, Vec<u8>)] {
        self.commit.as_ref().map_or(&[], |p| &p.regions)
    }

    /// The accumulated relocated→original address translation of every
    /// commit so far (`None` before the first), for use with
    /// `StackWalker::with_translation` when debugging an instrumented
    /// process.
    pub fn reloc_index(&self) -> Option<&RelocationIndex> {
        self.commit.as_ref().map(|p| &p.reloc_index)
    }

    /// Remove all committed instrumentation from the process under
    /// `pid`: its springboards are overwritten with the original
    /// instructions, so execution stops entering the patch area (which
    /// stays mapped but unreachable). Counters keep their values and
    /// stay readable; the rest of the fleet is untouched.
    pub fn remove_instrumentation(&mut self, pid: u32) -> Result<(), Error> {
        let undo = self.commit.as_ref().map_or(&[][..], |p| &p.undo);
        let p = self
            .set
            .get_mut(pid)
            .ok_or(Error::FleetProcessLost { pid })?;
        for (addr, original) in undo {
            p.write_mem(*addr, original);
        }
        p.machine_mut().trap_redirects.clear();
        Ok(())
    }

    /// Lower and relocate the queued snippets **once** on the template
    /// session (the timed `instrument` stage, fanned over the session's
    /// worker pool), then deliver the identical patch into every live
    /// process concurrently (the timed `commit` stage): zero the data
    /// area, write the coalesced regions, read each region back to
    /// verify, install the trap-table redirects.
    ///
    /// Returns `Err` only when the *plan* fails (nothing was delivered
    /// anywhere). Per-process delivery failures are recorded per pid —
    /// [`Error::PatchVerifyFailed`] for a region whose read-back
    /// disagrees (e.g. under a targeted fault plan),
    /// [`Error::FleetProcessLost`] for a process that exited before
    /// delivery — and leave the rest of the fleet fully committed.
    pub fn commit_all(&mut self) -> Result<(), Error> {
        let mut result = self.session.apply()?;
        self.session.clear_pending();

        // Uninstrumentation and pc translation cover every commit so far.
        let (undo, reloc_index) = match self.commit.take() {
            Some(prev) => {
                let mut undo = prev.undo.clone();
                undo.extend_from_slice(result.undo_writes());
                let mut index = prev.reloc_index.clone();
                index.merge(&result.reloc_index);
                (undo, index)
            }
            None => (
                result.undo_writes().to_vec(),
                std::mem::take(&mut result.reloc_index),
            ),
        };
        let regions = coalesce_writes(result.memory_writes());
        let code_span = regions
            .iter()
            .fold(None, |span: Option<(u64, u64)>, (addr, bytes)| {
                let end = *addr + bytes.len() as u64;
                Some(match span {
                    None => (*addr, end),
                    Some((lo, hi)) => (lo.min(*addr), hi.max(end)),
                })
            });
        let plan = Arc::new(CommitPlan {
            data_addr: self.session.layout().patch_data,
            data_len: self.session.var_bytes().max(8) as usize,
            regions,
            trap_table: result.trap_table.clone(),
            code_span,
            undo,
            reloc_index,
        });
        self.commit = Some(plan.clone());

        let timer = self.session.begin_stage(TimedStage::Commit);
        // Seed every live process's diagnostics with the shared
        // instrument totals (the plan is one artifact, delivered N
        // times), then fan the deliveries out.
        let live: Vec<u32> = self
            .states
            .iter()
            .filter(|(_, s)| s.result.is_none())
            .map(|(pid, _)| *pid)
            .collect();
        for pid in &live {
            if let Some(st) = self.states.get_mut(pid) {
                st.diag.record_patch(&result);
            }
            let plan = plan.clone();
            self.set.dispatch(*pid, move |p| commit_into(p, &plan));
        }
        while let Some(c) = self.set.next_completion() {
            self.events_dispatched += 1;
            self.session
                .emit(TelemetryEvent::FleetEventDispatched { pid: c.pid });
            let faults = self.set.get(c.pid).map_or(0, |p| p.faults_injected());
            let Some(st) = self.states.get_mut(&c.pid) else {
                continue;
            };
            st.diag.timings.record(TimedStage::Commit, c.nanos);
            st.diag.faults_injected = faults;
            match c.outcome {
                JobOutcome::Committed { lost: true, .. } => {
                    st.result = Some(Err(Error::FleetProcessLost { pid: c.pid }));
                    self.session
                        .emit(TelemetryEvent::FleetProcessFailed { pid: c.pid });
                }
                JobOutcome::Committed {
                    verified, failed, ..
                } => {
                    st.diag.patch_regions_written += verified;
                    for (addr, bytes) in &plan.regions[..verified] {
                        self.session.emit(TelemetryEvent::PatchRegionWritten {
                            addr: *addr,
                            len: bytes.len(),
                        });
                    }
                    match failed {
                        Some(addr) => {
                            st.result = Some(Err(Error::PatchVerifyFailed { addr }));
                            self.session
                                .emit(TelemetryEvent::FleetProcessFailed { pid: c.pid });
                        }
                        None => st.committed = true,
                    }
                }
                // A run outcome cannot arrive here (commit_all drains
                // its own dispatches), but stay total.
                JobOutcome::Stopped(_) => {}
            }
        }
        self.session.end_stage(timer);
        Ok(())
    }

    /// Run every committed process to its terminal event through the
    /// poll/park event loop (the timed `run` stage): each completion —
    /// stop, trap, or exit — is consumed in arrival order; non-terminal
    /// stops (breakpoints, emulated steps, delayed-stop recoveries) are
    /// re-dispatched; terminal events record the per-process result.
    /// Processes that never committed (or already failed) are left
    /// untouched — failure isolation works both ways.
    pub fn run_all(&mut self) {
        let timer = self.session.begin_stage(TimedStage::Run);
        let runnable: Vec<u32> = self
            .states
            .iter()
            .filter(|(_, s)| s.result.is_none() && s.committed)
            .map(|(pid, _)| *pid)
            .collect();
        for pid in runnable {
            self.set.dispatch(pid, |p| JobOutcome::Stopped(p.cont()));
        }
        while let Some(c) = self.set.next_completion() {
            self.events_dispatched += 1;
            self.session
                .emit(TelemetryEvent::FleetEventDispatched { pid: c.pid });
            if let Some(st) = self.states.get_mut(&c.pid) {
                st.diag.timings.record(TimedStage::Run, c.nanos);
            }
            let terminal: Option<Result<i64, Error>> = match c.outcome {
                JobOutcome::Stopped(Ok(Event::Exited(code))) => Some(Ok(code)),
                JobOutcome::Stopped(Ok(Event::Breakpoint(_)))
                | JobOutcome::Stopped(Ok(Event::Stepped(_))) => None,
                JobOutcome::Stopped(Ok(Event::CycleLimit(_))) => {
                    // run_all has no sampling policy — the profiler owns
                    // its own resumable loop via `with_process`. A cycle
                    // interrupt arriving here is a leftover armed
                    // interval: disarm it and let the process run on.
                    if let Some(p) = self.set.get_mut(c.pid) {
                        p.machine_mut().stop_at_cycles = None;
                    }
                    None
                }
                JobOutcome::Stopped(Ok(Event::Trap(pc))) => {
                    // The emulator resolves springboard traps through
                    // the redirect table in-loop, so a trap that
                    // surfaces with redirects installed is a missing
                    // springboard redirect; otherwise it is the
                    // mutatee's own ebreak.
                    let (has_redirects, icount) = self
                        .set
                        .get(c.pid)
                        .map(|p| (!p.machine().trap_redirects.is_empty(), p.machine().icount))
                        .unwrap_or((false, 0));
                    Some(Err(if has_redirects {
                        Error::RedirectMiss { pc }
                    } else {
                        Error::UncleanExit {
                            reason: format!("unexpected breakpoint trap at {pc:#x}"),
                            pc,
                            icount,
                        }
                    }))
                }
                JobOutcome::Stopped(Ok(Event::Fault { pc, addr })) => {
                    Some(Err(Error::MutateeFault { pc, addr }))
                }
                // `From<ProcError>` promotes CacheIncoherent to its own
                // typed error.
                JobOutcome::Stopped(Err(e)) => Some(Err(e.into())),
                // Commit outcomes cannot arrive here; stay total.
                JobOutcome::Committed { .. } => None,
            };
            match terminal {
                None => {
                    // Non-terminal stop: resume this process; the event
                    // loop keeps multiplexing the others meanwhile.
                    self.set.dispatch(c.pid, |p| JobOutcome::Stopped(p.cont()));
                }
                Some(result) => {
                    self.finish_process(c.pid, result);
                }
            }
        }
        self.session.end_stage(timer);
    }

    /// Record a terminal result for `pid`: fold the process's final
    /// machine counters and buffered engine events into its per-process
    /// diagnostics, then emit the fleet exit/failure telemetry.
    fn finish_process(&mut self, pid: u32, result: Result<i64, Error>) {
        if let Some(p) = self.set.get_mut(pid) {
            for ev in p.machine_mut().take_emu_events() {
                self.session.emit(session::adapt_emu(ev));
            }
            let (icount, cycles) = (p.machine().icount, p.machine().cycles);
            let (bt, inv, cl) = (
                p.machine().emu_blocks_translated(),
                p.machine().emu_invalidations(),
                p.machine().emu_chain_links(),
            );
            let faults = p.faults_injected();
            if let Some(st) = self.states.get_mut(&pid) {
                st.diag.record_run(icount, cycles);
                st.diag.record_emu(bt, inv, cl);
                st.diag.faults_injected = faults;
            }
        }
        let reason = match &result {
            Ok(_) => "exited",
            Err(Error::RedirectMiss { .. }) => "break",
            Err(Error::MutateeFault { .. }) => "mem-fault",
            Err(Error::CacheIncoherent { .. }) => "cache-incoherent",
            Err(_) => "stopped",
        };
        self.session.emit(TelemetryEvent::RunExit { reason });
        match &result {
            Ok(code) => self
                .session
                .emit(TelemetryEvent::FleetProcessExited { pid, code: *code }),
            Err(_) => self
                .session
                .emit(TelemetryEvent::FleetProcessFailed { pid }),
        }
        if let Some(st) = self.states.get_mut(&pid) {
            st.result = Some(result);
        }
    }

    /// Read an instrumentation variable from the process under `pid`.
    pub fn read_var(&self, pid: u32, var: Var) -> Option<u64> {
        read_u64(self.set.get(pid)?, var.addr)
    }

    /// The fleet-level rollup: totals plus one pid-sorted
    /// [`ProcessReport`] per process (identical for every worker
    /// count). Callable at any time; live processes report with neither
    /// exit code nor error.
    pub fn summary(&self) -> FleetSummary {
        let per_process: Vec<ProcessReport> = self
            .states
            .iter()
            .map(|(pid, st)| ProcessReport {
                pid: *pid,
                exit_code: match &st.result {
                    Some(Ok(code)) => Some(*code),
                    _ => None,
                },
                error: match &st.result {
                    Some(Err(e)) => Some(e.to_string()),
                    _ => None,
                },
                diag: st.diag.clone(),
            })
            .collect();
        FleetSummary {
            processes: per_process.len(),
            events_dispatched: self.events_dispatched,
            faults_injected: per_process.iter().map(|p| p.diag.faults_injected).sum(),
            processes_failed: per_process.iter().filter(|p| p.error.is_some()).count(),
            per_process,
        }
    }
}

/// Read a little-endian u64 from a process's memory.
pub(crate) fn read_u64(p: &Process, addr: u64) -> Option<u64> {
    let b = p.read_mem(addr, 8).ok()?;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

/// Coalesce individual patch writes into contiguous regions: sort by
/// address, then merge any write that starts at or before the end of the
/// previous region. Overlapping bytes are resolved in original write
/// order (later writes win), matching the semantics of issuing the
/// writes one by one.
fn coalesce_writes(writes: &[(u64, Vec<u8>)]) -> Vec<(u64, Vec<u8>)> {
    let mut sorted: Vec<&(u64, Vec<u8>)> = writes.iter().collect();
    sorted.sort_by_key(|(addr, _)| *addr); // stable: preserves write order at equal addresses
    let mut out: Vec<(u64, Vec<u8>)> = Vec::new();
    for (addr, bytes) in sorted {
        match out.last_mut() {
            Some((base, buf)) if *addr <= *base + buf.len() as u64 => {
                let off = (*addr - *base) as usize;
                let end = off + bytes.len();
                if end > buf.len() {
                    buf.resize(end, 0);
                }
                buf[off..end].copy_from_slice(bytes);
            }
            _ => out.push((*addr, bytes.clone())),
        }
    }
    out
}

/// The per-process commit job: deliver the frozen plan into one live
/// process through its debug interface, with read-back verification.
/// Runs on a fleet worker; everything it touches is this one process.
fn commit_into(p: &mut Process, plan: &CommitPlan) -> JobOutcome {
    if p.exit_code().is_some() {
        // The process died before delivery — the fleet analogue of
        // ESRCH from ptrace mid-commit.
        return JobOutcome::Committed {
            verified: 0,
            failed: None,
            lost: true,
        };
    }
    p.write_mem(plan.data_addr, &vec![0u8; plan.data_len]);
    let mut verified = 0usize;
    let mut failed: Option<u64> = None;
    for (addr, bytes) in &plan.regions {
        p.write_mem(*addr, bytes);
        match p.read_mem(*addr, bytes.len()) {
            Ok(back) if back == *bytes => verified += 1,
            _ => {
                failed = Some(*addr);
                break;
            }
        }
    }
    if failed.is_none() {
        if let Some((lo, hi)) = plan.code_span {
            p.machine_mut().ensure_code_region(lo, hi - lo);
        }
        for (from, to) in &plan.trap_table {
            p.machine_mut().trap_redirects.insert(*from, *to);
        }
    }
    JobOutcome::Committed {
        verified,
        failed,
        lost: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_instruments_and_runs() {
        let bin = rvdyn_asm::matmul_program(4, 2);
        let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
        let pids = fleet.spawn(3);
        assert_eq!(pids, vec![0, 1, 2]);
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        fleet.run_all();
        for pid in pids {
            assert!(matches!(fleet.result(pid), Some(Ok(0))), "pid {pid}");
            assert_eq!(fleet.read_var(pid, counter), Some(2), "pid {pid}");
            let d = fleet.process_diagnostics(pid).unwrap();
            assert!(d.patch_regions_written > 0);
            assert!(d.instret > 0);
            assert!(d.timings.commit_ns > 0 && d.timings.run_ns > 0);
        }
        let s = fleet.summary();
        assert_eq!(s.processes, 3);
        assert_eq!(s.processes_failed, 0);
        // One commit completion + at least one run completion per pid.
        assert!(s.events_dispatched >= 6);
    }

    #[test]
    fn summary_json_is_well_formed() {
        let bin = rvdyn_asm::matmul_program(4, 1);
        let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
        fleet.spawn(2);
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        fleet.run_all();
        let j = fleet.summary().to_json();
        for key in [
            "\"schema\":\"rvdyn-diagnostics-v1\"",
            "\"fleet\":{",
            "\"processes\":2",
            "\"events_dispatched\":",
            "\"faults_injected\":0",
            "\"processes_failed\":0",
            "\"per_process\":[{\"pid\":0,",
            "\"exited\":1,\"exit_code\":0,\"failed\":0",
            "\"diagnostics\":{\"schema\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(!j.contains('\n'), "one line");
        crate::json::tests::check_json(&j).expect("fleet summary JSON must parse");
    }

    #[test]
    fn summary_json_golden_bytes() {
        use crate::diag::tests::{golden_fixture, GOLDEN};
        let diag = golden_fixture();
        let summary = FleetSummary {
            processes: 2,
            events_dispatched: 7,
            faults_injected: 2,
            processes_failed: 1,
            per_process: vec![
                ProcessReport {
                    pid: 0,
                    exit_code: Some(0),
                    error: None,
                    diag: diag.clone(),
                },
                ProcessReport {
                    pid: 1,
                    exit_code: None,
                    error: Some("process 1 lost".into()),
                    diag,
                },
            ],
        };
        let expected = [
            r#"{"schema":"rvdyn-diagnostics-v1","#,
            r#""fleet":{"processes":2,"events_dispatched":7,"faults_injected":2,"processes_failed":1},"#,
            r#""per_process":[{"pid":0,"exited":1,"exit_code":0,"failed":0,"diagnostics":"#,
            GOLDEN,
            r#"},{"pid":1,"exited":0,"exit_code":-1,"failed":1,"diagnostics":"#,
            GOLDEN,
            "}]}",
        ]
        .concat();
        assert_eq!(summary.to_json(), expected);
    }

    #[test]
    fn unknown_pid_is_fleet_process_lost() {
        let bin = rvdyn_asm::matmul_program(4, 1);
        let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
        fleet.spawn(1);
        match fleet.set_fault_plan(99, FaultPlan::new()) {
            Err(Error::FleetProcessLost { pid: 99 }) => {}
            other => panic!("expected FleetProcessLost, got {other:?}"),
        }
        assert!(fleet.read_var(99, Var { addr: 0, size: 8 }).is_none());
    }

    /// A one-process fleet over `bin`, and the process's pid.
    fn one(bin: Binary) -> (FleetController, u32) {
        let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
        let pid = fleet.spawn(1)[0];
        (fleet, pid)
    }

    #[test]
    fn attach_mid_run_and_instrument() {
        // Start the process, run it up to a breakpoint at main, *then*
        // attach instrumentation — the "already running process" variant.
        let bin = rvdyn_asm::matmul_program(5, 3);
        let main = bin.symbol_by_name("main").unwrap().value;
        let mut p = Process::launch(&bin);
        p.set_breakpoint(main).unwrap();
        assert!(matches!(p.cont().unwrap(), Event::Breakpoint(_)));
        p.remove_breakpoint(main).unwrap();

        let mut fleet = FleetController::from_binary(bin, SessionOptions::new());
        let pid = fleet.attach(p);
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::BlockEntry).unwrap();
        assert_eq!(pts.len(), 11);
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        fleet.run_all();
        assert!(matches!(fleet.result(pid), Some(Ok(0))));
        // Same closed form as the static test.
        let n = 5u64;
        let per_call = 1
            + (n + 1)
            + n
            + n * (n + 1)
            + n * n
            + n * n * (n + 1)
            + n * n * n
            + n * n
            + n * n
            + n
            + 1;
        assert_eq!(fleet.read_var(pid, counter), Some(per_call * 3));
    }

    #[test]
    fn from_analysis_shares_the_front_half() {
        let bin = rvdyn_asm::matmul_program(5, 3);
        let analysis = crate::Analysis::of_binary(bin, &rvdyn_parse::ParseOptions::default());

        // Two independent controllers, one shared analysis.
        for _ in 0..2 {
            let mut fleet = FleetController::from_analysis(analysis.clone(), SessionOptions::new());
            assert_eq!(fleet.diagnostics().timings.parse_ns, 0, "warm: no parse");
            let pid = fleet.spawn(1)[0];
            let counter = fleet.alloc_var(8);
            let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
            fleet.insert(&pts, Snippet::increment(counter));
            fleet.commit_all().unwrap();
            fleet.run_all();
            assert!(matches!(fleet.result(pid), Some(Ok(0))));
            assert_eq!(fleet.read_var(pid, counter), Some(3));
        }
    }

    #[test]
    fn live_and_static_counters_agree() {
        let (n, reps) = (4usize, 2usize);
        let elf = rvdyn_asm::matmul_program(n, reps).to_bytes().unwrap();
        let mut ed = crate::BinaryEditor::open(&elf).unwrap();
        let c1 = ed.alloc_var(8);
        let pts = ed.find_points("matmul", PointKind::BlockEntry).unwrap();
        ed.insert(&pts, Snippet::increment(c1));
        let out = ed.rewrite().unwrap();
        let r = crate::run_elf(&out, 100_000_000).unwrap();
        let static_count = r.read_u64(c1.addr).unwrap();

        let (mut fleet, pid) = one(rvdyn_asm::matmul_program(n, reps));
        let c2 = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::BlockEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(c2));
        fleet.commit_all().unwrap();
        fleet.run_all();
        assert_eq!(fleet.read_var(pid, c2), Some(static_count));
    }

    #[test]
    fn commit_batches_and_verifies_regions() {
        let (mut fleet, pid) = one(rvdyn_asm::matmul_program(4, 2));
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::BlockEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        let snap = fleet.process_diagnostics(pid).unwrap().clone();
        assert!(snap.patch_regions_written > 0, "regions counted");
        // The whole point of batching: no more writes than points.
        assert!(
            snap.patch_regions_written <= snap.points_instrumented,
            "coalescing must not need more writes than points ({} > {})",
            snap.patch_regions_written,
            snap.points_instrumented
        );
        assert!(snap.timings.commit_ns > 0, "commit stage was timed");
        fleet.run_all();
        assert!(matches!(fleet.result(pid), Some(Ok(0))));
        // The clone froze; the live diagnostics moved on.
        assert_eq!(snap.instret, 0);
        assert!(fleet.process_diagnostics(pid).unwrap().instret > 0);
    }

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let writes = vec![
            (0x100u64, vec![1u8, 2, 3, 4]),
            (0x104, vec![5, 6]),    // adjacent: merges
            (0x102, vec![9, 9]),    // overlap: later write wins
            (0x200, vec![7]),       // distinct region
            (0x1f0, vec![8; 0x10]), // adjacent to 0x200 after sort
        ];
        let regions = coalesce_writes(&writes);
        assert_eq!(regions.len(), 2);
        assert_eq!(regions[0].0, 0x100);
        assert_eq!(regions[0].1, vec![1, 2, 9, 9, 5, 6]);
        assert_eq!(regions[1].0, 0x1f0);
        assert_eq!(regions[1].1.len(), 0x11);
        assert_eq!(regions[1].1[0x10], 7);
    }

    #[test]
    fn coalesce_of_disjoint_writes_is_identity() {
        let writes = vec![(0x200u64, vec![1u8]), (0x100, vec![2, 3])];
        let regions = coalesce_writes(&writes);
        assert_eq!(regions, vec![(0x100, vec![2, 3]), (0x200, vec![1])]);
    }

    #[test]
    fn surfaced_trap_with_redirects_is_a_redirect_miss() {
        // Instrument normally, then sabotage: point the mutatee at an
        // ebreak that has no entry in the redirect table.
        let bin = rvdyn_asm::matmul_program(4, 1);
        let main = bin.symbol_by_name("main").unwrap().value;
        let sink = crate::CollectSink::new();
        let mut fleet =
            FleetController::from_binary(bin, SessionOptions::new().telemetry(sink.clone()));
        let pid = fleet.spawn(1)[0];
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        fleet
            .with_process(pid, |p| {
                // Overwrite main's first instruction with a bare ebreak
                // (no redirect registered for it). 4-byte ebreak =
                // 0x00100073.
                p.write_mem(main, &0x0010_0073u32.to_le_bytes());
                // Make sure the table is non-empty so this is a *miss*,
                // not an uninstrumented mutatee's own trap (this mutatee
                // is small enough that every springboard fits a direct
                // jump, so plant one entry for an unrelated address).
                p.machine_mut()
                    .trap_redirects
                    .insert(0xdead_0000, 0xdead_0004);
            })
            .unwrap();
        fleet.run_all();
        match fleet.result(pid) {
            Some(Err(Error::RedirectMiss { pc })) => assert_eq!(*pc, main),
            other => panic!("expected RedirectMiss, got {other:?}"),
        }
        // The terminal event is labelled like the static run loop's.
        assert_eq!(
            sink.count(|e| matches!(e, TelemetryEvent::RunExit { reason: "break" })),
            1
        );
    }

    #[test]
    fn instrumentation_can_be_removed_before_the_run() {
        // Instrument matmul's entry, then REMOVE the instrumentation
        // before running: the counter must stay 0 while the program
        // still computes correctly.
        let reps = 6usize;
        let bin = rvdyn_asm::matmul_program(5, reps);
        let (mut fleet, pid) = one(bin.clone());
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        assert!(fleet.reloc_index().is_some());
        fleet.remove_instrumentation(pid).unwrap();
        fleet.run_all();
        assert!(matches!(fleet.result(pid), Some(Ok(0))));
        assert_eq!(fleet.read_var(pid, counter), Some(0), "counter must freeze");

        // A second process stopped in uninstrumented code (a breakpoint
        // inside init_arrays, whose original code is intact) keeps its
        // springboards armed and counts every call.
        let (mut fleet, pid) = one(bin);
        let counter = fleet.alloc_var(8);
        let pts = fleet.find_points("matmul", PointKind::FuncEntry).unwrap();
        fleet.insert(&pts, Snippet::increment(counter));
        fleet.commit_all().unwrap();
        let init = fleet
            .find_points("init_arrays", PointKind::FuncEntry)
            .unwrap()[0]
            .addr;
        fleet
            .with_process(pid, |p| {
                p.set_breakpoint(init).unwrap();
                assert_eq!(p.cont().unwrap(), Event::Breakpoint(init));
                p.remove_breakpoint(init).unwrap();
            })
            .unwrap();
        fleet.run_all();
        assert!(matches!(fleet.result(pid), Some(Ok(0))));
        assert_eq!(fleet.read_var(pid, counter), Some(reps as u64));
        assert!(matches!(
            fleet.remove_instrumentation(99),
            Err(Error::FleetProcessLost { pid: 99 })
        ));
    }
}

//! `rewrite-cold` and `rewrite-warm`: static rewriting requests, each
//! one from ELF bytes to rewritten ELF bytes through the two-phase path
//! (`Binary::parse` → content key → `AnalysisCache` →
//! `Analysis::of_binary` on a miss → `BinaryEditor::from_analysis` →
//! placement → `instrumented` → `to_bytes`).

use crate::exec::{self, EmuTally, Observed, Stop};
use crate::images::{ColdStream, Family, Image, Kind};
use crate::rng::Rng;
use crate::spans::{Spans, Summary};
use crate::stats::ratio;
use crate::Phase;
use rvdyn::tools::{serialize_trace, MemTracer, TraceOptions, TraceReader};
use rvdyn::{
    Analysis, AnalysisCache, AnalysisKey, BinaryEditor, BlockCounter, CodeObject, CounterPlacement,
    Liveness, PointKind, Snippet, Var,
};
use rvdyn_symtab::{Binary, SHF_ALLOC};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace ring capacity in records; the traced images stay well inside
/// it, so a drained trace is always complete.
pub const TRACE_CAPACITY: u64 = 1 << 16;

/// The instrumentation a request planted, kept for the checks.
pub enum Handle {
    Entry(Var),
    Blocks(BlockCounter),
    Trace(MemTracer),
}

/// One served request.
pub struct Served {
    pub bytes: Vec<u8>,
    pub hit: bool,
    /// Entry address of the targeted function.
    pub func: u64,
    pub handle: Handle,
    pub editor: BinaryEditor,
    pub analysis: Arc<Analysis>,
    /// Bytes of allocatable section data the content key hashed.
    pub key_bytes: u64,
}

/// Serve one request. Every layer call sits in its own span.
pub fn serve(
    image: &Image,
    kind: Kind,
    pick: u64,
    cache: &AnalysisCache,
    spans: &mut Spans,
) -> Result<Served, String> {
    let parse = crate::parse_options(image.stripped);
    let binary = spans
        .time("symtab.parse", || Binary::parse(&image.elf))
        .map_err(|e| format!("parse: {e}"))?;
    let key_bytes = binary
        .sections
        .iter()
        .filter(|s| s.flags & SHF_ALLOC != 0)
        .map(|s| s.data.len() as u64)
        .sum();
    let key = spans.time("analysis.key", || AnalysisKey::of(&binary, &parse));
    let found = spans.time("analysis.cache_lookup", || cache.get(key));
    let hit = found.is_some();
    let analysis = match found {
        Some(a) => a,
        None => {
            let a = spans.time("analysis.of_binary", || Analysis::of_binary(binary, &parse));
            spans.time("analysis.cache_insert", || cache.insert(a.clone()));
            a
        }
    };
    let placement = match kind {
        Kind::Optimal => CounterPlacement::Optimal,
        _ => CounterPlacement::EveryBlock,
    };
    let opts = crate::session_options(image.stripped).counter_placement(placement);
    let mut ed = spans.time("session.from_analysis", || {
        BinaryEditor::from_analysis(analysis.clone(), opts)
    });

    let (func, name) = if image.names.is_empty() {
        let fns = &ed.code().functions;
        let entry = fns.keys().nth((pick % fns.len().max(1) as u64) as usize);
        (*entry.ok_or("no function parsed")?, None)
    } else {
        let name = &image.names[(pick % image.names.len() as u64) as usize];
        (
            ed.function_addr(name).map_err(|e| e.to_string())?,
            Some(name.as_str()),
        )
    };
    let handle = match kind {
        Kind::Entry => spans.time("patch.placement", || {
            let v = ed.alloc_var(8);
            let points = rvdyn::find_points(&ed.code().functions[&func], PointKind::FuncEntry);
            ed.insert(&points, Snippet::increment(v));
            Handle::Entry(v)
        }),
        Kind::Every | Kind::Optimal => {
            let name = name.ok_or("block counting needs a named function")?;
            spans
                .time("patch.placement", || ed.count_blocks(name))
                .map(Handle::Blocks)
                .map_err(|e| e.to_string())?
        }
        Kind::MemTrace => spans
            .time("tools.trace_plan", || {
                MemTracer::plan_editor(
                    &mut ed,
                    &TraceOptions {
                        capacity: TRACE_CAPACITY,
                        funcs: None,
                    },
                )
            })
            .map(Handle::Trace)
            .map_err(|e| e.to_string())?,
    };
    let patched = spans
        .time("patch.apply", || ed.instrumented())
        .map_err(|e| format!("apply: {e}"))?;
    let bytes = spans
        .time("symtab.write", || patched.binary.to_bytes())
        .map_err(|e| format!("write: {e}"))?;
    Ok(Served {
        bytes,
        hit,
        func,
        handle,
        editor: ed,
        analysis,
        key_bytes,
    })
}

/// Split one front-half computation into its parts. `Analysis::of_binary`
/// is a single public call, so the traced run times the calls it is
/// made of on the same input, outside the request: CFG construction
/// (`CodeObject::parse`, gaps off), gap parsing (`gaps::scan` plus
/// `parse_function` per candidate), `loop_depths` and
/// `Liveness::analyze` per function of the analysis's own CFG. Loops
/// and liveness run on one thread here, where the library spreads them
/// over its workers, so those two read as CPU time.
pub fn split(a: &Analysis, gaps: bool, spans: &mut Spans) {
    let bin = a.binary();
    let root = spans.begin("split");
    let co = spans.time("parse.cfg", || {
        CodeObject::parse(bin, &crate::parse_options(false))
    });
    if gaps {
        spans.time("parse.gaps", || {
            let known: BTreeSet<u64> = co.functions.keys().copied().collect();
            for c in rvdyn_parse::gaps::scan(bin, &co) {
                if !known.contains(&c) {
                    black_box(rvdyn_parse::parser::parse_function(
                        bin,
                        c,
                        &known,
                        &crate::parse_options(true),
                    ));
                }
            }
        });
    }
    let fns = &a.code().functions;
    spans.time("parse.loops", || {
        for f in fns.values() {
            black_box(rvdyn_parse::loop_depths(f));
        }
    });
    spans.time("dataflow.liveness", || {
        for f in fns.values() {
            black_box(Liveness::analyze(f));
        }
    });
    spans.end(root);
}

/// Per-request counts copied from the product's diagnostics.
#[derive(Default)]
pub struct Counts {
    requests: u64,
    bytes_in: u64,
    bytes_out: u64,
    key_bytes: u64,
    functions: u64,
    blocks: u64,
    insts: u64,
    miss_insts: u64,
    points: u64,
    spills: u64,
    placed: u64,
    elided: u64,
    plans: u64,
    workers: u64,
}

impl Counts {
    pub fn add(&mut self, image: &Image, s: &Served) {
        let d = s.editor.diagnostics();
        self.requests += 1;
        self.bytes_in += image.elf.len() as u64;
        self.bytes_out += s.bytes.len() as u64;
        self.key_bytes += s.key_bytes;
        self.functions += d.functions_parsed as u64;
        self.blocks += d.blocks_parsed as u64;
        self.insts += d.instructions_decoded;
        if !s.hit {
            self.miss_insts += d.instructions_decoded;
        }
        self.points += d.points_instrumented as u64;
        self.spills += d.spills as u64;
        self.placed += d.counters_placed;
        self.elided += d.counters_elided;
        self.plans += d.plans_built as u64;
        self.workers += d.instrument_workers as u64;
    }

    pub fn record(&self, sum: &Summary, v: &mut BTreeMap<&'static str, f64>) {
        let n = self.requests as f64;
        let mean = |x: u64| ratio(x as f64, n);
        v.insert("symtab.bytes_in", mean(self.bytes_in));
        v.insert("symtab.bytes_out", mean(self.bytes_out));
        v.insert("analysis.key_bytes", mean(self.key_bytes));
        v.insert("parse.functions", mean(self.functions));
        v.insert("parse.blocks", mean(self.blocks));
        v.insert("parse.insts", mean(self.insts));
        let cfg_total = sum.mean_ns("parse.cfg") * sum.calls("parse.cfg") as f64;
        v.insert(
            "parse.insts_per_s",
            ratio(self.miss_insts as f64 * 1e9, cfg_total),
        );
        v.insert("patch.points", mean(self.points));
        v.insert("patch.spills", mean(self.spills));
        v.insert("patch.counters_placed", mean(self.placed));
        v.insert("patch.counters_elided", mean(self.elided));
        v.insert("patch.plans_built", mean(self.plans));
        v.insert("patch.workers", mean(self.workers));
    }
}

/// What a rewrite phase accumulates: the phase itself plus the counts
/// copied from each response's diagnostics.
#[derive(Default)]
struct Tally {
    phase: Phase,
    counts: Counts,
}

impl Tally {
    /// One request: time it, check its response, fold its counts.
    fn request(
        &mut self,
        image: &Image,
        kind: Kind,
        pick: u64,
        cache: &AnalysisCache,
        spans: &mut Spans,
        id: u64,
    ) -> Option<Served> {
        let phase = &mut self.phase;
        spans.set_request(id);
        phase.attempted += 1;
        let clock = crate::Clock::start();
        let root = spans.begin("request");
        let r = serve(image, kind, pick, cache, spans);
        spans.end(root);
        let took = clock.read();
        match r {
            Err(e) => {
                phase.fail(&format!("{} {}: {e}", image.label, kind.label()));
                None
            }
            Ok(s) => {
                phase.requests.push(took);
                // Every response must re-parse as an ELF image.
                if let Err(e) = Binary::parse(&s.bytes) {
                    phase.fail(&format!(
                        "{} {}: response does not re-parse: {e}",
                        image.label,
                        kind.label()
                    ));
                    return None;
                }
                self.counts.add(image, &s);
                if spans.on() && !s.hit {
                    split(&s.analysis, image.stripped, spans);
                }
                Some(s)
            }
        }
    }

    /// Close the phase: per-request counts, and the cache's hits and
    /// misses since `before`.
    fn finish(self, spans: &Spans, cache: &AnalysisCache, before: rvdyn::CacheStats) -> Phase {
        let mut phase = self.phase;
        self.counts
            .record(&Summary::of(spans.spans()), &mut phase.values);
        record_cache(cache, before, &mut phase);
        phase
    }
}

fn record_cache(cache: &AnalysisCache, before: rvdyn::CacheStats, phase: &mut Phase) {
    let after = cache.stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    phase.values.insert("analysis.cache_hits", hits as f64);
    phase.values.insert("analysis.cache_misses", misses as f64);
    phase.values.insert(
        "analysis.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

/// Check one image end to end, untimed: every requested kind is served
/// afresh (and must reproduce `expect`'s bytes where given), the
/// original and each rewrite run, and the rewrite must stop the same
/// way with the same stdout and final data, plus the instrumentation's
/// own effect: the entry counter equals a breakpoint count of the
/// function's entries, every-block and optimal placement give the same
/// per-block counts, and the drained trace round-trips through the
/// trace format and equals the emulator's memory-access oracle.
pub fn check_image(
    image: &Image,
    pick: u64,
    kinds: &[Kind],
    expect: &BTreeMap<Kind, Vec<u8>>,
    tally: &mut EmuTally,
    spans: &mut Spans,
) -> Result<(), String> {
    let fail = |what: String| format!("{}: {what}", image.label);
    let original = Binary::parse(&image.elf).map_err(|e| fail(format!("parse: {e}")))?;
    let base = exec::run(&original, spans).map_err(&fail)?;
    tally.add_ran(&base);
    let tdo = image.time_dependent_output();
    let base_obs = exec::observe(&original, &base.machine, base.stop.clone(), tdo);

    let mut kinds: BTreeSet<Kind> = kinds.iter().copied().collect();
    if kinds.contains(&Kind::Every) || kinds.contains(&Kind::Optimal) {
        kinds.insert(Kind::Every);
        kinds.insert(Kind::Optimal);
    }
    let cache = AnalysisCache::new(1);
    let mut block_counts: BTreeMap<Kind, BTreeMap<u64, u64>> = BTreeMap::new();
    for kind in kinds {
        let what = |s: String| fail(format!("{}: {s}", kind.label()));
        let mut s = serve(image, kind, pick, &cache, &mut Spans::new(false)).map_err(&what)?;
        if let Some(b) = expect.get(&kind) {
            if *b != s.bytes {
                return Err(what("response differs from a fresh rewrite".into()));
            }
        }
        let rewritten = Binary::parse(&s.bytes).map_err(|e| what(format!("re-parse: {e}")))?;
        let same = |obs: Observed| {
            if obs == base_obs {
                Ok(())
            } else {
                Err(what(format!(
                    "rewrite stopped {:?} with {} stdout bytes; original {:?} with {}",
                    obs.stop,
                    obs.stdout.len(),
                    base_obs.stop,
                    base_obs.stdout.len()
                )))
            }
        };
        match &s.handle {
            Handle::Entry(var) => {
                let ran = exec::run(&rewritten, spans).map_err(&what)?;
                tally.add_ran(&ran);
                same(exec::observe(
                    &original,
                    &ran.machine,
                    ran.stop.clone(),
                    tdo,
                ))?;
                let got = ran
                    .machine
                    .mem
                    .load(var.addr, 8)
                    .map_err(|e| what(format!("{e:?}")))?;
                let want = exec::entry_hits(&original, s.func).map_err(&what)?;
                if got != want {
                    return Err(what(format!(
                        "entry counter {got}, breakpoint oracle {want}"
                    )));
                }
            }
            Handle::Blocks(counter) if base.stop != Stop::Trap => {
                let (out, ns) = exec::run_output(&s.bytes, spans).map_err(&what)?;
                tally.add_machine(out.machine(), None, ns);
                same(exec::observe(
                    &original,
                    out.machine(),
                    Stop::Exit(out.exit_code),
                    tdo,
                ))?;
                let counts = s
                    .editor
                    .block_counts(counter, &out)
                    .map_err(|e| what(e.to_string()))?;
                block_counts.insert(kind, counts);
            }
            // The library's runner reports a stop at `ebreak` as an
            // error, so a nested-call rewrite is checked for its stop
            // and data only.
            Handle::Blocks(_) => {
                let ran = exec::run(&rewritten, spans).map_err(&what)?;
                tally.add_ran(&ran);
                same(exec::observe(
                    &original,
                    &ran.machine,
                    ran.stop.clone(),
                    tdo,
                ))?;
            }
            Handle::Trace(tracer) => {
                let (out, ns) = exec::run_output(&s.bytes, spans).map_err(&what)?;
                tally.add_machine(out.machine(), None, ns);
                same(exec::observe(
                    &original,
                    out.machine(),
                    Stop::Exit(out.exit_code),
                    tdo,
                ))?;
                let drained = tracer
                    .drain_output(&mut s.editor, &out)
                    .map_err(|e| what(e.to_string()))?;
                if drained.dropped != 0 {
                    return Err(what(format!("{} trace records dropped", drained.dropped)));
                }
                let oracle = exec::mem_oracle(&original, &tracer.pcs()).map_err(&what)?;
                if drained.records != oracle {
                    return Err(what(format!(
                        "trace has {} records, oracle {}",
                        drained.records.len(),
                        oracle.len()
                    )));
                }
                let parsed = TraceReader::parse(&serialize_trace(&drained.records))
                    .map_err(|e| what(e.to_string()))?;
                if parsed.records() != drained.records.as_slice() {
                    return Err(what("trace does not round-trip".into()));
                }
            }
        }
    }
    if let (Some(every), Some(opt)) = (
        block_counts.get(&Kind::Every),
        block_counts.get(&Kind::Optimal),
    ) {
        if every != opt || every.values().sum::<u64>() == 0 {
            return Err(fail(format!(
                "block counts: every-block total {}, optimal total {}",
                every.values().sum::<u64>(),
                opt.values().sum::<u64>()
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// rewrite-cold
// ---------------------------------------------------------------------------

/// Kinds a cold request may ask for (the tracer is `rewrite-warm`'s).
const COLD_KINDS: [Kind; 3] = [Kind::Entry, Kind::Every, Kind::Optimal];

/// Warm-up requests per set-up: two full blocks of the mix.
const WARMUP: usize = 2 * crate::images::BLOCK;

/// One sampled response, kept for the checks.
struct Sample {
    image: Image,
    kind: Kind,
    pick: u64,
    bytes: Vec<u8>,
}

pub struct Cold {
    stream: ColdStream,
    rng: Rng,
    cache: Arc<AnalysisCache>,
    next_id: u64,
    /// The first response of each (family, stripped) slot: the seeded
    /// sample the checks run.
    samples: BTreeMap<(Family, bool), Sample>,
}

fn cold_kind(rng: &mut Rng, image: &Image) -> Kind {
    let kinds: Vec<Kind> = COLD_KINDS
        .into_iter()
        .filter(|k| image.supports(*k))
        .collect();
    kinds[rng.below(kinds.len() as u64) as usize]
}

impl crate::Workload for Cold {
    fn setup(seed: u64, rep: u64) -> Result<Cold, String> {
        // Warm-up draws from its own stream per set-up, so no image the
        // run sends repeats. It does not depend on the seed, so set-up
        // costs the same on every run.
        let mut warm = ColdStream::with_stream(0, 100 + rep);
        let mut rng = Rng::derive(seed, 3);
        // Capacity 1: the cache is on the path but never holds more than
        // the latest image, which no later request sends again.
        let cache = AnalysisCache::new(1);
        let mut tally = Tally::default();
        for i in 0..WARMUP {
            let image = warm.next_image();
            let kind = cold_kind(&mut rng, &image);
            let pick = rng.next_u64();
            tally.request(&image, kind, pick, &cache, &mut Spans::new(false), i as u64);
        }
        if tally.phase.failed > 0 {
            return Err(format!("{} warm-up requests failed", tally.phase.failed));
        }
        Ok(Cold {
            stream: ColdStream::new(seed),
            rng: Rng::derive(seed, 4),
            cache,
            next_id: 0,
            samples: BTreeMap::new(),
        })
    }

    fn phase(&mut self, dur: Duration, spans: &mut Spans) -> Phase {
        let mut tally = Tally::default();
        let before = self.cache.stats();
        let t0 = Instant::now();
        // Whole blocks only, so every run sends the mix in its exact
        // proportions.
        while t0.elapsed() < dur {
            for _ in 0..crate::images::BLOCK {
                let image = self.stream.next_image();
                let kind = cold_kind(&mut self.rng, &image);
                let pick = self.rng.next_u64();
                self.next_id += 1;
                let Some(s) = tally.request(&image, kind, pick, &self.cache, spans, self.next_id)
                else {
                    continue;
                };
                if s.hit {
                    tally
                        .phase
                        .fail(&format!("{}: a cold request hit the cache", image.label));
                }
                let slot = (image.family, image.stripped);
                self.samples.entry(slot).or_insert(Sample {
                    image,
                    kind,
                    pick,
                    bytes: s.bytes,
                });
            }
        }
        tally.finish(spans, &self.cache, before)
    }

    fn check(&mut self, spans: &mut Spans) -> Phase {
        let mut phase = Phase::default();
        let mut tally = EmuTally::default();
        for s in self.samples.values() {
            phase.attempted += 1;
            spans.set_request(u64::MAX);
            let root = spans.begin("check");
            let expect = BTreeMap::from([(s.kind, s.bytes.clone())]);
            if let Err(e) = check_image(&s.image, s.pick, &[s.kind], &expect, &mut tally, spans) {
                phase.fail(&e);
            }
            spans.end(root);
        }
        tally.record(&mut phase.values);
        phase.values.insert("sim_mips", tally.mips());
        phase
    }
}

// ---------------------------------------------------------------------------
// rewrite-warm
// ---------------------------------------------------------------------------

pub struct Warm {
    images: Vec<Image>,
    /// Every (image, kind) pair the stream draws from, with the image's
    /// target pick.
    pairs: Vec<(usize, Kind, u64)>,
    /// The warm-up response of each pair; every later response must
    /// equal it byte for byte.
    refs: Vec<Vec<u8>>,
    cache: Arc<AnalysisCache>,
    rng: Rng,
    next_id: u64,
}

impl crate::Workload for Warm {
    fn setup(seed: u64, _rep: u64) -> Result<Warm, String> {
        let images = crate::images::warm_set(seed);
        let mut rng = Rng::derive(seed, 5);
        let mut pairs = Vec::new();
        for (i, image) in images.iter().enumerate() {
            let pick = rng.next_u64();
            for kind in crate::images::KINDS {
                if image.supports(kind) {
                    pairs.push((i, kind, pick));
                }
            }
        }
        // The cache holds every image; the warm-up pass fills it and
        // records the reference responses.
        let cache = AnalysisCache::new(images.len());
        let mut tally = Tally::default();
        let mut refs = Vec::new();
        for (j, &(i, kind, pick)) in pairs.iter().enumerate() {
            let s = tally
                .request(
                    &images[i],
                    kind,
                    pick,
                    &cache,
                    &mut Spans::new(false),
                    j as u64,
                )
                .ok_or_else(|| format!("warm-up of {} {} failed", images[i].label, kind.label()))?;
            refs.push(s.bytes);
        }
        Ok(Warm {
            images,
            pairs,
            refs,
            cache,
            rng: Rng::derive(seed, 6),
            next_id: 0,
        })
    }

    fn phase(&mut self, dur: Duration, spans: &mut Spans) -> Phase {
        let mut tally = Tally::default();
        let before = self.cache.stats();
        let t0 = Instant::now();
        // Whole rounds, each sending every (image, kind) pair once in a
        // seeded order, so every run replays the pairs in equal shares.
        let mut order: Vec<usize> = (0..self.pairs.len()).collect();
        while t0.elapsed() < dur {
            self.rng.shuffle(&mut order);
            for &j in &order {
                let (i, kind, pick) = self.pairs[j];
                let image = &self.images[i];
                self.next_id += 1;
                let Some(s) = tally.request(image, kind, pick, &self.cache, spans, self.next_id)
                else {
                    continue;
                };
                let what = format!("{} {}", image.label, kind.label());
                if !s.hit {
                    tally
                        .phase
                        .fail(&format!("{what}: a warm request missed the cache"));
                } else if s.bytes != self.refs[j] {
                    tally
                        .phase
                        .fail(&format!("{what}: response differs from the reference"));
                }
            }
        }
        tally.finish(spans, &self.cache, before)
    }

    fn check(&mut self, spans: &mut Spans) -> Phase {
        let mut phase = Phase::default();
        let mut tally = EmuTally::default();
        for (i, image) in self.images.iter().enumerate() {
            let mut kinds = Vec::new();
            let mut expect = BTreeMap::new();
            let mut pick = 0;
            for (j, &(pi, kind, p)) in self.pairs.iter().enumerate() {
                if pi == i {
                    kinds.push(kind);
                    expect.insert(kind, self.refs[j].clone());
                    pick = p;
                }
            }
            phase.attempted += 1;
            spans.set_request(u64::MAX);
            let root = spans.begin("check");
            if let Err(e) = check_image(image, pick, &kinds, &expect, &mut tally, spans) {
                phase.fail(&e);
            }
            spans.end(root);
        }
        tally.record(&mut phase.values);
        phase.values.insert("sim_mips", tally.mips());
        phase
    }
}

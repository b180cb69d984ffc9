//! Pipeline diagnostics: one struct of counters *and clocks* threaded
//! through open→parse→instrument→run, so a tool (and `rvdyn_cli`) can
//! report *what the toolkit actually did* — how much code it decoded, how
//! it planted springboards, whether dead-register allocation held up,
//! what the mutatee executed, and where the toolkit's own wall-clock time
//! went. The categories follow the paper's own evaluation axes: parse
//! coverage (§3.2.3), springboard strategy (§3.1.2), dead registers vs.
//! spills (§4.3), and the emulator's instret/cycle model (§4); the
//! [`StageTimings`] section gives perf work the per-stage attribution the
//! §4.3 table demands of the tool itself.

use crate::json;
use crate::telemetry::StageTimings;
use rvdyn_parse::{CodeObject, EdgeKind};
use rvdyn_patch::instrument::PatchResult;
use rvdyn_patch::springboard::SpringboardStats;
use std::fmt;

/// Counters and per-stage timings for one instrumentation pipeline,
/// grouped by stage. Stages that have not run yet report zeros.
///
/// Not `Copy`: accessors hand out `&Diagnostics` so callers always see
/// live totals; take an explicit `.clone()` for a point-in-time snapshot.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    // -- parse stage --
    /// Functions discovered by ParseAPI.
    pub functions_parsed: usize,
    /// Basic blocks across all functions.
    pub blocks_parsed: usize,
    /// Instructions decoded into those blocks.
    pub instructions_decoded: u64,
    /// Indirect transfers whose targets could not be resolved (each one a
    /// soundness hazard instrumentation must treat conservatively).
    pub unresolved_indirects: usize,
    /// Blocks whose jump-table dispatch was fully resolved to edges.
    pub jump_tables_resolved: usize,
    /// Functions discovered only by gap parsing (stripped-binary path).
    pub gap_functions: usize,

    // -- instrument stage --
    /// Points that received snippets.
    pub points_instrumented: usize,
    /// Points lowered entirely from dead registers (no spill frame).
    pub dead_register_points: usize,
    /// Total registers spilled across all snippets.
    pub spills: usize,
    /// Springboard strategy histogram.
    pub springboards: SpringboardStats,
    /// Coalesced patch regions delivered (dynamic commit batching; the
    /// static path serialises an ELF instead and leaves this 0).
    pub patch_regions_written: usize,
    /// Distinct original instruction addresses the springboard clobber
    /// audit examined (soundness invariant: every one gained a redirect).
    pub clobbers_audited: usize,
    /// Distinct `(original, relocated)` redirects the audit registered in
    /// the trap table to cover the clobbered addresses.
    pub redirects_registered: usize,
    /// Block-count increment snippets actually placed by `count_blocks`
    /// (every-block: one per block; optimal: one per co-tree edge).
    pub counters_placed: u64,
    /// Counters the optimal placement avoided versus one-per-block
    /// (0 under `CounterPlacement::EveryBlock` or after a fallback).
    pub counters_elided: u64,
    /// Worker threads the instrumenter's parallel plan phase used for
    /// the most recent apply (1 = inline, no pool was spun up).
    pub instrument_workers: usize,
    /// Position-independent function plans the plan phase built (one per
    /// instrumented function; the layout phase consumed all of them).
    pub plans_built: usize,

    // -- fault injection --
    /// Debug-interface faults injected by an armed `FaultPlan` (0 in
    /// normal operation; nonzero only when a test or tool deliberately
    /// exercises the failure paths).
    pub faults_injected: u64,

    // -- analysis cache --
    /// Front-half analyses this session reused from an
    /// [`AnalysisCache`](crate::AnalysisCache) (1 for a warm
    /// `open_cached` session; 0 for cold/uncached sessions).
    pub analysis_cache_hits: u64,
    /// Cache lookups by this session that computed a fresh analysis.
    pub analysis_cache_misses: u64,
    /// Entries this session's cache insertions evicted to stay within
    /// the cache's capacity bound.
    pub analysis_cache_evictions: u64,

    // -- run stage --
    /// Instructions the mutatee retired.
    pub instret: u64,
    /// Modelled cycles the mutatee consumed.
    pub cycles: u64,
    /// Per-block counts recovered from placed counters via the CFG flow
    /// equations (0 when every block carried its own counter).
    pub counts_reconstructed: u64,

    // -- execution engine (DBT back end; all 0 under the interpreter) --
    /// Basic blocks the cached engine decoded into its translation cache.
    pub emu_blocks_translated: u64,
    /// Cached blocks killed by writes into executable text (springboard
    /// patches, `FaultPlan` corruption, self-modifying stores).
    pub emu_invalidations: u64,
    /// Direct-branch chain links installed between cached blocks.
    pub emu_chain_links: u64,

    // -- tools (memory tracer / sampling profiler; see docs/TOOLS.md) --
    /// Load/store sites the memory tracer instrumented.
    pub trace_points_planned: u64,
    /// Trace records recovered from the mutatee's ring buffer.
    pub trace_records: u64,
    /// Trace records lost because the in-mutatee ring filled up.
    pub trace_dropped: u64,
    /// Stack samples the profiler took (one per cycle-limit interrupt).
    pub profile_samples: u64,
    /// Deepest stack (in frames) any profiler sample walked.
    pub profile_max_depth: u64,

    /// Per-stage wall-clock attribution for the whole pipeline.
    pub timings: StageTimings,
}

impl Diagnostics {
    /// Fill the parse-stage counters from a parsed code object.
    pub(crate) fn record_parse(&mut self, co: &CodeObject) {
        self.functions_parsed = co.functions.len();
        self.blocks_parsed = 0;
        self.instructions_decoded = 0;
        self.unresolved_indirects = 0;
        self.jump_tables_resolved = 0;
        self.gap_functions = co.gap_functions.len();
        for f in co.functions.values() {
            self.blocks_parsed += f.blocks.len();
            for b in f.blocks.values() {
                self.instructions_decoded += b.insts.len() as u64;
                self.unresolved_indirects += b
                    .edges
                    .iter()
                    .filter(|e| e.kind == EdgeKind::Unresolved)
                    .count();
                if b.edges.iter().any(|e| e.kind == EdgeKind::IndirectJump) {
                    self.jump_tables_resolved += 1;
                }
            }
        }
    }

    /// Fill the instrument-stage counters from a patch result.
    pub(crate) fn record_patch(&mut self, r: &PatchResult) {
        self.points_instrumented = r.points_instrumented;
        self.dead_register_points = r.dead_register_points;
        self.spills = r.spill_count;
        self.springboards = r.springboards;
        self.clobbers_audited = r.clobbers_audited;
        self.redirects_registered = r.redirects_registered;
        self.instrument_workers = r.instrument_workers;
        self.plans_built = r.plans_built;
    }

    /// Fill the run-stage counters from the mutatee's final machine state.
    pub fn record_run(&mut self, icount: u64, cycles: u64) {
        self.instret = icount;
        self.cycles = cycles;
    }

    /// Fill the execution-engine counters from the machine's translation
    /// cache (all zero when the run used the interpreter).
    pub fn record_emu(&mut self, blocks_translated: u64, invalidations: u64, chain_links: u64) {
        self.emu_blocks_translated = blocks_translated;
        self.emu_invalidations = invalidations;
        self.emu_chain_links = chain_links;
    }

    /// Serialise the full diagnostics — counters and per-stage timings —
    /// as a self-describing JSON object (schema `rvdyn-diagnostics-v1`).
    /// Every value is a JSON number, so the output is stable across
    /// platforms.
    pub fn to_json(&self) -> String {
        let t = &self.timings;
        let sb = &self.springboards;
        json::object(|o| {
            o.field("schema", "rvdyn-diagnostics-v1");
            o.object("parse", |p| {
                p.field("functions", self.functions_parsed)
                    .field("blocks", self.blocks_parsed)
                    .field("instructions", self.instructions_decoded)
                    .field("unresolved_indirects", self.unresolved_indirects)
                    .field("jump_tables_resolved", self.jump_tables_resolved)
                    .field("gap_functions", self.gap_functions);
            });
            o.object("instrument", |i| {
                i.field("points", self.points_instrumented)
                    .field("dead_register_points", self.dead_register_points)
                    .field("spills", self.spills)
                    .field("patch_regions_written", self.patch_regions_written)
                    .field("clobbers_audited", self.clobbers_audited)
                    .field("redirects_registered", self.redirects_registered)
                    .field("counters_placed", self.counters_placed)
                    .field("counters_elided", self.counters_elided)
                    .field("instrument_workers", self.instrument_workers)
                    .field("plans_built", self.plans_built)
                    .object("springboards", |s| {
                        s.field("compressed_jump", sb.compressed_jump)
                            .field("jal", sb.jal)
                            .field("auipc_jalr", sb.auipc_jalr)
                            .field("trap", sb.trap);
                    });
            });
            o.object("run", |r| {
                r.field("instret", self.instret)
                    .field("cycles", self.cycles)
                    .field("counts_reconstructed", self.counts_reconstructed);
            });
            o.object("faults", |f| {
                f.field("injected", self.faults_injected);
            });
            o.object("cache", |c| {
                c.field("analysis_cache_hits", self.analysis_cache_hits)
                    .field("analysis_cache_misses", self.analysis_cache_misses)
                    .field("analysis_cache_evictions", self.analysis_cache_evictions);
            });
            o.object("emu", |e| {
                e.field("blocks_translated", self.emu_blocks_translated)
                    .field("invalidations", self.emu_invalidations)
                    .field("chain_links", self.emu_chain_links);
            });
            o.object("tools", |t| {
                t.field("trace_points_planned", self.trace_points_planned)
                    .field("trace_records", self.trace_records)
                    .field("trace_dropped", self.trace_dropped)
                    .field("profile_samples", self.profile_samples)
                    .field("profile_max_depth", self.profile_max_depth);
            });
            o.object("timings_ns", |n| {
                n.field("open", t.open_ns)
                    .field("parse", t.parse_ns)
                    .field("instrument", t.instrument_ns)
                    .field("relocate", t.relocate_ns)
                    .field("commit", t.commit_ns)
                    .field("run", t.run_ns);
            });
        })
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "parse:      {} functions, {} blocks, {} instructions, \
             {} unresolved indirects",
            self.functions_parsed,
            self.blocks_parsed,
            self.instructions_decoded,
            self.unresolved_indirects
        )?;
        if self.jump_tables_resolved > 0 || self.gap_functions > 0 {
            writeln!(
                f,
                "            {} jump tables resolved, {} gap functions",
                self.jump_tables_resolved, self.gap_functions
            )?;
        }
        writeln!(
            f,
            "instrument: {} points ({} dead-register, {} spilled registers)",
            self.points_instrumented, self.dead_register_points, self.spills
        )?;
        if self.instrument_workers > 1 {
            writeln!(
                f,
                "            {} plans built on {} workers",
                self.plans_built, self.instrument_workers
            )?;
        }
        writeln!(
            f,
            "springboards: {} c.j, {} jal, {} auipc+jalr, {} trap",
            self.springboards.compressed_jump,
            self.springboards.jal,
            self.springboards.auipc_jalr,
            self.springboards.trap
        )?;
        if self.clobbers_audited > 0 {
            writeln!(
                f,
                "soundness:  {} clobbered addresses audited, {} redirects registered",
                self.clobbers_audited, self.redirects_registered
            )?;
        }
        if self.counters_placed > 0 {
            writeln!(
                f,
                "placement:  {} counters placed, {} elided \
                 ({} counts reconstructed)",
                self.counters_placed, self.counters_elided, self.counts_reconstructed
            )?;
        }
        if self.faults_injected > 0 {
            writeln!(f, "faults:     {} injected", self.faults_injected)?;
        }
        if self.analysis_cache_hits > 0 || self.analysis_cache_misses > 0 {
            writeln!(
                f,
                "cache:      {} hits, {} misses, {} evictions",
                self.analysis_cache_hits, self.analysis_cache_misses, self.analysis_cache_evictions
            )?;
        }
        if self.patch_regions_written > 0 {
            writeln!(
                f,
                "delivery:   {} coalesced patch regions written + verified",
                self.patch_regions_written
            )?;
        }
        writeln!(
            f,
            "run:        {} instret, {} cycles",
            self.instret, self.cycles
        )?;
        if self.emu_blocks_translated > 0 {
            writeln!(
                f,
                "engine:     {} blocks translated, {} chain links, {} invalidations",
                self.emu_blocks_translated, self.emu_chain_links, self.emu_invalidations
            )?;
        }
        if self.trace_points_planned > 0 {
            writeln!(
                f,
                "trace:      {} points, {} records recovered, {} dropped",
                self.trace_points_planned, self.trace_records, self.trace_dropped
            )?;
        }
        if self.profile_samples > 0 {
            writeln!(
                f,
                "profile:    {} samples, deepest stack {} frames",
                self.profile_samples, self.profile_max_depth
            )?;
        }
        write!(f, "timings:    {}", self.timings)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::tests::check_json;
    use crate::telemetry::TimedStage;
    use rvdyn_patch::springboard::SpringboardStats;

    /// The populated fixture the schema and golden tests share; every
    /// counter has a distinct nonzero value except `spills`.
    pub(crate) fn populated() -> Diagnostics {
        let mut d = Diagnostics {
            functions_parsed: 3,
            blocks_parsed: 17,
            instructions_decoded: 411,
            unresolved_indirects: 1,
            jump_tables_resolved: 2,
            gap_functions: 1,
            points_instrumented: 11,
            dead_register_points: 11,
            spills: 0,
            patch_regions_written: 4,
            clobbers_audited: 6,
            redirects_registered: 5,
            counters_placed: 4,
            counters_elided: 7,
            instrument_workers: 4,
            plans_built: 9,
            faults_injected: 2,
            instret: 123_456,
            cycles: 234_567,
            counts_reconstructed: 11,
            analysis_cache_hits: 8,
            analysis_cache_misses: 2,
            analysis_cache_evictions: 1,
            emu_blocks_translated: 42,
            emu_invalidations: 3,
            emu_chain_links: 40,
            trace_points_planned: 12,
            trace_records: 900,
            trace_dropped: 5,
            profile_samples: 64,
            profile_max_depth: 9,
            ..Default::default()
        };
        d.timings.record(TimedStage::Parse, 1_000);
        d.timings.record(TimedStage::Instrument, 2_000);
        d.timings.record(TimedStage::Run, 3_000);
        d
    }

    #[test]
    fn json_is_parseable_and_schema_stable() {
        let j = populated().to_json();
        check_json(&j).expect("diagnostics JSON must parse");

        // Schema stability: every v1 key present, in its section.
        for key in [
            "\"schema\":\"rvdyn-diagnostics-v1\"",
            "\"parse\":{",
            "\"functions\":3",
            "\"blocks\":17",
            "\"instructions\":411",
            "\"unresolved_indirects\":1",
            "\"jump_tables_resolved\":2",
            "\"gap_functions\":1",
            "\"instrument\":{",
            "\"points\":11",
            "\"dead_register_points\":11",
            "\"spills\":0",
            "\"patch_regions_written\":4",
            "\"clobbers_audited\":6",
            "\"redirects_registered\":5",
            "\"counters_placed\":4",
            "\"counters_elided\":7",
            "\"instrument_workers\":4",
            "\"plans_built\":9",
            "\"springboards\":{",
            "\"compressed_jump\":",
            "\"jal\":",
            "\"auipc_jalr\":",
            "\"trap\":",
            "\"run\":{",
            "\"instret\":123456",
            "\"cycles\":234567",
            "\"counts_reconstructed\":11",
            "\"faults\":{",
            "\"injected\":2",
            "\"cache\":{",
            "\"analysis_cache_hits\":8",
            "\"analysis_cache_misses\":2",
            "\"analysis_cache_evictions\":1",
            "\"emu\":{",
            "\"blocks_translated\":42",
            "\"invalidations\":3",
            "\"chain_links\":40",
            "\"tools\":{",
            "\"trace_points_planned\":12",
            "\"trace_records\":900",
            "\"trace_dropped\":5",
            "\"profile_samples\":64",
            "\"profile_max_depth\":9",
            "\"timings_ns\":{",
            "\"open\":0",
            "\"parse\":1000",
            "\"instrument\":2000",
            "\"relocate\":0",
            "\"commit\":0",
            "\"run\":3000",
        ] {
            assert!(j.contains(key), "JSON missing {key}: {j}");
        }
    }

    /// `populated()` plus a distinct count per springboard kind, so a
    /// reordered key anywhere in the object changes the bytes.
    pub(crate) fn golden_fixture() -> Diagnostics {
        let mut d = populated();
        d.springboards = SpringboardStats {
            compressed_jump: 1,
            jal: 2,
            auipc_jalr: 3,
            trap: 4,
        };
        d
    }

    /// `golden_fixture().to_json()`, byte for byte: the
    /// `rvdyn-diagnostics-v1` layout docs/DIAGNOSTICS.md and the CI
    /// schema-sync pin.
    pub(crate) const GOLDEN: &str = concat!(
        r#"{"schema":"rvdyn-diagnostics-v1","#,
        r#""parse":{"functions":3,"blocks":17,"instructions":411,"#,
        r#""unresolved_indirects":1,"jump_tables_resolved":2,"gap_functions":1},"#,
        r#""instrument":{"points":11,"dead_register_points":11,"spills":0,"#,
        r#""patch_regions_written":4,"clobbers_audited":6,"redirects_registered":5,"#,
        r#""counters_placed":4,"counters_elided":7,"instrument_workers":4,"plans_built":9,"#,
        r#""springboards":{"compressed_jump":1,"jal":2,"auipc_jalr":3,"trap":4}},"#,
        r#""run":{"instret":123456,"cycles":234567,"counts_reconstructed":11},"#,
        r#""faults":{"injected":2},"#,
        r#""cache":{"analysis_cache_hits":8,"analysis_cache_misses":2,"analysis_cache_evictions":1},"#,
        r#""emu":{"blocks_translated":42,"invalidations":3,"chain_links":40},"#,
        r#""tools":{"trace_points_planned":12,"trace_records":900,"trace_dropped":5,"#,
        r#""profile_samples":64,"profile_max_depth":9},"#,
        r#""timings_ns":{"open":0,"parse":1000,"instrument":2000,"relocate":0,"commit":0,"run":3000}}"#,
    );

    #[test]
    fn json_golden_bytes() {
        assert_eq!(golden_fixture().to_json(), GOLDEN);
    }

    #[test]
    fn default_json_parses_too() {
        check_json(&Diagnostics::default().to_json()).expect("default JSON");
    }
}

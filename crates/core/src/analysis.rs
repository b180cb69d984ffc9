//! The immutable, shareable front half of the instrumentation pipeline.
//!
//! Every instrumentation request against the same binary repeats the
//! same work: model the ELF, build the CFG, compute loop depths, solve
//! per-function liveness. None of that depends on *what* is being
//! instrumented — it is a pure function of the binary's content — so a
//! service handling many requests against few binaries should do it
//! once. This module splits the pipeline accordingly:
//!
//! * [`Analysis`] — the complete front-half artifact (binary model +
//!   CFG + loop depths + liveness), immutable and shared behind an
//!   `Arc`. Any number of concurrent [`Session`](crate::Session)s can
//!   run their request-specific back halves (placement, lowering,
//!   layout, delivery) against one `Arc<Analysis>` from different
//!   threads.
//! * [`AnalysisKey`] — a SHA-256 over the binary's *semantic* content:
//!   the entry point, the ISA profile material, allocatable section
//!   bytes ordered by address, and the symbol table. File-layout
//!   padding, section names, section-header order and the session's
//!   worker-thread count do not participate, so two byte-different
//!   ELFs that load identically share a key, while a single flipped
//!   text byte changes it.
//! * [`AnalysisCache`] — a bounded, least-recently-used, thread-safe
//!   map from key to `Arc<Analysis>` with hit/miss/eviction counters,
//!   the substrate for [`Session::open_cached`](crate::Session) and the
//!   `rvdyn-bench --bin service` replay harness.
//!
//! The cache key also folds in the semantic parse options
//! ([`ParseOptions::parse_gaps`] and the instruction budget — *not* the
//! thread count, which never changes the parse result), so requests
//! with different analysis policies never alias.

use crate::error::Error;
use rvdyn_dataflow::Liveness;
use rvdyn_parse::worklist::fan_out;
use rvdyn_parse::{loop_depths, CodeObject, ParseEvent, ParseOptions};
use rvdyn_symtab::elf::SHT_NOBITS;
use rvdyn_symtab::Binary;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), hand-rolled: the workspace carries no external
// dependencies, and a content-addressed cache needs a real collision-
// resistant digest, not a 64-bit mixer. The block compression runs on
// the x86 SHA extensions when the CPU has them and on the portable
// rounds below otherwise; both produce the same digest.
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256, fed by the canonical-content serialiser. Small
/// fields collect in the 64-byte block buffer; long inputs are
/// compressed in place, all full blocks of one `update` in one call.
struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
    /// Compress on the SHA extensions. Only [`Sha256::hardware`] sets
    /// it, after checking the CPU: the unsafe call in
    /// [`Sha256::compress`] relies on that.
    hw: bool,
}

impl Sha256 {
    /// The fastest engine this CPU supports.
    fn new() -> Sha256 {
        Self::hardware().unwrap_or_else(Self::portable)
    }

    /// The portable engine, on every CPU.
    fn portable() -> Sha256 {
        Sha256 {
            state: SHA256_H0,
            buf: [0; 64],
            buf_len: 0,
            total: 0,
            hw: false,
        }
    }

    /// The SHA-extension engine, when the CPU has the extensions.
    fn hardware() -> Option<Sha256> {
        shani::detected().then(|| Sha256 {
            hw: true,
            ..Self::portable()
        })
    }

    /// Compress `blocks` (a whole number of 64-byte blocks) into `state`.
    fn compress(hw: bool, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        if hw {
            // SAFETY: `hw` is true only on a hasher built by
            // `Sha256::hardware`, which checked at run time that the CPU
            // has every feature `shani::compress_blocks` enables.
            unsafe { shani::compress_blocks(state, blocks) };
        } else {
            compress_portable(state, blocks);
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            Self::compress(self.hw, &mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let full = data.len() - data.len() % 64;
        if full > 0 {
            Self::compress(self.hw, &mut self.state, &data[..full]);
        }
        let tail = &data[full..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        // 0x80, zeros up to 56 mod 64, then the 64-bit message length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let zeros_end = if self.buf_len < 56 { 56 } else { 120 } - self.buf_len;
        pad[zeros_end..zeros_end + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..zeros_end + 8]);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 32];
        for (c, s) in out.chunks_exact_mut(4).zip(self.state) {
            c.copy_from_slice(&s.to_be_bytes());
        }
        out
    }

    /// Length-prefixed field, so adjacent variable-length fields can
    /// never alias each other's boundaries.
    fn field(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }
}

/// The FIPS 180-4 rounds in portable Rust: the engine on CPUs without
/// SHA extensions, and the reference the hardware engine is tested
/// against.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 block compression on the x86 SHA extensions (SHA-NI): four
/// rounds per pair of `sha256rnds2`, message schedule by `sha256msg1` /
/// `sha256msg2`.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::SHA256_K;
    use std::arch::x86_64::*;

    /// Does this CPU have every feature [`compress_blocks`] enables?
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compress `blocks` (a whole number of 64-byte blocks) into
    /// `state`, loading and storing the state once for all of them.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `ssse3` and `sse4.1` features
    /// ([`detected`] returned `true`).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order: each 32-bit message word is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203);
        // SAFETY: `state` is 8 readable `u32`s; `_mm_loadu_si128` has no
        // alignment requirement.
        let (abcd, efgh) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        // The round instructions take the state as ABEF / CDGH.
        let cdab = _mm_shuffle_epi32(abcd, 0xB1);
        let efgh = _mm_shuffle_epi32(efgh, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 bytes, so the four 16-byte loads at
            // offsets 0, 16, 32 and 48 are in bounds; unaligned loads.
            let [mut w0, mut w1, mut w2, mut w3] = unsafe {
                let p = block.as_ptr();
                [
                    _mm_loadu_si128(p.cast()),
                    _mm_loadu_si128(p.add(16).cast()),
                    _mm_loadu_si128(p.add(32).cast()),
                    _mm_loadu_si128(p.add(48).cast()),
                ]
            };
            w0 = _mm_shuffle_epi8(w0, bswap);
            w1 = _mm_shuffle_epi8(w1, bswap);
            w2 = _mm_shuffle_epi8(w2, bswap);
            w3 = _mm_shuffle_epi8(w3, bswap);
            // Sixteen groups of four rounds; `w0` holds the message words
            // of the current group, `w1..w3` the next three. The last four
            // groups' schedule words go unused.
            for i in 0..16 {
                // SAFETY: `SHA256_K` has 64 entries, so entries 4·i..4·i+4
                // for i < 16 are in bounds; unaligned load.
                let k = unsafe { _mm_loadu_si128(SHA256_K.as_ptr().add(4 * i).cast()) };
                let msg = _mm_add_epi32(w0, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
                let w7 = _mm_alignr_epi8(w3, w2, 4);
                let next =
                    _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), w7), w3);
                (w0, w1, w2, w3) = (w1, w2, w3, next);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let abcd = _mm_blend_epi16(feba, dchg, 0xF0);
        let efgh = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 8 writable `u32`s; `_mm_storeu_si128` has no
        // alignment requirement.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), efgh);
        }
    }
}

/// Stand-in on CPUs without the x86 SHA extensions: never detected, so
/// the portable rounds always run.
#[cfg(not(target_arch = "x86_64"))]
mod shani {
    pub(super) fn detected() -> bool {
        false
    }

    /// # Safety
    ///
    /// Never callable: [`detected`] is always `false`.
    pub(super) unsafe fn compress_blocks(_state: &mut [u32; 8], _blocks: &[u8]) {
        unreachable!("no SHA extensions on this architecture")
    }
}

// ---------------------------------------------------------------------------
// AnalysisKey
// ---------------------------------------------------------------------------

/// Content address of one binary's analysis: a SHA-256 over the loaded
/// semantic content (see [`AnalysisKey::of`]). Two ELF files that load
/// identically — regardless of file padding, section names or
/// section-header order — share a key; any change to loaded bytes,
/// symbols, the entry point or the ISA profile produces a new one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnalysisKey(pub [u8; 32]);

impl AnalysisKey {
    /// Compute the content key of a binary model under the given parse
    /// options.
    ///
    /// Hashed (each field length-prefixed): a schema tag; entry point,
    /// `e_flags`, `e_type`; the `.riscv.attributes` arch string (the
    /// profile source); the *semantic* parse options (`parse_gaps`,
    /// instruction budget — not the worker-thread count, which never
    /// changes a parse result); every allocatable section ordered by
    /// address as `(sh_type, flags, addr, data)`; every symbol ordered
    /// by `(value, size, name)` with its kind and binding.
    ///
    /// A `SHT_NOBITS` section whose bytes are all zero (a `.bss` as
    /// [`Binary::parse`] models it) is hashed by its length alone, as
    /// `(sh_type, flags, addr, 0, len)`; one holding any non-zero byte
    /// is hashed as `(sh_type, flags, addr, 1, data)`. Either way every
    /// loaded byte stays covered.
    ///
    /// Deliberately *not* hashed: section names, section order and
    /// alignment, non-allocatable payload, and file-layout padding —
    /// none of which a loaded mutatee can observe.
    pub fn of(binary: &Binary, parse: &ParseOptions) -> AnalysisKey {
        let mut h = Sha256::new();
        h.field(b"rvdyn-analysis-key-v2");
        h.update(&binary.entry.to_le_bytes());
        h.update(&binary.e_flags.to_le_bytes());
        h.update(&binary.e_type.to_le_bytes());
        let arch = binary
            .attributes
            .as_ref()
            .and_then(|a| a.arch.clone())
            .unwrap_or_default();
        h.field(arch.as_bytes());
        h.update(&[parse.parse_gaps as u8]);
        h.update(&(parse.max_insts_per_function as u64).to_le_bytes());

        let mut alloc: Vec<&rvdyn_symtab::Section> = binary
            .sections
            .iter()
            .filter(|s| s.flags & rvdyn_symtab::SHF_ALLOC != 0)
            .collect();
        alloc.sort_by_key(|s| s.addr);
        h.update(&(alloc.len() as u64).to_le_bytes());
        for s in alloc {
            h.update(&s.sh_type.to_le_bytes());
            h.update(&s.flags.to_le_bytes());
            h.update(&s.addr.to_le_bytes());
            if s.sh_type != SHT_NOBITS {
                h.field(&s.data);
            } else if all_zero(&s.data) {
                h.update(&[0]);
                h.update(&(s.data.len() as u64).to_le_bytes());
            } else {
                h.update(&[1]);
                h.field(&s.data);
            }
        }

        let mut syms: Vec<&rvdyn_symtab::Symbol> = binary.symbols.iter().collect();
        syms.sort_by(|a, b| (a.value, a.size, &a.name).cmp(&(b.value, b.size, &b.name)));
        h.update(&(syms.len() as u64).to_le_bytes());
        for s in syms {
            h.update(&s.value.to_le_bytes());
            h.update(&s.size.to_le_bytes());
            h.update(&[s.kind as u8, s.binding as u8]);
            h.field(s.name.as_bytes());
        }
        AnalysisKey(h.finish())
    }

    /// Lowercase hex rendering of the full 256-bit key.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// The leading 8 bytes as an integer — the short form carried by
    /// telemetry events and log lines.
    pub fn prefix(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().unwrap())
    }
}

/// Is every byte zero? Tests 64 bytes per step as eight OR-ed words,
/// so a large `.bss` costs a memory scan, not a byte loop.
fn all_zero(bytes: &[u8]) -> bool {
    let mut blocks = bytes.chunks_exact(64);
    blocks.by_ref().all(|b| {
        b.chunks_exact(8).fold(0, |acc, w| {
            acc | u64::from_ne_bytes(w.try_into().expect("8-byte word"))
        }) == 0
    }) && blocks.remainder().iter().all(|&b| b == 0)
}

impl fmt::Debug for AnalysisKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnalysisKey({:016x}…)", self.prefix())
    }
}

impl fmt::Display for AnalysisKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Wall-clock attribution for one front-half computation, kept on the
/// artifact so a cold session can report where its time went and a warm
/// session can prove it spent none.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalysisTimings {
    /// Nanoseconds modelling the ELF (`Binary::parse`).
    pub open_ns: u64,
    /// Nanoseconds building the CFG plus loop depths and liveness.
    pub parse_ns: u64,
}

/// The complete immutable front half of the pipeline for one binary:
/// everything instrumentation needs that depends only on the binary's
/// content. Construct with [`Analysis::compute`] (or through an
/// [`AnalysisCache`]) and share behind an `Arc` — every
/// [`Session::from_analysis`](crate::Session::from_analysis) against the
/// same artifact skips the parse, loop and liveness work entirely, from
/// any number of threads at once.
pub struct Analysis {
    key: AnalysisKey,
    binary: Binary,
    code: CodeObject,
    /// Natural-loop nesting depth per block, per function entry.
    loop_depths: BTreeMap<u64, BTreeMap<u64, usize>>,
    /// Liveness solution per function entry.
    liveness: BTreeMap<u64, Liveness>,
    timings: AnalysisTimings,
}

// The whole point of the artifact is cross-thread sharing; fail the
// build, not the deployment, if a field ever stops being shareable.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Analysis>();
};

impl Analysis {
    /// Model an ELF image and compute its full front-half analysis.
    pub fn compute(elf: &[u8], parse: &ParseOptions) -> Result<Arc<Analysis>, Error> {
        Self::compute_observed(elf, parse, &mut |_| {})
    }

    /// As [`Analysis::compute`], reporting parse milestones to
    /// `observer` (the facade's telemetry adapter).
    pub fn compute_observed(
        elf: &[u8],
        parse: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
    ) -> Result<Arc<Analysis>, Error> {
        let open_start = std::time::Instant::now();
        let binary = Binary::parse(elf)?;
        let open_ns = (open_start.elapsed().as_nanos() as u64).max(1);
        Ok(Self::of_binary_observed(binary, parse, observer, open_ns))
    }

    /// Analyze an in-memory binary model (no `open` stage).
    pub fn of_binary(binary: Binary, parse: &ParseOptions) -> Arc<Analysis> {
        Self::of_binary_observed(binary, parse, &mut |_| {}, 0)
    }

    /// As [`Analysis::of_binary`] with a parse observer and a
    /// caller-measured `open` duration to carry on the artifact.
    pub fn of_binary_observed(
        binary: Binary,
        parse: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
        open_ns: u64,
    ) -> Arc<Analysis> {
        let key = AnalysisKey::of(&binary, parse);
        Self::of_keyed_binary(key, binary, parse, observer, open_ns)
    }

    /// As [`Analysis::of_binary_observed`] for a caller that already
    /// holds `key`, which must be `AnalysisKey::of(&binary, parse)`: a
    /// cache miss hashes the binary once, not twice.
    pub(crate) fn of_keyed_binary(
        key: AnalysisKey,
        binary: Binary,
        parse: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
        open_ns: u64,
    ) -> Arc<Analysis> {
        let parse_start = std::time::Instant::now();
        let code = CodeObject::parse_with_observer(&binary, parse, observer);

        // Loop depths + liveness per function. Independent across
        // functions, so fan out like the parser and the instrumenter's
        // plan phase; the results land in BTreeMaps keyed by entry, so
        // the artifact is identical for every worker count.
        let nworkers = parse.threads.max(1).min(code.functions.len().max(1));
        let per_fn = fan_out(code.functions.keys().copied(), nworkers, |batch, _| {
            batch
                .iter()
                .map(|fe| {
                    let f = &code.functions[fe];
                    (loop_depths(f), Liveness::analyze(f))
                })
                .collect()
        });
        let mut loop_depths_map = BTreeMap::new();
        let mut liveness_map = BTreeMap::new();
        for (fe, (d, lv)) in per_fn {
            loop_depths_map.insert(fe, d);
            liveness_map.insert(fe, lv);
        }
        let parse_ns = (parse_start.elapsed().as_nanos() as u64).max(1);

        Arc::new(Analysis {
            key,
            binary,
            code,
            loop_depths: loop_depths_map,
            liveness: liveness_map,
            timings: AnalysisTimings { open_ns, parse_ns },
        })
    }

    /// The content address of this analysis.
    pub fn key(&self) -> AnalysisKey {
        self.key
    }

    /// The modelled binary.
    pub fn binary(&self) -> &Binary {
        &self.binary
    }

    /// The parsed CFG.
    pub fn code(&self) -> &CodeObject {
        &self.code
    }

    /// Natural-loop nesting depths for the function at `entry`.
    pub fn loop_depths(&self, entry: u64) -> Option<&BTreeMap<u64, usize>> {
        self.loop_depths.get(&entry)
    }

    /// The liveness solution for the function at `entry`.
    pub fn liveness(&self, entry: u64) -> Option<&Liveness> {
        self.liveness.get(&entry)
    }

    /// The full per-function liveness table (the instrumenter's
    /// precomputed-analysis input).
    pub fn liveness_table(&self) -> &BTreeMap<u64, Liveness> {
        &self.liveness
    }

    /// What the front half cost to compute, in wall-clock nanoseconds.
    pub fn timings(&self) -> AnalysisTimings {
        self.timings
    }
}

impl fmt::Debug for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analysis")
            .field("key", &self.key)
            .field("functions", &self.code.functions.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// AnalysisCache
// ---------------------------------------------------------------------------

/// Point-in-time counters of one [`AnalysisCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute a fresh analysis.
    pub misses: u64,
    /// Entries dropped to enforce the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// The capacity bound.
    pub capacity: usize,
}

/// Outcome of one [`AnalysisCache::analyze`] request.
pub struct CacheOutcome {
    /// The (possibly shared) analysis artifact.
    pub analysis: Arc<Analysis>,
    /// Whether the artifact came from the cache.
    pub hit: bool,
    /// Entries evicted while inserting this artifact (0 on a hit).
    pub evicted: u64,
}

struct CacheEntry {
    analysis: Arc<Analysis>,
    last_used: u64,
}

struct CacheInner {
    entries: HashMap<AnalysisKey, CacheEntry>,
    tick: u64,
}

/// A bounded, thread-safe, least-recently-used map from
/// [`AnalysisKey`] to `Arc<Analysis>`: the shared front-half store a
/// long-running instrumentation service keeps between requests.
///
/// Capacity is counted in entries (distinct binaries), not bytes —
/// analyses for the same workload are of similar size, and an entry
/// count is what the replay benchmarks and tests reason about. A
/// capacity of 0 disables retention entirely (every request misses).
///
/// Misses compute *outside* the lock, so concurrent sessions analysing
/// different binaries do not serialise; if two threads race to fill the
/// same key, both compute and the artifacts are interchangeable (the
/// analysis is a pure function of the key's content).
pub struct AnalysisCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl AnalysisCache {
    /// An empty cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Arc<AnalysisCache> {
        Arc::new(AnalysisCache {
            capacity,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Model `elf` and return its analysis, from the cache when the
    /// content key is resident, computing and inserting it otherwise.
    pub fn analyze(&self, elf: &[u8], parse: &ParseOptions) -> Result<CacheOutcome, Error> {
        self.analyze_observed(elf, parse, &mut |_| {})
    }

    /// As [`AnalysisCache::analyze`], reporting parse milestones of a
    /// miss's computation to `observer` (hits emit nothing — no parse
    /// happens).
    pub fn analyze_observed(
        &self,
        elf: &[u8],
        parse: &ParseOptions,
        observer: &mut dyn FnMut(ParseEvent),
    ) -> Result<CacheOutcome, Error> {
        let binary = Binary::parse(elf)?;
        let key = AnalysisKey::of(&binary, parse);
        if let Some(analysis) = self.get(key) {
            return Ok(CacheOutcome {
                analysis,
                hit: true,
                evicted: 0,
            });
        }
        let analysis = Analysis::of_keyed_binary(key, binary, parse, observer, 0);
        let evicted = self.insert(analysis.clone());
        Ok(CacheOutcome {
            analysis,
            hit: false,
            evicted,
        })
    }

    /// Look `key` up, refreshing its recency on a hit. Counts a hit or
    /// a miss either way.
    pub fn get(&self, key: AnalysisKey) -> Option<Arc<Analysis>> {
        let mut inner = self.inner.lock().expect("analysis cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.analysis.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `analysis` under its own key, evicting
    /// least-recently-used entries to stay within capacity. Returns how
    /// many entries were evicted.
    ///
    /// Evicted analyses are freed after the lock is released: dropping
    /// the last reference to a large artifact takes long enough to
    /// stall every concurrent [`AnalysisCache::get`].
    pub fn insert(&self, analysis: Arc<Analysis>) -> u64 {
        let key = analysis.key();
        // Entries leaving the map; freed when this function returns,
        // after the guard is gone.
        let mut released: Vec<CacheEntry> = Vec::new();
        let evicted = {
            let mut inner = self.inner.lock().expect("analysis cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            released.extend(inner.entries.insert(
                key,
                CacheEntry {
                    analysis,
                    last_used: tick,
                },
            ));
            let refreshed = released.len();
            while inner.entries.len() > self.capacity {
                let lru = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("nonempty over-capacity cache has an LRU entry");
                released.extend(inner.entries.remove(&lru));
            }
            (released.len() - refreshed) as u64
        };
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        evicted
    }

    /// Is `key` resident? Does not touch recency or the counters.
    pub fn contains(&self, key: AnalysisKey) -> bool {
        self.inner
            .lock()
            .expect("analysis cache poisoned")
            .entries
            .contains_key(&key)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("analysis cache poisoned")
            .entries
            .len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound (entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `msg` fed to `h` in pieces of the lengths in `cuts`, repeated,
    /// with an empty update between pieces.
    fn digest_in_pieces(mut h: Sha256, msg: &[u8], cuts: &[usize]) -> [u8; 32] {
        let mut rest = msg;
        for &cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (piece, tail) = rest.split_at(cut.clamp(1, rest.len()));
            h.update(piece);
            h.update(&[]);
            rest = tail;
        }
        h.finish()
    }

    /// A named constructor of fresh hashers on one engine.
    type Engine = (&'static str, fn() -> Sha256);

    /// Both engines this CPU can run: portable always, hardware when
    /// the SHA extensions are present.
    fn engines() -> Vec<Engine> {
        let mut engines: Vec<Engine> = vec![("portable", Sha256::portable)];
        if Sha256::hardware().is_some() {
            engines.push(("hardware", || Sha256::hardware().expect("detected above")));
        } else {
            eprintln!("note: no x86 SHA extensions on this CPU; hardware engine not tested");
        }
        engines
    }

    /// FIPS 180-4 test vectors pin the digest, through every engine,
    /// fed whole and in uneven pieces.
    #[test]
    fn sha256_known_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (engine, new) in engines() {
            for (msg, want) in vectors {
                let mut h = new();
                h.update(msg);
                assert_eq!(hex(h.finish()), want, "{engine}, whole");
                let pieces = hex(digest_in_pieces(new(), msg, &[7, 64, 1, 129]));
                assert_eq!(pieces, want, "{engine}, in pieces");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random messages in random pieces digest the same on the
        /// hardware engine as on the portable one, fed whole.
        #[test]
        fn engines_agree_on_random_messages(
            msg in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(1usize..300, 1..16),
        ) {
            let mut whole = Sha256::portable();
            whole.update(&msg);
            let want = whole.finish();
            for (engine, new) in engines() {
                proptest::prop_assert_eq!(
                    digest_in_pieces(new(), &msg, &cuts),
                    want,
                    "{} engine, cuts {:?}",
                    engine,
                    &cuts
                );
            }
        }
    }

    #[test]
    fn zero_fill_is_keyed_by_length_and_content() {
        let opts = ParseOptions::default();
        let with_bss = |data: Vec<u8>, sh_type: u32| {
            let mut bin = rvdyn_asm::matmul_program(6, 2);
            bin.sections.push(rvdyn_symtab::Section {
                sh_type,
                ..rvdyn_symtab::Section::progbits(
                    ".extra",
                    0x7_0000,
                    rvdyn_symtab::SHF_ALLOC | rvdyn_symtab::SHF_WRITE,
                    data,
                )
            });
            AnalysisKey::of(&bin, &opts)
        };
        let zeros = with_bss(vec![0; 4096], SHT_NOBITS);
        assert_eq!(zeros, with_bss(vec![0; 4096], SHT_NOBITS), "deterministic");
        assert_ne!(
            zeros,
            with_bss(vec![0; 4097], SHT_NOBITS),
            "length L vs L+1"
        );
        let mut dirty = vec![0; 4096];
        dirty[4095] = 1;
        assert_ne!(zeros, with_bss(dirty, SHT_NOBITS), "non-zero NOBITS");
        assert_ne!(
            zeros,
            with_bss(vec![0; 4096], rvdyn_symtab::elf::SHT_PROGBITS),
            "zero PROGBITS"
        );
    }

    #[test]
    fn all_zero_checks_every_byte() {
        assert!(all_zero(&[]));
        for len in [1, 63, 64, 65, 200] {
            assert!(all_zero(&vec![0; len]));
            for at in [0, len / 2, len - 1] {
                let mut v = vec![0; len];
                v[at] = 0x80;
                assert!(!all_zero(&v), "len {len}, byte {at}");
            }
        }
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let opts = ParseOptions::default();
        let a = rvdyn_asm::matmul_program(6, 2);
        let k1 = AnalysisKey::of(&a, &opts);
        let k2 = AnalysisKey::of(&a, &opts);
        assert_eq!(k1, k2, "keying is deterministic");
        assert_eq!(k1.to_hex().len(), 64);

        let b = rvdyn_asm::matmul_program(7, 2);
        assert_ne!(k1, AnalysisKey::of(&b, &opts), "different content");

        // Thread count is not semantic; gap parsing is.
        let threads = ParseOptions {
            threads: 8,
            ..ParseOptions::default()
        };
        assert_eq!(k1, AnalysisKey::of(&a, &threads));
        let gaps = ParseOptions {
            parse_gaps: true,
            ..ParseOptions::default()
        };
        assert_ne!(k1, AnalysisKey::of(&a, &gaps));
    }

    #[test]
    fn cache_hits_and_counts() {
        let cache = AnalysisCache::new(4);
        let elf = rvdyn_asm::fib_program(5).to_bytes().unwrap();
        let opts = ParseOptions::default();
        let cold = cache.analyze(&elf, &opts).unwrap();
        assert!(!cold.hit);
        let warm = cache.analyze(&elf, &opts).unwrap();
        assert!(warm.hit);
        assert!(Arc::ptr_eq(&cold.analysis, &warm.analysis), "shared Arc");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (1, 1, 0, 1));
    }

    #[test]
    fn zero_capacity_cache_never_retains() {
        let cache = AnalysisCache::new(0);
        let elf = rvdyn_asm::fib_program(4).to_bytes().unwrap();
        let opts = ParseOptions::default();
        assert!(!cache.analyze(&elf, &opts).unwrap().hit);
        assert!(!cache.analyze(&elf, &opts).unwrap().hit);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn analysis_precomputes_per_function_artifacts() {
        let elf = rvdyn_asm::matmul_program(5, 1).to_bytes().unwrap();
        let analysis = Analysis::compute(&elf, &ParseOptions::default()).unwrap();
        assert!(analysis.timings().open_ns > 0);
        assert!(analysis.timings().parse_ns > 0);
        for (&fe, f) in &analysis.code().functions {
            let depths = analysis.loop_depths(fe).expect("depths precomputed");
            assert_eq!(depths.len(), f.blocks.len());
            assert!(analysis.liveness(fe).is_some(), "liveness precomputed");
        }
    }

    #[test]
    fn parallel_and_sequential_analysis_agree() {
        fn agree(bin: Binary, parse_gaps: bool) {
            let opts = |threads| ParseOptions {
                threads,
                parse_gaps,
                ..ParseOptions::default()
            };
            let seq = Analysis::of_binary(bin.clone(), &opts(1));
            let par = Analysis::of_binary(bin, &opts(4));
            assert_eq!(seq.key(), par.key());
            assert_eq!(seq.loop_depths, par.loop_depths);
            assert_eq!(
                seq.code().functions.keys().collect::<Vec<_>>(),
                par.code().functions.keys().collect::<Vec<_>>()
            );
            assert_eq!(
                seq.liveness_table().keys().collect::<Vec<_>>(),
                par.liveness_table().keys().collect::<Vec<_>>()
            );
            for (fe, f) in &seq.code().functions {
                let (s, p) = (&seq.liveness[fe], &par.liveness[fe]);
                for &b in f.blocks.keys() {
                    assert_eq!(s.live_in(b), p.live_in(b), "live_in {fe:#x}/{b:#x}");
                    assert_eq!(s.live_out(b), p.live_out(b), "live_out {fe:#x}/{b:#x}");
                }
            }
        }
        let bin = rvdyn_asm::many_functions_program(23);
        let mut stripped = bin.clone();
        stripped.strip();
        agree(bin, false);
        agree(stripped, true);
    }
}

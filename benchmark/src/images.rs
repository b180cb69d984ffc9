//! Seeded mutatee images. Everything a workload sends is generated here
//! from its seed, so the same seed gives byte-identical images.

use crate::rng::Rng;
use rvdyn_symtab::{Binary, Symbol, SymbolBinding, SymbolKind, SHF_ALLOC, SHF_WRITE};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    /// `many_functions_program(n)`: a call chain of `n` small functions.
    ManyFunctions,
    /// `nested_call_program(frames, fp)`: seeded frames, ends in the
    /// leaf's `ebreak` with every frame live.
    NestedCall,
    /// A small `matmul_program(n, reps)`.
    Matmul,
    /// `matmul_program(100, 1)`: 240 KB of arrays in its data sections,
    /// the image whose content key dominates its front half.
    MatmulData,
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One counter at the entry of the target function.
    Entry,
    /// `count_blocks` on the target function, every-block placement.
    Every,
    /// `count_blocks` on the target function, optimal placement.
    Optimal,
    /// `MemTracer::plan_editor` over every load and store.
    MemTrace,
}

pub const KINDS: [Kind; 4] = [Kind::Entry, Kind::Every, Kind::Optimal, Kind::MemTrace];

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Entry => "entry",
            Kind::Every => "blocks-every",
            Kind::Optimal => "blocks-optimal",
            Kind::MemTrace => "memtrace",
        }
    }
}

#[derive(Clone)]
pub struct Image {
    pub family: Family,
    pub label: String,
    pub elf: Vec<u8>,
    /// Symbols removed; opened with gap parsing on.
    pub stripped: bool,
    /// Functions a request may target. Empty when stripped: those
    /// requests pick a parsed function by position instead.
    pub names: Vec<String>,
}

impl Image {
    /// Serialise `bin`, stripped first if `strip`, then tagged with
    /// `tag` (see [`tag`]).
    fn build(
        family: Family,
        label: String,
        mut bin: Binary,
        names: Vec<String>,
        strip: bool,
        tag: Option<(u64, u64)>,
    ) -> Image {
        if strip {
            bin.strip();
        }
        if let Some((stream, id)) = tag {
            self::tag(&mut bin, stream, id);
        }
        Image {
            family,
            label: if strip {
                format!("{label} stripped")
            } else {
                label
            },
            elf: bin.to_bytes().expect("generated images serialise"),
            stripped: strip,
            names: if strip { Vec::new() } else { names },
        }
    }

    /// Whether a request of `kind` applies to this image.
    /// `count_blocks` takes a function name, so stripped images get no
    /// block-count requests. The tracer's check drains a run that exits,
    /// so nested-call images (which stop at their `ebreak`) get no
    /// tracer, and the data-heavy matmul gets none because its 2M
    /// accesses would overflow the ring.
    pub fn supports(&self, kind: Kind) -> bool {
        match kind {
            Kind::Entry => true,
            Kind::Every | Kind::Optimal => !self.stripped,
            Kind::MemTrace => matches!(self.family, Family::ManyFunctions | Family::Matmul),
        }
    }

    /// Matmul writes its own modelled elapsed time to `.data` and
    /// stdout, which instrumentation legitimately changes.
    pub fn time_dependent_output(&self) -> bool {
        matches!(self.family, Family::Matmul | Family::MatmulData)
    }
}

fn many_functions(n: u64) -> (Binary, Vec<String>, String) {
    let names = (0..n).map(|i| format!("f_{i}")).collect();
    (
        rvdyn_asm::many_functions_program(n as usize),
        names,
        format!("many_functions({n})"),
    )
}

fn nested_call(rng: &mut Rng, depth: u64) -> (Binary, Vec<String>, String) {
    let frames: Vec<u16> = (0..depth).map(|_| rng.below(1 << 16) as u16).collect();
    let fp = rng.below(2) == 1;
    let names = (0..depth).map(|i| format!("g_{i}")).collect();
    (
        rvdyn_asm::nested_call_program(&frames, fp),
        names,
        format!("nested_call(depth {depth}, fp {fp})"),
    )
}

fn matmul(n: u64, reps: u64) -> (Binary, Vec<String>, String) {
    (
        rvdyn_asm::matmul_program(n as usize, reps as usize),
        vec!["matmul".into()],
        format!("matmul({n}, {reps})"),
    )
}

/// Give `bin` an object symbol unique within the run. Requests may draw
/// the same generator parameters twice; the symbol table is part of the
/// analysis content key, so no two images of a run share a key even
/// then, and every `rewrite-cold` request pays the whole front half.
fn tag(bin: &mut Binary, stream: u64, id: u64) {
    let addr = bin
        .sections
        .iter()
        .find(|s| s.flags & SHF_ALLOC != 0 && s.flags & SHF_WRITE != 0)
        .map_or(bin.entry, |s| s.addr);
    bin.symbols.push(Symbol {
        name: format!("bench_image_{stream}_{id}"),
        value: addr,
        size: 0,
        kind: SymbolKind::Object,
        binding: SymbolBinding::Global,
    });
}

/// The `rewrite-cold` image stream: an endless seeded mix in which no
/// image repeats.
///
/// The mix is stratified so that every seed sends nearly the same
/// distribution of work: each block of 20 images holds exactly 7
/// `many_functions`, 5 `nested_call`, 5 small matmuls and 3 data-heavy
/// matmuls in a seeded order, and strips one of them, taking the three
/// other families in turn. Sizes walk seeded golden-ratio sequences (one
/// per family and stripping), which cover their range evenly within any
/// window of requests.
pub struct ColdStream {
    rng: Rng,
    stream: u64,
    next_id: u64,
    blocks: u64,
    block: Vec<(Family, bool)>,
    /// Golden-ratio walkers: `many_functions` size and nested-call
    /// depth, unstripped and stripped.
    walkers: [f64; 4],
}

const GOLDEN: f64 = 0.618_033_988_749_894_9;

/// Images per block of the `rewrite-cold` mix.
pub const BLOCK: usize = 20;

impl ColdStream {
    /// The stream a run's timed requests draw from.
    pub fn new(seed: u64) -> ColdStream {
        ColdStream::with_stream(seed, 1)
    }

    /// An independent stream of the same mix; images of different
    /// streams never coincide.
    pub fn with_stream(seed: u64, stream: u64) -> ColdStream {
        let mut rng = Rng::derive(seed, stream);
        let walkers = [rng.unit(), rng.unit(), rng.unit(), rng.unit()];
        ColdStream {
            rng,
            stream,
            next_id: 0,
            blocks: 0,
            block: Vec::new(),
            walkers,
        }
    }

    fn refill(&mut self) {
        let mut block = Vec::with_capacity(BLOCK);
        for (family, count) in [
            (Family::ManyFunctions, 7),
            (Family::NestedCall, 5),
            (Family::Matmul, 5),
            (Family::MatmulData, 3),
        ] {
            block.extend(std::iter::repeat_n((family, false), count));
        }
        // The data-heavy matmul is never stripped, so its sampled check
        // stays one run of one multiply.
        let stripped =
            [Family::ManyFunctions, Family::NestedCall, Family::Matmul][(self.blocks % 3) as usize];
        let i = block
            .iter()
            .position(|b| b.0 == stripped)
            .expect("in every block");
        block[i].1 = true;
        self.blocks += 1;
        self.rng.shuffle(&mut block);
        self.block = block;
    }

    fn walk(&mut self, i: usize) -> f64 {
        self.walkers[i] = (self.walkers[i] + GOLDEN).fract();
        self.walkers[i]
    }

    pub fn next_image(&mut self) -> Image {
        if self.block.is_empty() {
            self.refill();
        }
        let (family, strip) = self.block.pop().expect("refilled");
        let (bin, names, label) = match family {
            Family::ManyFunctions => {
                // Log-uniform over 32..=2048 functions.
                let u = self.walk(usize::from(strip));
                many_functions(((32.0 * 64f64.powf(u)).round() as u64).clamp(32, 2048))
            }
            Family::NestedCall => {
                let depth = 2 + (self.walk(2 + usize::from(strip)) * 63.0) as u64;
                nested_call(&mut self.rng, depth)
            }
            Family::Matmul => {
                let (n, reps) = (self.rng.range(4, 24), self.rng.range(1, 4));
                matmul(n, reps)
            }
            Family::MatmulData => matmul(100, 1),
        };
        self.next_id += 1;
        Image::build(
            family,
            label,
            bin,
            names,
            strip,
            Some((self.stream, self.next_id)),
        )
    }
}

/// The fixed `rewrite-warm` image set: one image per family plus one
/// stripped image. The seed varies the nested-call frames and nudges
/// sizes within a few percent, so every seed replays about the same
/// amount of work.
pub fn warm_set(seed: u64) -> Vec<Image> {
    let mut rng = Rng::derive(seed, 2);
    // At most 512 functions: the tracer's patch text for a larger image
    // outgrows the default layout's 256 KB patch-text window (see
    // README.md, "Known defect").
    let (b, n, l) = many_functions(rng.range(504, 512));
    let mf = Image::build(Family::ManyFunctions, l, b, n, false, None);
    let depth = rng.range(46, 48);
    let (b, n, l) = nested_call(&mut rng, depth);
    let nc = Image::build(Family::NestedCall, l, b, n, false, None);
    // Small enough that a full trace fits the tracer's ring.
    let (b, n, l) = matmul(12, 1);
    let mm = Image::build(Family::Matmul, l, b, n, false, None);
    let (b, n, l) = matmul(100, 1);
    let mmd = Image::build(Family::MatmulData, l, b, n, false, None);
    let (b, n, l) = many_functions(rng.range(124, 128));
    let stripped = Image::build(Family::ManyFunctions, l, b, n, true, None);
    vec![mf, nc, mm, mmd, stripped]
}

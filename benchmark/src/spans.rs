//! The traced run's span recorder. Spans are opened and closed by the
//! benchmark around its calls into each layer's public API, kept in
//! memory, folded into per-layer numbers and written out as one Chrome
//! trace-event file when the run ends.
//!
//! A span's name is `<layer>.<call>`; the layer is the part before the
//! first dot. A request's root span is named `request`; `check` and
//! `split` roots hold the untimed correctness runs and the front-half
//! split (see `rewrite.rs`). When the recorder is off, `begin` returns
//! `None` without reading the clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or check) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Spans {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tag the spans that follow with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.t0.elapsed().as_nanos() as u64;
            debug_assert_eq!(self.open.last(), Some(&id), "spans must nest");
            self.open.pop();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Write every span as a Chrome trace-event file (open it in
    /// `chrome://tracing` or Perfetto).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"request\":{}}}}}{}",
                s.name,
                s.layer(),
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.request,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Per-layer numbers folded from one traced phase.
#[derive(Debug, Default)]
pub struct Summary {
    /// Per span name: (calls, total nanoseconds).
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Per layer: total self time (duration minus the time its child
    /// spans cover), over every span of that layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Per `request` root: (wall time, time no child span covers).
    pub requests: Vec<(u64, u64)>,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        // Spans are recorded by one thread and nest strictly, so the
        // children of a span never overlap and their union is their sum.
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        let mut out = Summary::default();
        for (s, cov) in spans.iter().zip(&covered) {
            let e = out.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur();
            let own = s.dur().saturating_sub(*cov);
            *out.self_ns.entry(s.layer()).or_default() += own;
            if s.name == "request" {
                out.requests.push((s.dur(), own));
            }
        }
        out
    }

    /// Mean nanoseconds per call of span `name` (0 if never called).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(n, t)| crate::stats::ratio(t as f64, n as f64))
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_uncovered_is_the_root_remainder() {
        let mk = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            request: 0,
        };
        let spans = vec![
            mk("request", 0, 100, None),
            mk("symtab.parse", 10, 30, Some(0)),
            mk("patch.apply", 40, 90, Some(0)),
            mk("emu.run", 50, 60, Some(2)),
        ];
        let s = Summary::of(&spans);
        assert_eq!(s.requests, vec![(100, 30)]);
        assert_eq!(s.self_ns["patch"], 40);
        assert_eq!(s.self_ns["emu"], 10);
        assert_eq!(s.self_ns["symtab"], 20);
        assert_eq!(s.mean_ns("patch.apply"), 50.0);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut r = Spans::new(false);
        let v = r.time("emu.run", || 7);
        assert_eq!(v, 7);
        assert!(r.spans().is_empty());
    }
}

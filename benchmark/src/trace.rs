//! Spans recorded by the benchmark around its calls into the program.
//!
//! Every timed call goes through [`Tracer::begin`]/[`Tracer::end`], traced or
//! not, so the two kinds of run time the same code; an untraced run just
//! keeps no span. Spans stay in memory and are written once, at exit, in the
//! Chrome trace-event format (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Finished tracers of other threads, written out with this one.
    others: Vec<Tracer>,
}

/// A begun span. `idx` is `None` in an untraced run.
pub struct Open {
    idx: Option<usize>,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self::on_thread(enabled, Instant::now(), 1)
    }

    /// A tracer for a second thread, on the same clock as `self`.
    pub fn for_thread(&self, tid: u32) -> Self {
        Self::on_thread(self.enabled, self.origin, tid)
    }

    fn on_thread(enabled: bool, origin: Instant, tid: u32) -> Self {
        Self {
            enabled,
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            others: Vec::new(),
        }
    }

    /// Keep a finished thread's spans for [`Tracer::chrome_json`].
    pub fn absorb(&mut self, other: Tracer) {
        self.others.push(other);
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_us: (start - self.origin).as_secs_f64() * 1e6,
                end_us: f64::NAN,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { idx, start }
    }

    /// Close `open` and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end_us = (now - self.origin).as_secs_f64() * 1e6;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
        (now - open.start).as_secs_f64()
    }

    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// The spans (of any thread) that began inside a span named in `phases`,
    /// and the seconds those phases lasted: what a traced run recorded while
    /// a timed phase was running.
    pub fn inside(&self, phases: &[&str]) -> (usize, f64) {
        let windows: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| phases.contains(&s.name) && s.end_us.is_finite())
            .map(|s| (s.start_us, s.end_us))
            .collect();
        let count = std::iter::once(self)
            .chain(&self.others)
            .flat_map(|t| &t.spans)
            .filter(|s| windows.iter().any(|w| w.0 < s.start_us && s.start_us < w.1))
            .count();
        let secs = windows.iter().map(|w| w.1 - w.0).sum::<f64>() * 1e-6;
        (count, secs)
    }

    /// Seconds a span costs a traced run over an untraced one, measured here
    /// and now: the same empty spans through a tracer of each kind, the
    /// median of five rounds.
    pub fn span_cost_s() -> f64 {
        const SPANS: usize = 1 << 16;
        let round = |enabled: bool| {
            let mut t = Tracer::new(enabled);
            let start = Instant::now();
            for _ in 0..SPANS {
                let open = t.begin("calibration");
                std::hint::black_box(t.end(open));
            }
            start.elapsed().as_secs_f64()
        };
        let mut extra: Vec<f64> = (0..5).map(|_| round(true) - round(false)).collect();
        extra.sort_by(f64::total_cmp);
        extra[2].max(0.0) / SPANS as f64
    }

    pub fn len(&self) -> usize {
        self.spans.len() + self.others.iter().map(Tracer::len).sum::<usize>()
    }

    /// Chrome trace-event JSON of every span. `args` carries the span's
    /// index within its thread, its parent's, the workload and the run id,
    /// so the causal tree survives tools that ignore nesting.
    pub fn chrome_json(&self, workload: &str, run_id: u64) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for t in std::iter::once(self).chain(&self.others) {
            for (i, s) in t.spans.iter().enumerate() {
                if !s.end_us.is_finite() {
                    continue;
                }
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let parent = s.parent.map_or(-1, |p| p as i64);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"run\":{}}}}}",
                    s.name,
                    t.tid,
                    s.start_us,
                    s.end_us - s.start_us,
                    i,
                    parent,
                    workload,
                    run_id
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

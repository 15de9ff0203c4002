//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is opened by the benchmark's own code immediately before it calls
//! a layer's public function and closed when the call returns; nothing
//! inside the program is instrumented. Span names are `<layer>.<function>`,
//! where the layer is a workspace crate (`hdfs`, `mapreduce`, `sim`, ...) or
//! `perfbench` for the benchmark's own top-level operation spans.

use std::collections::BTreeMap;
use std::time::Instant;

use drc_core::gf::bufpool;

/// Where in a run a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stage {
    /// The (final, traced) set-up.
    #[default]
    Setup,
    /// Round `n` of the timed phase.
    Round(u32),
    /// The timed phase's closing work after the rounds (degraded_read's
    /// repair pass and re-read).
    Finish,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The top-level operation this span belongs to (0 outside operations).
    pub op: u64,
    /// Where in the run the span was recorded.
    pub stage: Stage,
    /// `drc_gf::bufpool` hits during the span.
    pub pool_hits: u64,
    /// `drc_gf::bufpool` misses during the span.
    pub pool_misses: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; costs one branch per call while disabled.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<(usize, u64, u64)>,
}

impl Tracer {
    /// A tracer, initially disabled.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span (when enabled) and returns a token for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, stage: Stage) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        let parent = self.open.last().map(|&(i, _, _)| i);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
            stage,
            pool_hits: 0,
            pool_misses: 0,
        });
        self.open.push((index, bufpool::hits(), bufpool::misses()));
        Some(index)
    }

    /// Closes the span `token` opened; spans close in reverse opening order.
    pub fn close(&mut self, token: Option<usize>) {
        let Some(index) = token else { return };
        let end = self.now_ns();
        if let Some((i, hits, misses)) = self.open.pop() {
            debug_assert_eq!(i, index, "spans close in reverse opening order");
            let span = &mut self.spans[i];
            span.end_ns = end;
            span.pool_hits = bufpool::hits().saturating_sub(hits);
            span.pool_misses = bufpool::misses().saturating_sub(misses);
        }
    }

    /// Takes the recorded spans out of the tracer.
    pub fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`, in ns.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// For every span, its duration minus the part of its interval covered by
/// its direct children (children may overlap each other; the union counts
/// once). Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered_ns(span.start_ns, span.end_ns, kids))
        .collect()
}

/// Self time summed per layer over the spans `keep` selects, in seconds.
pub fn self_time_by_layer(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if keep(span) {
            *by_layer.entry(span.layer()).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
    }
    by_layer
}

/// Total duration of the spans named `name` that `keep` selects, in seconds.
pub fn busy_s(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

/// Number of the spans named `name` that `keep` selects.
pub fn calls(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> usize {
    spans.iter().filter(|s| s.name == name && keep(s)).count()
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let stage = match s.stage {
            Stage::Setup => "\"setup\"".to_string(),
            Stage::Round(r) => format!("{r}"),
            Stage::Finish => "\"finish\"".to_string(),
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"op\": {}, \"round\": {stage}, \
             \"pool_hits\": {}, \"pool_misses\": {}}}\n",
            s.name, s.start_ns, s.end_ns, s.op, s.pool_hits, s.pool_misses
        ));
    }
    out
}

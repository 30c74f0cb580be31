//! The traced run: an in-memory span recorder and wrappers over the
//! library's three trait seams (`Executor`, `TraceEvaluator`, `ShardClient`).
//!
//! Every span is recorded from this crate, around a public call or inside a
//! seam wrapper, never inside the library.  A span carries its layer, start,
//! end, parent span, the root (op, refresh round or set-up) it belongs to and
//! a work count.  Spans stay in memory; each root's spans are reduced into a
//! [`Profile`] when the root ends, and a bounded sample of raw spans is
//! written out when the run ends.
//!
//! Clock reads cost tens of nanoseconds on virtual machines, which is the
//! same order as one served call, so durations are compensated: each span
//! pays for about one clock read itself and two inside its parent.  The
//! measured read cost is subtracted accordingly (see [`Profile::add_root`]).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use dla_core::blas::flops::is_empty_call;
use dla_core::machine::{ExecError, Executor, Measurement};
use dla_core::mat::stats::Summary;
use dla_core::model::Result as ModelResult;
use dla_core::predict::{
    EfficiencyPrediction, ShardCall, ShardClient, ShardError, ShardReply, TraceEvaluator,
    TracePrediction,
};
use dla_core::{Call, Locality, MachineConfig};

/// The layer a span times.  Root layers (`Setup`, `Op`, `Round`) bound the
/// work a profile is reduced over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    Setup,
    Op,
    Round,
    /// `Executor` seam: one `execute*` call.
    Machine,
    /// `enumerate_build_tasks` + `build_tasks`: the modeler driving the sampler.
    Modeler,
    /// `ModelService::new` on a built repository.
    Compile,
    /// `binfmt::encode`.
    Encode,
    /// `binfmt::decode`.
    Decode,
    /// `ModelService::swap_compiled`.
    Swap,
    /// Trace generation (`trinv_trace`/`sylv_trace`).
    Trace,
    /// `TraceEvaluator` seam: one evaluator call.
    Eval,
    /// `ModelService::refinement_report`.
    Report,
    /// `OnlineRefiner::refine`.
    Refine,
    /// `ModelService::merge`.
    Publish,
    /// `FleetBuilder::build`.
    FleetBuild,
    /// One trace sent through `FleetService::query` call by call.
    FleetRequest,
    /// `ShardClient` seam: one shard attempt that passed the fault injector.
    ShardCall,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::Op => "op",
            Layer::Round => "round",
            Layer::Machine => "machine.execute",
            Layer::Modeler => "modeler.build",
            Layer::Compile => "model.compile",
            Layer::Encode => "model.binfmt.encode",
            Layer::Decode => "model.binfmt.decode",
            Layer::Swap => "predict.service.swap",
            Layer::Trace => "algos.trace",
            Layer::Eval => "predict.eval",
            Layer::Report => "predict.service.report",
            Layer::Refine => "modeler.online.refine",
            Layer::Publish => "predict.service.publish",
            Layer::FleetBuild => "predict.fleet.build",
            Layer::FleetRequest => "predict.fleet.request",
            Layer::ShardCall => "predict.service.call",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub root: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Work done inside the span: repetitions, evaluated calls, bytes.
    pub count: u64,
    /// Recorded on a worker thread (runs in parallel with the client).
    pub worker: bool,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Spans flushed by executor wrappers that ran on build worker threads.
static WORKER_SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// The innermost open span on this thread (0 outside any root).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static ROOT: Cell<u64> = const { Cell::new(0) };
    /// Whether the open root records detail spans (sampled roots only).
    static DETAIL: Cell<bool> = const { Cell::new(false) };
    /// Start of the open root, and whether the span of the trace generation
    /// that precedes its first evaluator call is still to be recorded.
    static ROOT_START: Cell<u64> = const { Cell::new(0) };
    static TRACE_GAP: Cell<bool> = const { Cell::new(false) };
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// This thread's unused block of span ids: `(next, end)`.
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Nanoseconds since the first clock read of the process.
pub fn now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off (set before a pass starts).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn detail() -> bool {
    enabled() && DETAIL.with(Cell::get)
}

/// A process-unique span id.  Threads take ids in blocks, so build workers
/// do not contend on one counter.
fn next_id() -> u64 {
    const BLOCK: u64 = 4096;
    IDS.with(|ids| {
        let (next, end) = ids.get();
        let (next, end) = if next < end {
            (next, end)
        } else {
            let start = NEXT_ID.fetch_add(BLOCK, Ordering::Relaxed);
            (start, start + BLOCK)
        };
        ids.set((next + 1, end));
        next
    })
}

fn push(span: Span) {
    SPANS.with(|s| s.borrow_mut().push(span));
}

/// Runs `f` as one root (an op, a refresh round or a set-up).  `detail`
/// selects whether layer spans inside it are recorded; `flag` is stored as
/// the root's count (serve marks ops right after a publish with 1).  Returns
/// `f`'s result, the root's start and end, and its spans (root first).
pub fn root<R>(
    layer: Layer,
    detail: bool,
    flag: u64,
    f: impl FnOnce() -> R,
) -> (R, u64, u64, Vec<Span>) {
    let id = next_id();
    CURRENT.set(id);
    ROOT.set(id);
    DETAIL.set(detail);
    TRACE_GAP.set(true);
    let start = now();
    ROOT_START.set(start);
    let result = f();
    let end = now();
    CURRENT.set(0);
    ROOT.set(0);
    DETAIL.set(false);
    let mut spans = vec![Span {
        id,
        parent: 0,
        root: id,
        layer,
        start,
        end,
        count: flag,
        worker: false,
    }];
    SPANS.with(|s| spans.append(&mut s.borrow_mut()));
    spans.append(&mut WORKER_SPANS.lock().expect("span buffer poisoned"));
    (result, start, end, spans)
}

/// Runs `f` inside a span of `layer` whose work count is `count(&result)`.
/// Costs one flag check when the open root records no detail.
pub fn span_counted<R>(layer: Layer, f: impl FnOnce() -> R, count: impl FnOnce(&R) -> u64) -> R {
    if !detail() {
        return f();
    }
    let id = next_id();
    let parent = CURRENT.replace(id);
    let start = now();
    let result = f();
    let end = now();
    CURRENT.set(parent);
    push(Span {
        id,
        parent,
        root: ROOT.get(),
        layer,
        start,
        end,
        count: count(&result),
        worker: false,
    });
    result
}

pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_counted(layer, f, |_| 0)
}

// ---------------------------------------------------------------------------
// Seam wrappers
// ---------------------------------------------------------------------------

/// `Executor` wrapper: one `Machine` span per call, counting repetitions.
///
/// Every trait method is forwarded, so the inner executor's noise stream and
/// batched repetitions run exactly as without the wrapper.  On build worker
/// threads spans collect in the wrapper and are flushed when it drops (the
/// modeler drops its executor before the worker's scope joins).
pub struct TracedExecutor<E> {
    inner: E,
    parent: u64,
    root: u64,
    buffer: Vec<Span>,
}

impl<E: Executor> TracedExecutor<E> {
    /// Wraps `inner`; spans on threads other than the creating one are
    /// parented to the creator's innermost open span.
    pub fn new(inner: E) -> TracedExecutor<E> {
        TracedExecutor {
            inner,
            parent: CURRENT.with(Cell::get),
            root: ROOT.with(Cell::get),
            buffer: Vec::new(),
        }
    }

    fn timed<R>(&mut self, reps: usize, f: impl FnOnce(&mut E) -> R) -> R {
        if !enabled() {
            return f(&mut self.inner);
        }
        let current = CURRENT.with(Cell::get);
        let worker = current == 0;
        if worker && self.root == 0 {
            // Created and used outside any root: nothing to attribute to.
            return f(&mut self.inner);
        }
        let start = now();
        let result = f(&mut self.inner);
        let end = now();
        let span = Span {
            id: next_id(),
            parent: if worker { self.parent } else { current },
            root: if worker {
                self.root
            } else {
                ROOT.with(Cell::get)
            },
            layer: Layer::Machine,
            start,
            end,
            count: reps as u64,
            worker,
        };
        if worker {
            self.buffer.push(span);
        } else {
            push(span);
        }
        result
    }
}

impl<E> Drop for TracedExecutor<E> {
    fn drop(&mut self) {
        if !self.buffer.is_empty() {
            // A poisoned buffer means another worker panicked; its panic is
            // the one worth reporting, so these spans are dropped.
            if let Ok(mut shared) = WORKER_SPANS.lock() {
                shared.append(&mut self.buffer);
            }
        }
    }
}

impl<E: Executor> Executor for TracedExecutor<E> {
    fn machine(&self) -> &MachineConfig {
        self.inner.machine()
    }

    fn execute(&mut self, call: &Call, locality: Locality) -> Measurement {
        self.timed(1, |e| e.execute(call, locality))
    }

    fn execute_ticks(&mut self, call: &Call, locality: Locality, count: usize, out: &mut Vec<f64>) {
        self.timed(count, |e| e.execute_ticks(call, locality, count, out))
    }

    fn try_execute(&mut self, call: &Call, locality: Locality) -> Result<Measurement, ExecError> {
        self.timed(1, |e| e.try_execute(call, locality))
    }

    fn try_execute_ticks(
        &mut self,
        call: &Call,
        locality: Locality,
        count: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), ExecError> {
        self.timed(count, |e| e.try_execute_ticks(call, locality, count, out))
    }

    fn fork(&self, stream: u64) -> Self {
        TracedExecutor {
            inner: self.inner.fork(stream),
            parent: self.parent,
            root: self.root,
            buffer: Vec::new(),
        }
    }
}

/// `TraceEvaluator` wrapper: one `Eval` span per evaluator call, counting
/// evaluated calls.  The library's ranking and sweep entry points generate
/// every candidate trace before their first evaluator call, so the interval
/// from the root's start to that call is recorded as the root's `Trace` span,
/// counting the calls in the evaluated traces.
pub struct TracedEvaluator<'a, E> {
    inner: &'a E,
}

impl<'a, E: TraceEvaluator> TracedEvaluator<'a, E> {
    pub fn new(inner: &'a E) -> TracedEvaluator<'a, E> {
        TracedEvaluator { inner }
    }

    fn timed<R>(&self, f: impl FnOnce(&E) -> R, calls: impl FnOnce(&R) -> (u64, u64)) -> R {
        if !detail() {
            return f(self.inner);
        }
        let start = now();
        let result = f(self.inner);
        let end = now();
        let (evaluated, total) = calls(&result);
        let parent = CURRENT.with(Cell::get);
        let root = ROOT.with(Cell::get);
        if TRACE_GAP.replace(false) {
            push(Span {
                id: next_id(),
                parent,
                root,
                layer: Layer::Trace,
                start: ROOT_START.with(Cell::get),
                end: start,
                count: total,
                worker: false,
            });
        }
        push(Span {
            id: next_id(),
            parent,
            root,
            layer: Layer::Eval,
            start,
            end,
            count: evaluated,
            worker: false,
        });
        result
    }
}

fn trace_calls(trace: &[Call]) -> (u64, u64) {
    let evaluated = trace.iter().filter(|c| !is_empty_call(c)).count() as u64;
    (evaluated, trace.len() as u64)
}

fn prediction_calls(p: &TracePrediction) -> (u64, u64) {
    let evaluated = p.predicted_calls as u64;
    (evaluated, evaluated + p.skipped_calls as u64)
}

impl<E: TraceEvaluator> TraceEvaluator for TracedEvaluator<'_, E> {
    fn machine(&self) -> &MachineConfig {
        self.inner.machine()
    }

    fn predict_call(&self, call: &Call) -> ModelResult<Summary> {
        self.timed(|e| e.predict_call(call), |_| (1, 1))
    }

    fn predict_trace(&self, trace: &[Call]) -> ModelResult<TracePrediction> {
        self.timed(
            |e| e.predict_trace(trace),
            |r| r.as_ref().map(prediction_calls).unwrap_or_default(),
        )
    }

    fn predict_traces(&self, traces: &[&[Call]]) -> ModelResult<Vec<TracePrediction>> {
        self.timed(
            |e| e.predict_traces(traces),
            |r| {
                r.as_ref()
                    .map(|ps| {
                        ps.iter()
                            .map(prediction_calls)
                            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
                    })
                    .unwrap_or_default()
            },
        )
    }

    fn predict_efficiency(
        &self,
        trace: &[Call],
        useful_flops: f64,
    ) -> ModelResult<EfficiencyPrediction> {
        self.timed(
            |e| e.predict_efficiency(trace, useful_flops),
            |_| trace_calls(trace),
        )
    }
}

/// `ShardClient` wrapper, installed inside the fault injector so it times
/// only attempts that reach the shard's service.
pub struct TracedClient<C> {
    inner: C,
}

impl<C> TracedClient<C> {
    pub fn new(inner: C) -> TracedClient<C> {
        TracedClient { inner }
    }
}

impl<C: ShardClient> ShardClient for TracedClient<C> {
    fn predict(&self, call: &ShardCall<'_>) -> Result<ShardReply, ShardError> {
        span(Layer::ShardCall, || self.inner.predict(call))
    }
}

// ---------------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------------

/// Totals of one layer over every reduced span.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    pub spans: u64,
    pub count: u64,
    /// Compensated span durations, summed.
    pub ns: f64,
    /// Compensated self time (duration minus child coverage), summed.
    pub self_ns: f64,
    /// Compensated duration of every span of the per-event layers (compile,
    /// codec, publish, refine), for medians.
    pub durations: Vec<f64>,
    /// Per op: the layer's summed duration in that op (ops without the
    /// layer contribute zeros).
    pub per_op_ns: Vec<f64>,
}

/// Spans kept for the written-out trace file, and the `Machine` spans kept
/// per root (a repository build records tens of thousands).
const KEPT_SPANS: usize = 50_000;
const KEPT_MACHINE_SPANS: usize = 64;

/// The reduced traced run.
#[derive(Debug, Default)]
pub struct Profile {
    /// Cost of one clock read, subtracted from span durations.
    pub clock_ns: f64,
    pub layers: BTreeMap<Layer, LayerStats>,
    /// The same, over the timed roots (ops and rounds) only.
    pub timed_layers: BTreeMap<Layer, LayerStats>,
    /// Ops reduced so far (the length of every `per_op_*` vector).
    pub ops: usize,
    /// `ShardCall` spans inside roots flagged cold (right after a publish).
    pub cold_calls: LayerStats,
    /// The compensated wall time of the timed roots (ops and rounds) reduced,
    /// and the part of it no layer span covers.
    pub timed_ns: f64,
    pub unattributed_ns: f64,
    pub kept: Vec<Span>,
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

impl Profile {
    pub fn new() -> Profile {
        Profile {
            clock_ns: measure_clock_ns(),
            ..Profile::default()
        }
    }

    /// Reduces one root's spans (root first, as [`root`] returns them).
    /// Roots that recorded no detail are skipped: they hold no layer spans.
    ///
    /// Compensation, with `c` the cost of one clock read: a span's measured
    /// duration holds about one read of its own, and each client-thread
    /// child adds two reads to its parent's interval of which the child's
    /// own duration holds one, so
    /// `self = duration − coverage(children) − c·(1 + client children)` and
    /// a root's true wall time is `duration − c·(1 + 2·client descendants)`.
    pub fn add_root(&mut self, spans: Vec<Span>, detail: bool) {
        let Some(root) = spans.first().copied() else {
            return;
        };
        if !detail {
            return;
        }
        let c = self.clock_ns;
        let mut children: HashMap<u64, (Vec<(u64, u64)>, u64)> = HashMap::new();
        for s in &spans[1..] {
            let entry = children.entry(s.parent).or_default();
            entry.0.push((s.start, s.end));
            entry.1 += u64::from(!s.worker);
        }
        let client_descendants = spans[1..].iter().filter(|s| !s.worker).count() as f64;
        let timed = root.layer != Layer::Setup;
        let mut in_root: BTreeMap<Layer, f64> = BTreeMap::new();
        let cold = root.layer == Layer::Op && root.count == 1;
        for s in &spans {
            let (mut kids, client_kids) = children.remove(&s.id).unwrap_or_default();
            let duration = (s.end - s.start) as f64;
            let self_ns = (duration
                - covered(&mut kids, s.start, s.end) as f64
                - c * (1 + client_kids) as f64)
                .max(0.0);
            if s.id == root.id {
                if timed {
                    let wall = (duration - c * (1.0 + 2.0 * client_descendants)).max(1.0);
                    self.timed_ns += wall;
                    self.unattributed_ns += self_ns.min(wall);
                }
                continue;
            }
            let duration = (duration - c).max(0.0);
            if timed {
                let stats = self.timed_layers.entry(s.layer).or_default();
                stats.spans += 1;
                stats.count += s.count;
                stats.ns += duration;
            }
            let stats = if cold && s.layer == Layer::ShardCall {
                &mut self.cold_calls
            } else {
                self.layers.entry(s.layer).or_default()
            };
            stats.spans += 1;
            stats.count += s.count;
            stats.ns += duration;
            stats.self_ns += self_ns;
            if matches!(
                s.layer,
                Layer::Compile | Layer::Encode | Layer::Decode | Layer::Publish | Layer::Refine
            ) {
                stats.durations.push(duration);
            }
            *in_root.entry(s.layer).or_default() += duration;
        }
        if root.layer == Layer::Op {
            self.ops += 1;
            for (layer, stats) in self.layers.iter_mut() {
                // A layer first seen now read zero in every earlier op.
                stats.per_op_ns.resize(self.ops - 1, 0.0);
                stats
                    .per_op_ns
                    .push(in_root.get(layer).copied().unwrap_or_default());
            }
        }
        let room = KEPT_SPANS.saturating_sub(self.kept.len());
        let mut machine = 0;
        self.kept.extend(
            spans
                .into_iter()
                .filter(|s| {
                    machine += usize::from(s.layer == Layer::Machine);
                    s.layer != Layer::Machine || machine <= KEPT_MACHINE_SPANS
                })
                .take(room),
        );
    }

    pub fn layer(&self, layer: Layer) -> LayerStats {
        self.layers.get(&layer).cloned().unwrap_or_default()
    }

    pub fn timed_layer(&self, layer: Layer) -> LayerStats {
        self.timed_layers.get(&layer).cloned().unwrap_or_default()
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"root\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{},\"worker\":{}}}",
                s.id,
                s.parent,
                s.root,
                s.layer.name(),
                s.start,
                s.end,
                s.count,
                s.worker
            )?;
        }
        out.flush()
    }
}

/// Median cost of one clock read, from batches of back-to-back reads.
fn measure_clock_ns() -> f64 {
    let mut batches: Vec<f64> = (0..31)
        .map(|_| {
            let start = now();
            let mut last = start;
            for _ in 0..1000 {
                last = std::hint::black_box(now());
            }
            (last - start) as f64 / 1000.0
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered(&mut iv, 1, 25), 2 + 7 + 5);
    }
}

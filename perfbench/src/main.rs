//! `perfbench`: the dlaperf stack's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tune --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client, driven only through the
//! library's public API.  `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the workload traced and then untraced, each for half the
//! time, checks that both produce identical deterministic metrics, and prints
//! the per-layer metrics plus the tracing overhead.  The last line of standard output is one JSON
//! object; see `perfbench/README.md` for every metric's definition.

mod accuracy;
mod models;
mod serve;
mod stats;
mod trace;
mod tune;

use std::fmt::Write as _;

use stats::{beyond, median, percentile, quantile, rss_peak_mb};
use trace::{Layer, Profile};

/// Set-ups per pass; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// The timed phase is cut into samples that each hold the same work, and
/// every timing of the phase is this quantile over its samples: the 5th
/// percentile of durations and latencies (so the 95th of throughput).
/// Refresh rounds are reduced the same way.  Other tenants of a shared host
/// slow this code by up to 50% in spells of seconds to minutes, which can
/// cover most of a run; contention only ever slows, so a low quantile
/// follows the code's own cost without resting on the single luckiest
/// sample.
const LOW_QUANTILE: f64 = 0.05;

/// Values that must repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    pub pred_err_med: f64,
    pub rank_tau: f64,
    pub bs_regret: f64,
    pub build_samples: f64,
}

/// What a workload reports after its timed phase.
pub struct Finish {
    pub deterministic: Deterministic,
    /// Wall time of every refresh round, in ms.
    pub refresh_ms: Vec<f64>,
    /// Per-layer values counted from the library's return values
    /// (`ModelingReport`, `RefineOutcome`, `FleetResponse` tags).
    pub counts: Vec<(&'static str, f64)>,
}

/// One benchmark workload.  Ops must be deterministic in `(seed, index)`.
pub trait Workload {
    /// Builds the state the timed phase needs, replacing any earlier one.
    fn setup(&mut self) -> Result<(), String>;
    /// Runs op `i`.  `Ok(false)` counts the op as failed; `Err` aborts the
    /// run (an output check failed).
    fn op(&mut self, i: u64) -> Result<bool, String>;
    /// Whether a refresh round runs inline between op `i` and op `i + 1`.
    /// Rounds count in the phase's wall time but in no op's latency.
    fn round_after(&self, _i: u64) -> bool {
        false
    }
    /// One refresh round.
    fn round(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Work that runs after each sample and counts in no sample: `tune`
    /// times a refresh round on a copy of its repository here.
    fn after_sample(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Whether the traced pass records layer spans inside op `i`, and the
    /// flag stored on its root.
    fn detail(&self, _i: u64) -> (bool, u64) {
        (true, 0)
    }
    /// Checks outputs and computes the deterministic metrics.
    fn finish(&mut self) -> Result<Finish, String>;
    /// The ops in one sample of the timed phase, and the tail percentile
    /// `lat_tail_us` reports.  A sample holds the same work in every run
    /// (whole request cycles, or whole refresh periods with their round),
    /// and at least 10 ops beyond the percentile.
    fn sample(&self) -> (u64, f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    match name {
        "tune" => Ok(Box::new(tune::Tune::new(seed))),
        "serve" => Ok(Box::new(serve::Serve::new(seed))),
        _ => Err(format!("unknown workload {name} (tune, serve)")),
    }
}

/// One sample of the timed phase: its wall time (rounds included) and the
/// median and tail latency of its ops, in ns.
struct Sample {
    ns: f64,
    p50_ns: f64,
    tail_ns: f64,
}

/// One measured pass of a workload.
struct Pass {
    setup_s: f64,
    ops: u64,
    sample_ops: u64,
    /// The complete samples of the timed phase.
    samples: Vec<Sample>,
    failed: u64,
    finish: Finish,
    profile: Option<Profile>,
}

impl Pass {
    fn low(&self, value: impl Fn(&Sample) -> f64) -> f64 {
        let values: Vec<f64> = self.samples.iter().map(value).collect();
        quantile(&values, LOW_QUANTILE)
    }

    fn ops_per_s(&self) -> f64 {
        self.sample_ops as f64 / (self.low(|s| s.ns) / 1e9)
    }

    fn lat_p50_us(&self) -> f64 {
        self.low(|s| s.p50_ns) / 1e3
    }

    fn lat_tail_us(&self) -> f64 {
        self.low(|s| s.tail_ns) / 1e3
    }

    fn refresh_ms(&self) -> f64 {
        quantile(&self.finish.refresh_ms, LOW_QUANTILE)
    }
}

/// Runs `f` as a root of the traced pass (reducing its spans into
/// `profile` and adding the reduction's time to `paused`), or plainly in the
/// untraced pass.  Returns `f`'s result and its wall time in ns.
fn timed_root<R>(
    profile: &mut Option<Profile>,
    paused: &mut u64,
    layer: Layer,
    (detail, flag): (bool, u64),
    f: impl FnOnce() -> R,
) -> (R, u64) {
    match profile {
        Some(profile) => {
            let (result, start, end, spans) = trace::root(layer, detail, flag, f);
            profile.add_root(spans, detail);
            *paused += trace::now() - end;
            (result, end - start)
        }
        None => {
            let start = trace::now();
            let result = f();
            (result, trace::now() - start)
        }
    }
}

fn run_pass(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Pass, String> {
    let mut w = workload(name, seed)?;
    let (sample_ops, tail) = w.sample();
    if beyond(sample_ops as usize, tail) < 10 {
        return Err(format!(
            "a sample of {sample_ops} ops has fewer than 10 beyond p{tail}"
        ));
    }
    let mut profile = traced.then(Profile::new);
    trace::set_enabled(traced);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let (result, ns) = timed_root(&mut profile, &mut 0, Layer::Setup, (true, 0), || w.setup());
        result?;
        setups.push(ns as f64 / 1e9);
    }

    // The latencies of the open sample's ops.
    let mut latencies = Vec::with_capacity(sample_ops as usize);
    let mut samples = Vec::new();
    let mut failed = 0;
    // Span reduction between ops is tracing bookkeeping: it is excluded from
    // the phase's wall time and the loop runs that much longer.
    let mut paused = 0u64;
    let start = trace::now();
    let mut sample_start = start;
    let budget = (seconds * 1e9) as u64;
    let mut i = 0u64;
    while trace::now() - start - paused < budget {
        let (ok, ns) = timed_root(&mut profile, &mut paused, Layer::Op, w.detail(i), || {
            w.op(i)
        });
        if !ok? {
            failed += 1;
        }
        latencies.push(ns);
        if w.round_after(i) {
            let (result, _) =
                timed_root(&mut profile, &mut paused, Layer::Round, (true, 0), || {
                    w.round()
                });
            result?;
        }
        i += 1;
        if i.is_multiple_of(sample_ops) {
            let end = trace::now() - paused;
            latencies.sort_unstable();
            samples.push(Sample {
                ns: (end - sample_start) as f64,
                p50_ns: percentile(&latencies, 50.0),
                tail_ns: percentile(&latencies, tail),
            });
            latencies.clear();
            w.after_sample()?;
            sample_start = trace::now() - paused;
        }
    }
    if samples.is_empty() {
        return Err(format!(
            "--seconds must cover at least one sample of {sample_ops} ops"
        ));
    }
    let finish = w.finish()?;
    Ok(Pass {
        setup_s: median(&setups),
        ops: i,
        sample_ops,
        samples,
        failed,
        finish,
        profile,
    })
}

/// The JSON number form of a metric value (non-finite values become 0 so
/// the line stays valid JSON; a missing layer reads 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn emit(pass: &Pass, metrics: &[(&str, f64, &str)]) {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        pass.ops, pass.failed
    );
}

fn end_to_end(pass: &Pass) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let d = pass.finish.deterministic;
    Ok(vec![
        ("setup_s", pass.setup_s, "s"),
        ("ops_per_s", pass.ops_per_s(), "1/s"),
        ("lat_p50_us", pass.lat_p50_us(), "us"),
        ("lat_tail_us", pass.lat_tail_us(), "us"),
        ("pred_err_med", d.pred_err_med, "ratio"),
        ("rank_tau", d.rank_tau, "tau"),
        ("bs_regret", d.bs_regret, "ratio"),
        ("refresh_ms", pass.refresh_ms(), "ms"),
        ("build_samples", d.build_samples, "count"),
        ("rss_peak_mb", rss_peak_mb()?, "MB"),
    ])
}

fn per_layer(traced: &Pass, untraced: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let p = traced
        .profile
        .as_ref()
        .expect("the traced pass has a profile");
    let layer = |l: Layer| p.layer(l);
    // Ratios of empty layers read 0 (see `number`).
    let per = |num: f64, den: u64| num / den as f64;
    let ms = |l: Layer| median(&layer(l).durations) / 1e6;
    let per_op_us = |l: Layer| median(&layer(l).per_op_ns) / 1e3;
    let count = |name: &str| {
        let counts = &traced.finish.counts;
        counts.iter().find(|(n, _)| *n == name).map_or(0.0, |c| c.1)
    };
    let (machine, eval, warm, cold) = (
        layer(Layer::Machine),
        layer(Layer::Eval),
        layer(Layer::ShardCall),
        &p.cold_calls,
    );
    let (encode, trace, fleet) = (
        layer(Layer::Encode),
        layer(Layer::Trace),
        layer(Layer::FleetRequest),
    );
    let modeler = layer(Layer::Modeler);
    let timed_reps = p.timed_layer(Layer::Machine).count as f64;
    let mut metrics = vec![
        ("machine.reps", timed_reps / traced.ops as f64, "count"),
        ("machine.ns_per_rep", per(machine.ns, machine.count), "ns"),
        (
            "modeler.self_ms",
            per(modeler.self_ns, modeler.spans) / 1e6,
            "ms",
        ),
        ("model.compile_ms", ms(Layer::Compile), "ms"),
        ("model.binfmt.decode_ms", ms(Layer::Decode), "ms"),
        ("model.binfmt.encode_ms", ms(Layer::Encode), "ms"),
        (
            "model.binfmt.bytes",
            per(encode.count as f64, encode.spans),
            "bytes",
        ),
        ("algos.trace_us", per_op_us(Layer::Trace), "us"),
        (
            "algos.calls_per_op",
            per(trace.count as f64, trace.spans),
            "count",
        ),
        ("predict.eval_us", per_op_us(Layer::Eval), "us"),
        ("predict.ns_per_call", per(eval.ns, eval.count), "ns"),
        (
            "predict.service.call_ns_warm",
            per(warm.ns, warm.spans),
            "ns",
        ),
        (
            "predict.service.call_ns_cold",
            per(cold.ns, cold.spans),
            "ns",
        ),
        ("predict.service.publish_ms", ms(Layer::Publish), "ms"),
        (
            "predict.fleet.self_ns",
            per(fleet.self_ns, fleet.count),
            "ns",
        ),
        ("modeler.online.refine_ms", ms(Layer::Refine), "ms"),
        (
            "trace.unattributed_ratio",
            p.unattributed_ns / p.timed_ns,
            "ratio",
        ),
        ("trace.clock_ns", p.clock_ns, "ns"),
    ];
    for (name, unit) in [
        ("modeler.samples", "count"),
        ("modeler.regions", "count"),
        ("predict.fleet.attempts_per_query", "count"),
        ("predict.fleet.fresh_ratio", "ratio"),
        ("predict.fleet.stale_ratio", "ratio"),
        ("predict.fleet.proxied_ratio", "ratio"),
        ("predict.fleet.shed_ratio", "ratio"),
        ("modeler.online.samples", "count"),
        ("modeler.online.cells", "count"),
    ] {
        metrics.push((name, count(name), unit));
    }
    metrics.extend([
        (
            "trace.overhead.setup_s",
            traced.setup_s - untraced.setup_s,
            "s",
        ),
        (
            "trace.overhead.ops_per_s",
            traced.ops_per_s() - untraced.ops_per_s(),
            "1/s",
        ),
        (
            "trace.overhead.lat_p50_us",
            traced.lat_p50_us() - untraced.lat_p50_us(),
            "us",
        ),
        (
            "trace.overhead.lat_tail_us",
            traced.lat_tail_us() - untraced.lat_tail_us(),
            "us",
        ),
        (
            "trace.overhead.refresh_ms",
            traced.refresh_ms() - untraced.refresh_ms(),
            "ms",
        ),
    ]);
    metrics
}

fn run(args: &Args) -> Result<(), String> {
    if !args.trace {
        let untraced = run_pass(&args.workload, args.seed, args.seconds, false)?;
        let metrics = end_to_end(&untraced)?;
        for (name, value, unit) in &metrics {
            eprintln!("{name:>16} {value:>14.6} {unit}");
        }
        emit(&untraced, &metrics);
        return Ok(());
    }
    // Each pass gets half the time, so a traced run takes as long as an
    // untraced one.  The traced pass runs first, so it also bears the
    // process's first-pass costs (page faults, cold allocator): the overhead
    // reads high rather than low.
    let half = args.seconds / 2.0;
    let traced = run_pass(&args.workload, args.seed, half, true)?;
    let untraced = run_pass(&args.workload, args.seed, half, false)?;
    if traced.finish.deterministic != untraced.finish.deterministic {
        return Err(format!(
            "traced deterministic metrics {:?} differ from untraced {:?}",
            traced.finish.deterministic, untraced.finish.deterministic
        ));
    }
    let profile = traced
        .profile
        .as_ref()
        .expect("the traced pass has a profile");
    let spans_path = std::path::Path::new("perfbench/out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    profile
        .write_spans(&spans_path)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let metrics = per_layer(&traced, &untraced);
    for (name, value, unit) in &metrics {
        eprintln!("{name:>34} {value:>14.6} {unit}");
    }
    emit(&traced, &metrics);
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

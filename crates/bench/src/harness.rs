//! The timing harness of the `benches/` targets.
//!
//! Each row is warmed up, then timed over 21 samples.  A sample is a batch
//! of iterations whose size the warm-up picks so that one sample lasts at
//! least 1 ms.  The per-iteration times are reduced with
//! [`Summary::from_samples_robust`] to a median, a scaled MAD and the number
//! of samples kept (the paper's §II repetition method), and printed as one
//! line per row.  [`Bench::finish`] writes the target's rows to
//! `BENCH_<target>.json` at the repository root:
//!
//! ```text
//! {"target", "host_cores", "rows": [{"name", "layer", "unit", "median", "mad", "n"}]}
//! ```
//!
//! Timings are in `us` per iteration.  Counts a table cites (bytes, calls,
//! distinct shapes) are rows with a count unit, a MAD of 0 and n = 1.
//! Derived ratios are printed by the target, not stored.

use std::ffi::OsString;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dla_core::mat::stats::{StatsError, Summary};

/// Timed samples per row.
const SAMPLES: usize = 21;

/// Shortest sample: the warm-up doubles the batch until one batch lasts this
/// long.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Samples farther than this many scaled MADs from the median are trimmed
/// (the Sampler's default).
const MAD_K: f64 = 5.0;

/// One reported row.
#[derive(Debug)]
struct Row {
    /// Row name, `group/case`.
    name: String,
    /// The layer the row times: perfbench's layer name where it times one,
    /// otherwise the crate name.
    layer: &'static str,
    /// `us` per iteration for timings, otherwise the count's unit.
    unit: &'static str,
    /// Median of the kept samples.
    median: f64,
    /// Scaled (×1.4826) MAD of all samples.
    mad: f64,
    /// Samples kept after outlier trimming.
    n: usize,
}

/// The rows of one bench target.
#[derive(Debug)]
pub struct Bench {
    target: &'static str,
    rows: Vec<Row>,
}

impl Bench {
    /// An empty target; its rows go to `BENCH_<target>.json`.
    pub fn new(target: &'static str) -> Bench {
        Bench {
            target,
            rows: Vec::new(),
        }
    }

    /// Times `f` and records the row; returns its median in µs per call.
    pub fn time<O>(
        &mut self,
        name: &str,
        layer: &'static str,
        mut f: impl FnMut() -> O,
    ) -> Result<f64, StatsError> {
        self.sample(name, layer, |batch| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            start.elapsed()
        })
    }

    /// Times `routine` on a fresh `setup()` value per iteration, for inputs
    /// the routine consumes; only the routine is timed.
    pub fn time_with_setup<I, O>(
        &mut self,
        name: &str,
        layer: &'static str,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) -> Result<f64, StatsError> {
        self.sample(name, layer, |batch| {
            let mut elapsed = Duration::ZERO;
            for _ in 0..batch {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                elapsed += start.elapsed();
            }
            elapsed
        })
    }

    /// Records a count the target's tables cite (bytes, calls, shapes).
    pub fn count(&mut self, name: &str, layer: &'static str, unit: &'static str, value: usize) {
        println!("{:<48} {value:>12} {unit}", self.qualified(name));
        self.rows.push(Row {
            name: name.to_string(),
            layer,
            unit,
            median: value as f64,
            mad: 0.0,
            n: 1,
        });
    }

    /// Writes `BENCH_<target>.json` at the repository root.
    pub fn finish(self) -> std::io::Result<()> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rows: Vec<String> = self.rows.iter().map(row_json).collect();
        let json = format!(
            "{{\n  \"target\": \"{}\",\n  \"host_cores\": {cores},\n  \"rows\": [\n{}\n  ]\n}}\n",
            self.target,
            rows.join(",\n")
        );
        let path = output_path(self.target, std::env::var_os("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, json)?;
        println!("wrote BENCH_{}.json", self.target);
        Ok(())
    }

    /// Warms up, sizes the batch, takes the samples and records the row.
    /// `batch_time(k)` runs `k` iterations and returns their timed total.
    fn sample(
        &mut self,
        name: &str,
        layer: &'static str,
        mut batch_time: impl FnMut(u64) -> Duration,
    ) -> Result<f64, StatsError> {
        let mut batch = 1;
        while batch_time(batch) < MIN_SAMPLE {
            batch *= 2;
        }
        let per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| batch_time(batch).as_secs_f64() * 1e6 / batch as f64)
            .collect();
        let (median, mad, n) = reduce(&per_iter)?;
        println!(
            "{:<48} {median:>12.3} us ± {mad:<10.3} (n = {n}, batch {batch})",
            self.qualified(name)
        );
        self.rows.push(Row {
            name: name.to_string(),
            layer,
            unit: "us",
            median,
            mad,
            n,
        });
        Ok(median)
    }

    fn qualified(&self, name: &str) -> String {
        format!("{}/{name}", self.target)
    }
}

/// `BENCH_<target>.json` at the root of the checkout whose `dla-bench`
/// manifest directory is `manifest_dir`.  `cargo bench` sets
/// `CARGO_MANIFEST_DIR` when it runs a target, so a binary reused from
/// another checkout's build writes into the checkout running it; without
/// the variable, the directory the binary was compiled in is used.
fn output_path(target: &str, manifest_dir: Option<OsString>) -> PathBuf {
    let manifest_dir =
        manifest_dir.map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest_dir.join(format!("../../BENCH_{target}.json"))
}

/// Median of the samples kept by the outlier trim, scaled MAD of all
/// samples, and the number kept.
fn reduce(samples: &[f64]) -> Result<(f64, f64, usize), StatsError> {
    let (summary, trim) = Summary::from_samples_robust(samples, MAD_K)?;
    Ok((summary.median, trim.scaled_mad, summary.count))
}

fn row_json(row: &Row) -> String {
    let digits = if row.unit == "us" { 4 } else { 0 };
    format!(
        "    {{\"name\": \"{}\", \"layer\": \"{}\", \"unit\": \"{}\", \"median\": {:.*}, \"mad\": {:.*}, \"n\": {}}}",
        row.name, row.layer, row.unit, digits, row.median, digits, row.mad, row.n
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_is_the_median_and_scaled_mad() {
        // Deviations from the median 10 are 0, 0, 1, 1, 2, 2, 90: MAD 1.
        // The 100 lies beyond 5 scaled MADs, so it leaves the median and the
        // count, not the MAD.
        let (median, mad, n) = reduce(&[9.0, 10.0, 11.0, 8.0, 12.0, 100.0, 10.0]).unwrap();
        assert_eq!((median, n), (10.0, 6));
        assert!((mad - 1.4826).abs() < 1e-12, "{mad}");
        assert_eq!(reduce(&[3.0; 21]), Ok((3.0, 0.0, 21)));
        assert!(reduce(&[]).is_err());
    }

    #[test]
    fn rows_serialise_in_one_schema() {
        let row = Row {
            name: "g/case".into(),
            layer: "blas",
            unit: "us",
            median: 1.5,
            mad: 0.25,
            n: 21,
        };
        assert_eq!(
            row_json(&row),
            "    {\"name\": \"g/case\", \"layer\": \"blas\", \"unit\": \"us\", \
             \"median\": 1.5000, \"mad\": 0.2500, \"n\": 21}"
        );
    }

    #[test]
    fn output_lands_in_the_running_checkout() {
        let running = OsString::from("/elsewhere/checkout/crates/bench");
        assert_eq!(
            output_path("eval", Some(running)),
            PathBuf::from("/elsewhere/checkout/crates/bench/../../BENCH_eval.json")
        );
        // Run outside cargo: the checkout the binary was compiled in.
        assert_eq!(
            output_path("eval", None),
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_eval.json")
        );
    }
}

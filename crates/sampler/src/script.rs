//! Line-oriented text interface to the Sampler.
//!
//! This mirrors the way the paper's stand-alone Sampler tool is used: each
//! input line names a routine and its argument tuple; each output line reports
//! the summary statistics of the measured ticks.  Lines starting with `#` and
//! blank lines are ignored.  A small set of directives control the campaign:
//!
//! ```text
//! # switch locality for the following calls
//! @locality out-of-cache
//! # set the number of repetitions per call
//! @repetitions 20
//! dtrsm R L N U 512 128 0.37 2500 2500
//! dgemm N N 256 256 256 1.0 0.0 2500 2500 2500
//! ```

use dla_blas::Call;
use dla_machine::{Executor, Locality};

use crate::{SampleResult, Sampler};

/// The outcome of running one script line.
#[derive(Debug, Clone, PartialEq)]
pub enum LineOutcome {
    /// The line was a comment, a blank line or a directive.
    Skipped,
    /// The line was a call that was successfully measured.
    Measured(Box<SampleResult>),
    /// The line could not be parsed or executed.
    Error(String),
}

/// Runs a sampling script and returns one outcome per input line.
pub fn run_script<E: Executor>(sampler: &mut Sampler<E>, script: &str) -> Vec<LineOutcome> {
    script.lines().map(|line| run_line(sampler, line)).collect()
}

/// Runs a single script line.
pub fn run_line<E: Executor>(sampler: &mut Sampler<E>, line: &str) -> LineOutcome {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return LineOutcome::Skipped;
    }
    if let Some(rest) = trimmed.strip_prefix('@') {
        return match apply_directive(sampler, rest) {
            Ok(()) => LineOutcome::Skipped,
            Err(e) => LineOutcome::Error(e),
        };
    }
    match Call::parse(trimmed) {
        Ok(call) => LineOutcome::Measured(Box::new(sampler.sample(&call))),
        Err(e) => LineOutcome::Error(e),
    }
}

fn apply_directive<E: Executor>(sampler: &mut Sampler<E>, directive: &str) -> Result<(), String> {
    let mut parts = directive.split_whitespace();
    let name = parts.next().ok_or("empty directive")?;
    match name {
        "locality" => {
            let value = parts.next().ok_or("missing locality value")?;
            let locality =
                Locality::from_name(value).ok_or_else(|| format!("unknown locality '{value}'"))?;
            sampler.set_locality(locality);
            Ok(())
        }
        "repetitions" => {
            let value = parts.next().ok_or("missing repetition count")?;
            let reps: usize = value
                .parse()
                .map_err(|_| format!("bad repetition count '{value}'"))?;
            sampler.set_repetitions(reps);
            Ok(())
        }
        other => Err(format!("unknown directive '@{other}'")),
    }
}

/// Formats the measured outcomes as a plain-text report, one line per call.
///
/// The call column is as wide as the longest call, so the columns after it
/// line up; one space always separates two columns.
pub fn format_report(outcomes: &[LineOutcome]) -> String {
    let header = "# routine";
    let width = outcomes
        .iter()
        .filter_map(|outcome| match outcome {
            LineOutcome::Measured(r) => Some(r.call.to_string().len()),
            _ => None,
        })
        .fold(header.len(), usize::max);
    let mut out = format!(
        "{header:<width$} {:<12} {:>11} {:>11} {:>11} {:>11} {:>10}\n",
        "locality", "median", "mean", "min", "max", "std"
    );
    for outcome in outcomes {
        match outcome {
            LineOutcome::Skipped => {}
            LineOutcome::Error(e) => {
                out.push_str(&format!("# error: {e}\n"));
            }
            LineOutcome::Measured(r) => {
                out.push_str(&format!(
                    "{:<width$} {:<12} {:>11.0} {:>11.0} {:>11.0} {:>11.0} {:>10.0}\n",
                    r.call.to_string(),
                    r.locality.name(),
                    r.ticks.median,
                    r.ticks.mean,
                    r.ticks.min,
                    r.ticks.max,
                    r.ticks.std_dev
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SamplerConfig;
    use dla_machine::presets::harpertown_openblas;
    use dla_machine::SimExecutor;

    fn sampler() -> Sampler<SimExecutor> {
        Sampler::new(
            SimExecutor::new(harpertown_openblas(), 7),
            SamplerConfig::in_cache(5),
        )
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let mut s = sampler();
        assert_eq!(run_line(&mut s, "   "), LineOutcome::Skipped);
        assert_eq!(run_line(&mut s, "# a comment"), LineOutcome::Skipped);
    }

    #[test]
    fn calls_are_measured() {
        let mut s = sampler();
        match run_line(&mut s, "dgemm N N 64 64 64 1.0 0.0 2500 2500 2500") {
            LineOutcome::Measured(r) => {
                assert_eq!(r.raw_ticks.len(), 5);
                assert!(r.ticks.median > 0.0);
            }
            other => panic!("expected measurement, got {other:?}"),
        }
    }

    #[test]
    fn bad_lines_report_errors() {
        let mut s = sampler();
        assert!(matches!(
            run_line(&mut s, "dfrobnicate 1 2 3"),
            LineOutcome::Error(_)
        ));
        assert!(matches!(
            run_line(&mut s, "@bogus 1"),
            LineOutcome::Error(_)
        ));
        assert!(matches!(
            run_line(&mut s, "@locality nowhere"),
            LineOutcome::Error(_)
        ));
    }

    #[test]
    fn locality_directive_applies_to_following_calls() {
        let mut s = sampler();
        let outcomes = run_script(
            &mut s,
            "dtrsm R L N U 128 64 0.37 2500 2500\n@locality out-of-cache\ndtrsm R L N U 128 64 0.37 2500 2500\n",
        );
        let measured: Vec<&SampleResult> = outcomes
            .iter()
            .filter_map(|o| match o {
                LineOutcome::Measured(r) => Some(r.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(measured.len(), 2);
        assert_eq!(measured[0].locality, Locality::InCache);
        assert_eq!(measured[1].locality, Locality::OutOfCache);
        assert!(measured[1].ticks.median > measured[0].ticks.median);
    }

    #[test]
    fn report_contains_one_line_per_measured_call() {
        let mut s = sampler();
        let outcomes = run_script(
            &mut s,
            "# header\ndgemm N N 32 32 32 1.0 0.0 2500 2500 2500\nnonsense\n",
        );
        let report = format_report(&outcomes);
        assert!(report.contains("dgemm"));
        assert!(report.contains("# error"));
        // one header line + one measurement + one error line
        assert_eq!(report.lines().count(), 3);

        // The call column fits the longest call: a space separates it from
        // the locality, and the columns after it align.
        let outcomes = run_script(
            &mut s,
            "dtrsm R L N U 512 128 0.37 256 512\ndtrtri_unb L N 96 2500\n",
        );
        let report = format_report(&outcomes);
        let lines: Vec<&str> = report.lines().collect();
        assert!(
            lines[1].contains("dtrsm(R, L, N, U, 512, 128, 0.37, 256, 512) in-cache"),
            "{report}"
        );
        let column = |line: &str| line.find("in-cache");
        assert_eq!(column(lines[1]), column(lines[2]), "{report}");
        assert_eq!(lines[1].len(), lines[2].len(), "{report}");
        assert_eq!(lines[0].find("locality"), column(lines[1]), "{report}");
    }
}

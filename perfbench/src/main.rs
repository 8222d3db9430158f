//! `perfbench`: the dynex benchmark.
//!
//! One process runs one workload for a fixed wall-clock budget, checks the
//! program's outputs against computations of its own, and prints one JSON
//! result line. The program is driven only through its public entry points
//! and every layer is timed from outside, around those calls. Run it through
//! `perfbench/run.py`, which builds this package first:
//!
//! ```text
//! python3 perfbench/run.py --workload trace-replay --seed 1 --seconds 25 --trace 0
//! ```

mod check;
mod figsweep;
mod replay;
mod servemix;
mod stats;
mod tracing;

use std::process::ExitCode;
use std::time::Duration;

/// Everything one run measured and checked.
pub struct RunResult {
    /// Operations attempted (whole rounds only).
    pub attempted: u64,
    /// Operations that returned an error or a non-200 status.
    pub failed: u64,
    /// Output-check failures; empty when every check held.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Command-line arguments, as the benchmark contract passes them.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The output directory for span files, inside the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_mean_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A workload that never
/// enters a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("traced.op_mean_ms", "ms"),
    ("trace.read_ms", "ms"),
    ("trace.parse_ms", "ms"),
    ("api.filter_ms", "ms"),
    ("api.digest_ms", "ms"),
    ("kernel.dm.reference_ms", "ms"),
    ("kernel.dm.batch_ms", "ms"),
    ("kernel.dm.sweep_ms", "ms"),
    ("kernel.de.reference_ms", "ms"),
    ("kernel.de.batch_ms", "ms"),
    ("kernel.de.sweep_ms", "ms"),
    ("kernel.opt.reference_ms", "ms"),
    ("kernel.opt.batch_ms", "ms"),
    ("kernel.opt.sweep_ms", "ms"),
    ("kernel.ehc.reference_ms", "ms"),
    ("kernel.ehc.batch_ms", "ms"),
    ("kernel.bwcost.reference_ms", "ms"),
    ("kernel.bwcost.batch_ms", "ms"),
    ("kernel.next_use_ms", "ms"),
    ("kernel.simulate_ms", "ms"),
    ("workload.generate_ms", "ms"),
    ("figures.fig4_ms", "ms"),
    ("figures.fig12_ms", "ms"),
    ("figures.fig8_ms", "ms"),
    ("figures.fig14_ms", "ms"),
    ("figures.ehc_ms", "ms"),
    ("figures.bwcost_ms", "ms"),
    ("figures.render_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.cache_lookup_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.sims_executed", "count"),
    ("serve.coalesced_hits", "count"),
    ("serve.hit_ratio", "ratio"),
    ("client.hit_p50_ms", "ms"),
    ("client.miss_p50_ms", "ms"),
    ("client.req_p90_ms", "ms"),
];

/// Orders `measured` as `declared`, filling layers the workload never
/// entered with 0. A measured name or unit that is not declared is a bug
/// in the benchmark.
fn complete(
    measured: &[(String, f64, &'static str)],
    declared: &[(&'static str, &'static str)],
    fill: bool,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    for (name, value, unit) in measured {
        if !declared.contains(&(name.as_str(), *unit)) {
            return Err(format!("metric {name} ({unit}) is not declared"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
    }
    declared
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|(m, _, _)| m == name) {
                Some(found) => Ok(found.clone()),
                None if fill => Ok((name.to_owned(), 0.0, unit)),
                None => Err(format!("metric {name} was not measured")),
            },
        )
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // The engine runs one worker so the numbers measure the program rather
    // than the scheduler of a small machine.
    dynex_engine::set_default_jobs(1);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "trace-replay" => replay::run(&args),
        "figure-sweep" => figsweep::run(&args),
        "serve-mix" => servemix::run(&args),
        other => Err(format!(
            "unknown workload {other:?} (trace-replay|figure-sweep|serve-mix)"
        )),
    };
    let result = result.and_then(|mut result| {
        result.metrics = if args.traced {
            complete(&result.metrics, &PER_LAYER, true)?
        } else {
            complete(&result.metrics, &END_TO_END, false)?
        };
        Ok(result)
    });
    let result = match result {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    };
    for error in &result.errors {
        eprintln!("perfbench: CHECK FAILED: {error}");
    }
    let correct = result.errors.is_empty();
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#))
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        result.attempted,
        result.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynex_obs::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn complete_fills_layers_and_rejects_undeclared_metrics() {
        let measured = vec![("op_p50_ms".to_owned(), 1.5, "ms")];
        assert!(complete(&measured, &END_TO_END, false).is_err());
        let filled = complete(
            &[("serve.hit_ratio".to_owned(), 0.5, "ratio")],
            &PER_LAYER,
            true,
        )
        .unwrap();
        assert_eq!(filled.len(), PER_LAYER.len());
        assert!(complete(&[("bogus".to_owned(), 1.0, "ms")], &PER_LAYER, true).is_err());
        assert!(complete(
            &[("serve.hit_ratio".to_owned(), f64::NAN, "ratio")],
            &PER_LAYER,
            true
        )
        .is_err());
    }
}

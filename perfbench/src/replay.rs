//! `trace-replay`: what one `simcache` invocation does, over a long file
//! trace, for each policy in turn.
//!
//! Set-up writes a ~10M-reference binary trace shaped like the `gcc`
//! profile, drawn from the run's seed. Each operation is `api::load`
//! (read, parse, kind filter, decode) followed by `api::execute` (content
//! key, kernel) at 32KB with 4B lines under the default kernel. This is the
//! load-path-heavy workload: for `dm` the load and digest dwarf the kernel.
//! The trace's stack references sit near `0x7fffeffc`, which pushes line
//! ids past the flat next-use table, so `opt` and `ehc` run the hashed
//! oracle.

use std::time::Instant;

use dynex_cache::{CacheConfig, Kernel, KindFilter};
use dynex_engine::PolicyKind;
use dynex_experiments::api::{self, SimulationRequest, SimulationResponse};
use dynex_obs::NoopProbe;
use dynex_trace::{io as trace_io, ReadPolicy};
use dynex_workload::{AppParams, DataPattern};

use crate::check::{self, Expected};
use crate::stats::{mean, median};
use crate::tracing::{program_stage_ms, Spans};
use crate::{peak_rss_mb, Args, RunResult, OUT_DIR};

/// References in the set-up trace.
const REFS: usize = 10_000_000;
/// The simulated cache: the paper's headline 32KB with 4B lines.
const SIZE: u32 = 32 * 1024;
const LINE: u32 = 4;
/// One round: one invocation per policy.
pub const POLICIES: [&str; 5] = ["dm", "de", "opt", "ehc", "bwcost"];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The `gcc` profile's shape (many passes over a large text segment, with
/// rare helper excursions, a pointer-chased and a hot data region, stack
/// frames), with structure, layout and data drawn from `seed`.
fn gcc_shaped(seed: u64) -> AppParams {
    let mut p = AppParams::new(seed);
    p.phases = 18;
    p.inner_trips = (15, 60);
    p.body_words = (15, 40);
    p.hot_helpers_per_phase = 2;
    p.hot_helper_words = (60, 200);
    p.rare_helpers_per_phase = 13;
    p.rare_helper_words = (80, 240);
    p.rare_call_prob = 0.06;
    p.frame_words = 3;
    p.data_patterns = vec![
        DataPattern::Chase {
            base: 0x1000_0000,
            len_words: 2_500,
            perm_seed: seed ^ 0x5eed,
        },
        DataPattern::Hot {
            base: 0x1010_0000,
            len_words: 512,
        },
    ];
    p.body_data = vec![(0, 1, 0.25), (1, 2, 0.4)];
    p
}

/// The set-up trace's addresses, generated again from `seed` for the checks
/// once the timed loop is over.
fn addresses(seed: u64) -> Vec<u32> {
    gcc_shaped(seed)
        .build()
        .trace(REFS)
        .iter()
        .map(|a| a.addr())
        .collect()
}

/// Generates the trace and writes it to `path`. The trace is dropped once
/// written, so the timed loop holds only what `api::load` allocates.
fn set_up(seed: u64, path: &str) -> Result<(), String> {
    let trace = gcc_shaped(seed).build().trace(REFS);
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = std::io::BufWriter::new(file);
    trace_io::write_binary(&mut writer, &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
    std::io::Write::flush(&mut writer).map_err(|e| format!("cannot write {path}: {e}"))
}

fn request(policy: &str, path: &str) -> Result<SimulationRequest, String> {
    SimulationRequest::builder()
        .policy(policy)
        .size("32K")
        .line(LINE)
        .kinds("all")
        .trace_path(path)
        .jobs(1)
        .build()
        .map_err(|e| format!("request for {policy}: {e}"))
}

/// One operation, traced: the untouched `api::load` and `api::execute`
/// calls, one span each, under the operation's span.
fn traced_op(spans: &mut Spans, request: &SimulationRequest) -> Result<SimulationResponse, String> {
    let op_start = Instant::now();
    let start = Instant::now();
    let loaded = api::load(request).map_err(|e| e.to_string());
    let load = spans.record("api.load", None, start);
    let start = Instant::now();
    let answer =
        loaded.and_then(|loaded| api::execute(request, &loaded).map_err(|e| e.to_string()));
    let execute = spans.record("api.execute", None, start);
    let op = spans.record(&format!("op.{}", request.org.name()), None, op_start);
    spans.adopt(load, op);
    spans.adopt(execute, op);
    answer
}

/// The load path taken apart, once per traced round and outside the timed
/// operations: read, parse, filter/decode and digest, each under its own
/// span, through the public calls `api::load` and `api::execute` are made
/// of (a binary trace under the strict read policy, as the requests here
/// ask for).
fn load_layers(spans: &mut Spans, request: &SimulationRequest, path: &str) -> Result<(), String> {
    let start = Instant::now();
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    spans.record("trace.read", None, start);
    let start = Instant::now();
    let (trace, report) = trace_io::read_binary_with(&bytes[..], ReadPolicy::Strict, NoopProbe)
        .map_err(|e| format!("{path}: {e}"))?;
    spans.record("trace.parse", None, start);
    drop(bytes);
    let start = Instant::now();
    let loaded = api::filter_trace(&trace, KindFilter::All, report.skipped);
    spans.record("api.filter", None, start);
    drop(trace);
    let start = Instant::now();
    std::hint::black_box(
        request
            .content_key(&loaded.addrs)
            .map_err(|e| e.to_string())?,
    );
    spans.record("api.digest", None, start);
    Ok(())
}

/// The 13 supported (policy, kernel) cells of the capability matrix, each
/// timed once over the set-up trace's addresses.
fn kernel_matrix(
    spans: &mut Spans,
    addrs: &[u32],
    config: CacheConfig,
) -> Result<Vec<(String, f64)>, String> {
    let mut cells = Vec::new();
    for name in POLICIES {
        let policy = PolicyKind::parse(name).map_err(|e| e.to_string())?;
        for kernel in [Kernel::Reference, Kernel::Batch, Kernel::Sweep] {
            if !policy.supported_kernels().contains(&kernel) {
                continue;
            }
            let start = Instant::now();
            std::hint::black_box(
                policy
                    .simulate_kernel(kernel, config, std::hint::black_box(addrs))
                    .map_err(|e| e.to_string())?,
            );
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let label = format!("kernel.{name}.{kernel}");
            spans.record(&label, None, start);
            cells.push((label, ms));
        }
    }
    Ok(cells)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut spans = Spans::new(args.traced);
    if args.traced {
        dynex_obs::span::enable_latency();
    }
    let path = format!("{OUT_DIR}/trace-replay-{}.dxt", args.seed);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        set_up(args.seed, &path)?;
        setups.push(start.elapsed().as_secs_f64());
        spans.record("setup", None, start);
    }
    let requests: Vec<SimulationRequest> = POLICIES
        .iter()
        .map(|p| request(p, &path))
        .collect::<Result<_, _>>()?;
    let config = requests[0].cache_config().map_err(|e| e.to_string())?;

    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let mut op_ms = Vec::new();
    let mut de_ms = Vec::new();
    let mut answers: Vec<(usize, SimulationResponse)> = Vec::new();
    let mut rss = None;
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        for (i, req) in requests.iter().enumerate() {
            let start = Instant::now();
            let answer = if args.traced {
                traced_op(&mut spans, req)
            } else {
                api::load(req)
                    .and_then(|loaded| api::execute(req, &loaded))
                    .map_err(|e| e.to_string())
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            op_ms.push(ms);
            if POLICIES[i] == "de" {
                de_ms.push(ms);
            }
            result.attempted += 1;
            match answer {
                Ok(answer) => answers.push((i, answer)),
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", POLICIES[i]);
                    result.failed += 1;
                }
            }
        }
        // Peak memory of the first round, as in figure-sweep.
        rss.get_or_insert_with(peak_rss_mb);
        if args.traced {
            load_layers(&mut spans, &requests[0], &path)?;
        }
    }
    let rss = rss.unwrap_or_else(peak_rss_mb);
    let ops = result.attempted;

    let addrs = addresses(args.seed);
    if args.traced {
        let next_use = program_stage_ms("kernel.next-use", ops);
        let simulate = program_stage_ms("kernel.simulate", ops);
        let cells = kernel_matrix(&mut spans, &addrs, config)?;
        result.push("traced.op_mean_ms", mean(&op_ms), "ms");
        for layer in ["trace.read", "trace.parse", "api.filter", "api.digest"] {
            result.push(format!("{layer}_ms"), spans.mean_ms(layer), "ms");
        }
        result.push("kernel.next_use_ms", next_use, "ms");
        result.push("kernel.simulate_ms", simulate, "ms");
        for (label, ms) in cells {
            result.push(format!("{label}_ms"), ms, "ms");
        }
        spans.write_jsonl(&format!("{OUT_DIR}/spans-trace-replay-{}.jsonl", args.seed))?;
    } else {
        result.push("setup_s", median(&setups), "s");
        result.push("peak_rss_mb", rss, "MB");
        // The median of one policy's invocations: a median over a round of
        // five unlike operations would follow whichever policy happens to
        // rank third in cost.
        result.push("op_p50_ms", median(&de_ms), "ms");
        result.push("op_mean_ms", mean(&op_ms), "ms");
    }

    // Checks, outside the timed loop, on the addresses generated again
    // from the seed.
    let expected = Expected::compute(&addrs, SIZE, LINE);
    let first_round: Vec<(&str, &SimulationResponse)> = POLICIES
        .iter()
        .enumerate()
        .filter_map(|(i, p)| answers.iter().find(|(j, _)| *j == i).map(|(_, a)| (*p, a)))
        .collect();
    result.errors.extend(check::check_policies(
        "trace-replay",
        &expected,
        &first_round,
    ));
    result.errors.extend(check::check_repeats(
        answers.iter().map(|(i, a)| (POLICIES[*i], a)),
    ));
    std::fs::remove_file(&path).map_err(|e| format!("cannot remove {path}: {e}"))?;
    Ok(result)
}

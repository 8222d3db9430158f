//! `figure-sweep`: regenerating a set of the paper's figures.
//!
//! Set-up generates the ten-profile workload bundle at ~1M references each
//! (`Workloads::generate`). Each operation renders one figure through
//! `figures::run` and writes its CSV text. The set covers the flat next-use
//! oracle (the instruction-stream figures), the hashed one (`fig14`'s data
//! streams), the windowed-uses oracle (`ehc`) and the two-level hierarchy
//! reference path (`fig8`). This is the kernel-, oracle- and engine-heavy
//! workload; it reads no files and computes no content keys.

use std::time::Instant;

use dynex_cache::SplitMix64;
use dynex_experiments::{figures, Table, Workloads};

use crate::check;
use crate::stats::{mean, median};
use crate::tracing::{program_stage_ms, Spans};
use crate::{peak_rss_mb, Args, RunResult, OUT_DIR};

/// The figures of one pass.
pub const FIGURES: [&str; 6] = ["fig4", "fig12", "fig8", "fig14", "ehc", "bwcost"];
/// Base references per profile; the seed adds up to 4095 more.
const BASE_REFS: usize = 1_000_000;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The direct-mapped column of each figure whose DM miss rates must never
/// rise with size.
const DM_COLUMNS: [(&str, &str); 3] = [
    ("fig4", "direct-mapped"),
    ("fig14", "direct-mapped %"),
    ("ehc", "DM miss %"),
];

fn csv(table: &Table) -> Result<String, String> {
    let mut out = Vec::new();
    table.write_csv(&mut out).map_err(|e| e.to_string())?;
    String::from_utf8(out).map_err(|e| e.to_string())
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut spans = Spans::new(args.traced);
    if args.traced {
        dynex_obs::span::enable_latency();
    }
    let refs = BASE_REFS + (SplitMix64::new(args.seed).next_u64() % 4096) as usize;
    let mut setups = Vec::new();
    let mut workloads = None;
    for _ in 0..SETUP_REPS {
        // Free the previous bundle first so peak memory holds one copy.
        drop(workloads.take());
        let start = Instant::now();
        workloads = Some(Workloads::generate(refs));
        setups.push(start.elapsed().as_secs_f64());
        spans.record("workload.generate", None, start);
    }
    let workloads = workloads.expect("at least one set-up ran");

    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let mut op_ms = Vec::new();
    let mut fig4_ms = Vec::new();
    let mut outputs: Vec<(&str, Table, String)> = Vec::new();
    // Peak memory of the first pass: later passes repeat the same work, but
    // allocator fragmentation adds a few MB that depend on how many passes
    // fit in the run.
    let mut rss = None;
    let started = Instant::now();
    while started.elapsed() < args.seconds {
        // Always the same order: a figure's time depends on what ran before
        // it (the first one of a process pays for fresh heap pages), and a
        // shuffled order moved single figures by up to 40% between runs.
        for id in FIGURES {
            let start = Instant::now();
            let table = figures::run(id, &workloads);
            let figure = spans.record(&format!("figures.{id}"), None, start);
            let render_start = Instant::now();
            let outcome = match table {
                Some(table) => csv(&table).map(|text| (table, text)),
                None => Err("figures::run does not know it".to_owned()),
            };
            let render = spans.record("figures.render", None, render_start);
            let op = spans.record("op", None, start);
            spans.adopt(figure, op);
            spans.adopt(render, op);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            op_ms.push(ms);
            if id == "fig4" {
                fig4_ms.push(ms);
            }
            result.attempted += 1;
            match outcome {
                Ok((table, text)) => outputs.push((id, table, text)),
                Err(e) => {
                    eprintln!("perfbench: {id} failed: {e}");
                    result.failed += 1;
                }
            }
        }
        rss.get_or_insert_with(peak_rss_mb);
    }
    let rss = rss.unwrap_or_else(peak_rss_mb);
    let ops = result.attempted;

    if args.traced {
        result.push("traced.op_mean_ms", mean(&op_ms), "ms");
        result.push(
            "workload.generate_ms",
            spans.mean_ms("workload.generate"),
            "ms",
        );
        for id in FIGURES {
            result.push(
                format!("figures.{id}_ms"),
                spans.mean_ms(&format!("figures.{id}")),
                "ms",
            );
        }
        result.push("figures.render_ms", spans.mean_ms("figures.render"), "ms");
        result.push(
            "kernel.next_use_ms",
            program_stage_ms("kernel.next-use", ops),
            "ms",
        );
        result.push(
            "kernel.simulate_ms",
            program_stage_ms("kernel.simulate", ops),
            "ms",
        );
        spans.write_jsonl(&format!("{OUT_DIR}/spans-figure-sweep-{}.jsonl", args.seed))?;
    } else {
        result.push("setup_s", median(&setups), "s");
        result.push("peak_rss_mb", rss, "MB");
        // The median of one figure's renders: a median over a pass of six
        // unlike figures would follow whichever ranks in the middle.
        result.push("op_p50_ms", median(&fig4_ms), "ms");
        result.push("op_mean_ms", mean(&op_ms), "ms");
    }

    // Checks, outside the timed loop.
    for (id, header) in DM_COLUMNS {
        if let Some((_, table, _)) = outputs.iter().find(|(f, _, _)| *f == id) {
            result
                .errors
                .extend(check::check_dm_monotone(table, header));
        }
    }
    if let Some((_, table, _)) = outputs.iter().find(|(f, _, _)| *f == "fig4") {
        let instr: Vec<Vec<u32>> = workloads
            .iter()
            .map(|(_, trace)| {
                trace
                    .iter()
                    .filter(|a| a.kind().is_instruction())
                    .map(|a| a.addr())
                    .collect()
            })
            .collect();
        result.errors.extend(check::check_fig4_dm(table, &instr));
    }
    for id in FIGURES {
        let mut texts = outputs
            .iter()
            .filter(|(f, _, _)| *f == id)
            .map(|(_, _, t)| t);
        if let Some(first) = texts.next() {
            if texts.any(|t| t != first) {
                result
                    .errors
                    .push(format!("{id}: passes rendered different CSV text"));
            }
        }
    }
    Ok(result)
}

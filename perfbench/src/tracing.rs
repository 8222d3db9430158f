//! The benchmark's own spans, kept in memory during a traced run and
//! written out as JSONL when the run ends.
//!
//! Each span covers one call into a public entry point of the program (or
//! one operation made of such calls). Untraced runs record nothing: the
//! recorder is a no-op unless it was created enabled.

use std::io::Write;
use std::time::Instant;

struct SpanRecord {
    name: String,
    parent: Option<usize>,
    start_us: f64,
    dur_us: f64,
}

/// An in-memory span list.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    records: Vec<SpanRecord>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            records: Vec::new(),
        }
    }

    /// Records a closed span running from `start` until now and returns its
    /// id (for parenting), or `None` when tracing is off.
    pub fn record(&mut self, name: &str, parent: Option<usize>, start: Instant) -> Option<usize> {
        self.record_between(name, parent, start, Instant::now())
    }

    /// Records a closed span over `[start, end]`.
    pub fn record_between(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.records.push(SpanRecord {
            name: name.to_owned(),
            parent,
            start_us: start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: end.saturating_duration_since(start).as_secs_f64() * 1e6,
        });
        Some(self.records.len() - 1)
    }

    /// Re-parents `child` under `parent` (an operation span is recorded
    /// only when it closes, after its children).
    pub fn adopt(&mut self, child: Option<usize>, parent: Option<usize>) {
        if let (Some(child), Some(_)) = (child, parent) {
            self.records[child].parent = parent;
        }
    }

    /// Mean duration in ms of the spans named `name` (0 when none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.dur_us / 1e3)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            crate::stats::mean(&durations)
        }
    }

    /// Writes every span as one JSON line to `path` (no-op when off).
    pub fn write_jsonl(&self, path: &str) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
        );
        for (id, r) in self.records.iter().enumerate() {
            let parent = r
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{id},"parent":{parent},"name":"{}","start_us":{:.1},"dur_us":{:.1}}}"#,
                r.name, r.start_us, r.dur_us
            )
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        out.flush().map_err(|e| format!("cannot write {path}: {e}"))
    }
}

/// Mean milliseconds per `per` operations of a program stage recorded by
/// `dynex_obs::span` (0 when the stage never ran).
pub fn program_stage_ms(stage: &str, per: u64) -> f64 {
    let snapshot = dynex_obs::span::latency_snapshot();
    match snapshot.get(stage) {
        Some(stats) if per > 0 => stats.total_us as f64 / 1e3 / per as f64,
        _ => 0.0,
    }
}

//! The traced run's span recorder. Spans are taken from outside the
//! program, around each call the benchmark makes into a layer: name,
//! start, duration, parent, and the allocation calls and peak heap
//! growth inside the call. They stay in memory until the run ends and
//! are then written as `epplan_obs::TraceEvent` JSON lines, the format
//! `epplan report --trace FILE` reads to compute self time.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use epplan_memtrack::MemoryProbe;
use epplan_obs::{OwnedTraceEvent, TraceEvent};

/// A call's result with its wall time and allocation count.
#[derive(Debug)]
pub struct Timed<T> {
    /// The call's return value.
    pub value: T,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Allocation calls made during the call (all threads).
    pub allocs: u64,
}

/// An open span that encloses other spans (the per-workload root).
#[derive(Debug)]
pub struct Open {
    id: u64,
    name: String,
    parent: Option<u64>,
    start: Instant,
}

impl Open {
    /// The span id, to pass as the parent of child spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// In-memory span store for one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    events: Vec<OwnedTraceEvent>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            events: Vec::new(),
        }
    }
}

impl Tracer {
    fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn micros_since(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Opens a span that stays open across several timed calls.
    pub fn open(&mut self, name: &str, parent: Option<u64>) -> Open {
        Open {
            id: self.id(),
            name: name.to_string(),
            parent,
            start: Instant::now(),
        }
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, span: Open) {
        let dur_us = span.start.elapsed().as_micros() as u64;
        self.events.push(OwnedTraceEvent {
            ts_us: self.micros_since(span.start),
            id: span.id,
            parent: span.parent,
            span: span.name,
            dur_us,
            iters: 1,
            mem_peak_delta: 0,
            alloc_calls: 0,
        });
    }

    /// Runs `f` as one span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: u64, f: impl FnOnce() -> T) -> Timed<T> {
        let id = self.id();
        let probe = MemoryProbe::scoped();
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed();
        let mem = probe.finish();
        self.events.push(OwnedTraceEvent {
            ts_us: self.micros_since(start),
            id,
            parent: Some(parent),
            span: name.to_string(),
            dur_us: elapsed.as_micros() as u64,
            iters: 1,
            mem_peak_delta: mem.peak_delta_bytes as u64,
            alloc_calls: mem.alloc_calls as u64,
        });
        Timed {
            value,
            secs: elapsed.as_secs_f64(),
            allocs: mem.alloc_calls as u64,
        }
    }

    /// Writes every span to `path` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for e in &self.events {
            let line = TraceEvent {
                ts_us: e.ts_us,
                id: e.id,
                parent: e.parent,
                span: &e.span,
                dur_us: e.dur_us,
                iters: e.iters,
                mem_peak_delta: e.mem_peak_delta,
                alloc_calls: e.alloc_calls,
            }
            .to_json();
            out.push_str(&line);
            out.push('\n');
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.sync_all()
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into a layer's public functions from
//! the benchmark's own code: name, start, end, parent span and step id.
//! They stay in memory until the run ends and are then written out as
//! TSV, with each span's self time (its duration minus the part of it
//! its child spans cover).

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    step: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are recorded; an off tracer only runs the closures.
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts step `step`: spans opened from now on carry its id.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step: self.step,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Per step that recorded any span, the summed duration of the spans
    /// named `name`, milliseconds (0 for a step without one).
    pub fn per_step_ms(&self, name: &str) -> Vec<f64> {
        let mut steps: Vec<(u64, f64)> = Vec::new();
        for s in &self.spans {
            if steps.last().map(|(id, _)| *id) != Some(s.step) {
                steps.push((s.step, 0.0));
            }
            if s.name == name {
                steps.last_mut().expect("pushed above").1 += (s.end_ns - s.start_ns) as f64 * 1e-6;
            }
        }
        steps.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Durations of every span named `name`, milliseconds.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect()
    }

    /// Writes every span as one TSV row, self time included.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstep\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[id]);
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}\t{self_ns}",
                s.name, s.step, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

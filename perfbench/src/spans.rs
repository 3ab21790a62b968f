//! Spans the benchmark records around its own calls into each layer's
//! public functions. They are kept in memory and written out once, when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::probe::median;

/// One recorded span.
struct Span {
    rep: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An entered span: its start, and its record index when tracing is on.
pub struct Open {
    id: Option<usize>,
    start: Instant,
}

/// The span recorder. Switched off it still times: [`Spans::exit`]
/// returns the elapsed seconds either way, so untraced repetitions time
/// the same stages without keeping records.
pub struct Spans {
    on: bool,
    rep: usize,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            on: false,
            rep: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Spans {
    /// Starts repetition `rep`, keeping its spans only when `on`.
    pub fn start_rep(&mut self, rep: usize, on: bool) {
        self.rep = rep;
        self.on = on;
    }

    /// Whether this repetition records spans.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span named `name`, a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let id = if self.on {
            let id = self.spans.len();
            let start_ns = self.nanos(start);
            self.spans.push(Span {
                rep: self.rep,
                parent: self.stack.last().copied(),
                name,
                start_ns,
                end_ns: start_ns,
            });
            self.stack.push(id);
            Some(id)
        } else {
            None
        };
        Open { id, start }
    }

    /// Closes `open` (the innermost open span) and returns its duration
    /// in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(id) = open.id {
            self.spans[id].end_ns = self.nanos(end);
            self.stack.pop();
        }
        end.duration_since(open.start).as_secs_f64()
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Per span name, sorted: the median over traced repetitions of the
    /// name's self time (its spans' durations minus what their child
    /// spans cover) and of its total time, in seconds per repetition.
    pub fn self_times(&self) -> Vec<(&'static str, f64, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_rep: BTreeMap<(&'static str, usize), (f64, f64)> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&covered) {
            let dur = s.end_ns - s.start_ns;
            let e = per_rep.entry((s.name, s.rep)).or_default();
            e.0 += dur.saturating_sub(c) as f64 / 1e9;
            e.1 += dur as f64 / 1e9;
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for ((name, _), (self_s, total_s)) in per_rep {
            let e = by_name.entry(name).or_default();
            e.0.push(self_s);
            e.1.push(total_s);
        }
        by_name
            .into_iter()
            .map(|(name, (s, t))| (name, median(&s), median(&t)))
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"rep\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.rep, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut spans = Spans::default();
        spans.start_rep(0, false);
        let open = spans.enter("outer");
        assert!(spans.exit(open) >= 0.0);
        assert!(spans.self_times().is_empty(), "off keeps no spans");

        spans.start_rep(1, true);
        let outer = spans.enter("outer");
        let inner = spans.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(20));
        let inner_s = spans.exit(inner);
        let outer_s = spans.exit(outer);
        let times = spans.self_times();
        let get = |n: &str| times.iter().find(|t| t.0 == n).expect("recorded");
        assert!(inner_s >= 0.02 && outer_s >= inner_s);
        assert!(get("outer").1 < 0.01, "outer self time excludes inner");
        assert!(get("inner").1 >= 0.02);
    }
}

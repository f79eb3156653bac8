//! Spans of a traced run, kept in memory and written when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! id of the request it serves. A layer's self time is its span minus
//! the part of that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub req: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

#[derive(Default)]
pub struct Spans(Vec<Span>);

impl Spans {
    /// Records a span and returns its id, for use as a child's parent.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.0.push(Span {
            name,
            parent,
            req,
            start,
            end,
        });
        self.0.len() - 1
    }

    /// Closes a span opened before its children.
    pub fn set_end(&mut self, id: usize, end: Instant) {
        self.0[id].end = end;
    }

    /// Appends another thread's spans, re-basing their parent ids.
    pub fn append(&mut self, other: Spans) {
        let base = self.0.len();
        self.0.extend(other.0.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Self time of every span named `name`, µs: its duration minus the
    /// union of its children's intervals.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.0.len()];
        for s in &self.0 {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.0
            .iter()
            .zip(children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, mut kids)| {
                kids.sort();
                let (mut covered, mut reach) = (0.0, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach).min(s.end), b.min(s.end));
                    if b > a {
                        covered += (b - a).as_secs_f64() * 1e6;
                        reach = b;
                    }
                }
                s.us() - covered
            })
            .collect()
    }

    /// Writes one tab-separated line per span: id, name, parent, request,
    /// start and end in µs since `origin`.
    pub fn write(&self, path: &Path, origin: Instant) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\treq\tstart_us\tend_us")?;
        let at = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        for (id, s) in self.0.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{:.1}\t{:.1}",
                s.name,
                s.req,
                at(s.start),
                at(s.end)
            )?;
        }
        out.flush()
    }
}

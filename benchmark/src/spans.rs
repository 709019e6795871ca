//! Spans recorded from the runner's own files, around each call into a
//! layer. Kept in memory; written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// How much a repetition records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing: the end-to-end runs.
    Off,
    /// Set-up phases and the timed section as a whole (a dozen spans).
    Coarse,
    /// Also one span per call inside the timed section.
    Full,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An open span; hand it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Tok(Option<usize>);

pub struct Tracer {
    pub level: Level,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(level: Level) -> Tracer {
        Tracer {
            level,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn full(&self) -> bool {
        self.level == Level::Full
    }

    fn open(&mut self, name: &'static str) -> Tok {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Tok(Some(id))
    }

    /// Open a phase span (recorded at `Coarse` and `Full`).
    pub fn begin(&mut self, name: &'static str) -> Tok {
        if self.level == Level::Off {
            return Tok(None);
        }
        self.open(name)
    }

    /// Open a per-call span (recorded at `Full` only).
    pub fn begin_op(&mut self, name: &'static str) -> Tok {
        if self.level != Level::Full {
            return Tok(None);
        }
        self.open(name)
    }

    /// Close a span; returns its duration in ns (0 when not recorded).
    pub fn end(&mut self, tok: Tok) -> u64 {
        let Some(id) = tok.0 else { return 0 };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        now - self.spans[id].start_ns
    }

    /// Duration of the first span called `name`, in ns.
    pub fn duration_of(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    /// Self time per span: its duration minus what its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self time summed by span name, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let own = self.self_times();
        let mut by: Vec<(&'static str, u64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match by.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += t;
                    row.2 += 1;
                }
                None => by.push((s.name, t, 1)),
            }
        }
        by.sort_by_key(|row| std::cmp::Reverse(row.1));
        by
    }

    /// One JSON object per line; `rep` says which repetition recorded it.
    pub fn write_jsonl(&self, out: &mut String, workload: &str, rep: &str) {
        let own = self.self_times();
        for (id, (s, own_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"rep\": \"{rep}\", \"id\": {id}, \
                 \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {own_ns}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Level::Full);
        let outer = t.begin("outer");
        let a = t.begin_op("child");
        t.end(a);
        let b = t.begin_op("child");
        t.end(b);
        t.end(outer);
        let own = t.self_times();
        let kids: u64 = t.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], t.spans[0].end_ns - t.spans[0].start_ns - kids);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.self_time_by_name()[0].2 + t.self_time_by_name()[1].2, 3);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(Level::Off);
        let a = t.begin("x");
        assert_eq!(t.end(a), 0);
        assert!(t.spans.is_empty());
    }
}

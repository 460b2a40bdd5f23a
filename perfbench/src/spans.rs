//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` around one call into a layer,
//! recorded from the benchmark's side of the call. Spans stay in memory
//! and are written out once, when the run ends. A disabled recorder (the
//! untraced run) reads no clock at all: `span` just calls its closure.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `storage.populate`.
    pub name: String,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing and reads no clock.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Spans {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread sharing this one's origin and mode.
    pub fn fork(&self) -> Spans {
        Spans::new(self.enabled, self.origin)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Adopt the spans another thread recorded, re-parenting its roots
    /// under this recorder's innermost open span.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// All spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Per-set-up totals: for every span named `root`, the summed self
    /// time (seconds) of its descendants named `name`.
    pub fn self_s_under(&self, root: &str, name: &str) -> Vec<f64> {
        let selfs = self.self_ns();
        let mut totals = Vec::new();
        for (ri, r) in self.spans.iter().enumerate() {
            if r.name != root {
                continue;
            }
            let sum: u64 = self
                .spans
                .iter()
                .enumerate()
                .filter(|(i, s)| s.name == name && self.descends_from(*i, ri))
                .map(|(i, _)| selfs[i])
                .sum();
            totals.push(sum as f64 * 1e-9);
        }
        totals
    }

    fn descends_from(&self, mut i: usize, ancestor: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == ancestor {
                return true;
            }
            i = p;
        }
        false
    }

    /// Write every span as a tab-separated `span` line:
    /// `span id parent name start_ns end_ns self_ns` (parent `-` for roots).
    pub fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "span\t{i}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true, Instant::now());
        sp.span("root", |sp| {
            sp.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            sp.span("child", |_| ());
        });
        let selfs = sp.self_ns();
        let s = sp.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        let root = s[0].end_ns - s[0].start_ns;
        let children: u64 = s[1..].iter().map(|c| c.end_ns - c.start_ns).sum();
        assert_eq!(selfs[0], root - children);
        assert_eq!(sp.self_s_under("root", "child").len(), 1);
        assert!(sp.self_s_under("root", "child")[0] >= 0.005);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false, Instant::now());
        assert_eq!(sp.span("x", |_| 7), 7);
        assert!(sp.spans().is_empty());
    }

    #[test]
    fn merge_reparents_roots() {
        let origin = Instant::now();
        let mut sp = Spans::new(true, origin);
        let mut other = sp.fork();
        other.span("a", |sp| sp.span("b", |_| ()));
        sp.span("loop", |sp| sp.merge(other));
        let s = sp.spans();
        assert_eq!(s[1].name, "a");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
    }
}

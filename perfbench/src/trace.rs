//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (no timer lives inside the program). A span
//! is `(name, start, end, parent)`; spans opened while another is open
//! become its children. A layer's *self time* is its span's duration
//! minus the time its child spans cover. The recorder is disabled in
//! untraced runs, where [`Tracer::span`] only calls the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; when `enabled` is false every call is a plain call.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Duration of every span named `root`, in milliseconds, in order.
    #[must_use]
    pub fn durations_ms(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, _)| self.dur_ns(id) as f64 / 1e6)
            .collect()
    }

    /// For every span named `root`: the self time (ms) of each span
    /// name in its subtree, summed per name, with the root's own self
    /// time under `root` — the part of the root no child accounts for.
    #[must_use]
    pub fn breakdown(&self, root: &str) -> Vec<BTreeMap<&'static str, f64>> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        let self_ns = |id: usize| {
            // Children run sequentially on this thread, so their
            // intervals are disjoint and their durations add.
            let covered: u64 = children[id].iter().map(|&c| self.dur_ns(c)).sum();
            self.dur_ns(id).saturating_sub(covered)
        };
        let mut out = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != root {
                continue;
            }
            let mut per_name: BTreeMap<&'static str, f64> = BTreeMap::new();
            let mut stack = vec![id];
            while let Some(n) = stack.pop() {
                *per_name.entry(self.spans[n].name).or_default() += self_ns(n) as f64 / 1e6;
                stack.extend(&children[n]);
            }
            out.push(per_name);
        }
        out
    }

    /// Every recorded span as tab-separated `id name start_ns end_ns
    /// parent` lines (parent `-` for roots).
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(3))
                });
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let b = &t.breakdown("root")[0];
        let total = t.durations_ms("root")[0];
        let sum: f64 = b.values().sum();
        assert!((sum - total).abs() < 1e-6, "{sum} vs {total}");
        assert!(b["b"] >= 3.0 && b["a"] < 1.0 && b["root"] >= 2.0);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.durations_ms("x").is_empty());
    }
}

//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer's public API, recorded from the
//! benchmark's side of the call: name, start, end, the span that caused
//! it, and (for calls that step the simulator) the engine-cycle delta the
//! call retired. Spans stay in memory until the run ends and are then
//! written out as JSON.

use fx8_sim::trace::EngineCycles;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `workload.advance_to`.
    pub name: &'static str,
    /// Which session (or other unit of work) the span belongs to; spans
    /// of one session share it.
    pub track: String,
    /// Index of the causing span within the same recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Engine cycles the call retired, when it stepped the simulator.
    pub cycles: Option<EngineCycles>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A recorder: one per session, merged at the end.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    track: String,
    /// Recorded spans; a child's index is always above its parent's.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose spans carry `track`.
    pub fn new(epoch: Instant, track: String) -> Self {
        Spans {
            epoch,
            track,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now().duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            track: self.track.clone(),
            parent,
            start_ns: now,
            end_ns: now,
            cycles: None,
        });
        self.spans.len() - 1
    }

    /// End span `id`, recording the cycles it retired (if any).
    pub fn close(&mut self, id: usize, cycles: Option<EngineCycles>) {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.cycles = cycles;
    }

    /// Time one call as a span under `parent`; returns its output and
    /// its duration in seconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id, None);
        (out, self.spans[id].secs())
    }

    /// Append another recorder's spans, re-indexing their parents.
    pub fn extend(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Indices of `id`'s direct children.
    pub fn children(&self, id: usize) -> impl Iterator<Item = usize> + '_ {
        (id + 1..self.spans.len()).filter(move |&c| self.spans[c].parent == Some(id))
    }

    /// A span's self time: its duration minus the part of that interval
    /// its children cover (overlapping children counted once).
    pub fn self_secs(&self, id: usize) -> f64 {
        let mut kids: Vec<(u64, u64)> = self
            .children(id)
            .map(|c| (self.spans[c].start_ns, self.spans[c].end_ns))
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let s = &self.spans[id];
        ((s.end_ns - s.start_ns).saturating_sub(covered)) as f64 * 1e-9
    }

    /// Every child lies inside its parent, and siblings never overlap (a
    /// session steps on one thread, so its calls are sequential).
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} {} ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            let ps = &self.spans[p];
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "span {i} {} [{}, {}] escapes its parent {} [{}, {}]",
                    s.name, s.start_ns, s.end_ns, ps.name, ps.start_ns, ps.end_ns
                ));
            }
        }
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        for (p, k) in kids.iter_mut().enumerate() {
            k.sort_unstable();
            if k.windows(2).any(|w| w[1].0 < w[0].1) {
                return Err(format!("children of span {p} overlap"));
            }
        }
        Ok(())
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cycles = s.cycles.map_or("null".to_string(), |c| {
                format!(
                    "{{\"scalar\":{},\"dense\":{},\"skipped\":{},\"total\":{}}}",
                    c.scalar, c.dense, c.skipped, c.total
                )
            });
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"track\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"cycles\":{cycles}}}{sep}",
                s.name, s.track, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Cycles retired between two snapshots of one cluster.
pub fn cycles_between(before: &EngineCycles, after: &EngineCycles) -> EngineCycles {
    EngineCycles {
        scalar: after.scalar - before.scalar,
        dense: after.dense - before.dense,
        skipped: after.skipped - before.skipped,
        total: after.total - before.total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut s = Spans::new(Instant::now(), "t".into());
        let root = s.open("root", None);
        s.spans.push(Span {
            name: "a",
            track: "t".into(),
            parent: Some(root),
            start_ns: 10,
            end_ns: 40,
            cycles: None,
        });
        s.spans.push(Span {
            name: "b",
            track: "t".into(),
            parent: Some(root),
            start_ns: 30,
            end_ns: 50,
            cycles: None,
        });
        s.spans[root].start_ns = 0;
        s.spans[root].end_ns = 100;
        assert!((s.self_secs(root) - 60e-9).abs() < 1e-15);
        assert!(s.check_nesting().is_err(), "a and b overlap");
        s.spans[2].start_ns = 40;
        assert!(s.check_nesting().is_ok());
    }
}

//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; spans inside `pdes` are a later change. A disabled recorder
//! does nothing, so the end-to-end pass runs without it.

use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds from recorder creation to span entry.
    pub start_ns: u64,
    /// Nanoseconds from recorder creation to span exit.
    pub end_ns: u64,
    /// Repetition the span belongs to.
    pub rep: u32,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that keeps spans (`true`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Spans {
            origin: Instant::now(),
            enabled,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tag the spans entered from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span under the innermost open one; `None` when disabled.
    fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            rep: self.rep,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        Some(idx)
    }

    /// Run `f` inside a span; the span closes however `f` returns.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        if let Some(idx) = id {
            assert_eq!(self.open.pop(), Some(idx), "spans must nest");
            self.spans[idx].end_ns = self.now_ns();
        }
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Render as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"workload\":\"{workload}\",\
                 \"rep\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.rep,
                s.start_ns,
                s.end_ns,
                self.self_ns(i)
            ));
        }
        out.push_str("\n]}\n");
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut sp = Spans::new(true);
        sp.set_rep(3);
        sp.scope("outer", |sp| {
            sp.scope("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            sp.scope("b", |_| ());
        });
        let s = sp.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|x| x.rep == 3));
        let outer = s[0].end_ns - s[0].start_ns;
        let kids = (s[1].end_ns - s[1].start_ns) + (s[2].end_ns - s[2].start_ns);
        assert_eq!(sp.self_ns(0), outer - kids);
        assert!(s[1].end_ns - s[1].start_ns >= 2_000_000);
        pdes::obs::json::validate(&sp.to_json("w")).expect("trace.json must be valid JSON");
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut sp = Spans::new(false);
        let got = sp.scope("x", |_| 7);
        assert_eq!(got, 7);
        assert!(sp.spans().is_empty());
    }
}

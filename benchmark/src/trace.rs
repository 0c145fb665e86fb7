//! In-memory spans around the benchmark's own calls into the repo's
//! crates. Spans are recorded only in the traced pass; the untraced pass
//! never constructs a `Trace`, so end-to-end numbers carry no timer
//! calls beyond the two around the timed region.

use std::fmt::Write as _;
use std::time::Instant;

use crate::spec::Span;

/// One recorded span. `parent` indexes `Trace::spans` (`u32::MAX` for a
/// root); `calls` is how many library calls the span covers, so a bulk
/// loop of cheap calls can be one span instead of a million.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub name: Span,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Record>,
    stack: Vec<u32>,
}

/// Handle returned by [`Trace::begin`]; pass it back to [`Trace::end`].
#[must_use]
pub struct Open(u32);

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: Span) -> Open {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Record {
            name,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            start_ns,
            end_ns: start_ns,
            calls: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open, calls: u32) {
        let end_ns = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close innermost first");
        let rec = &mut self.spans[open.0 as usize];
        rec.end_ns = end_ns;
        rec.calls = calls;
    }

    /// Record a closed leaf span under the innermost open span from two
    /// timestamps the caller already took, so back-to-back calls share
    /// one clock read at their boundary.
    pub fn leaf(&mut self, name: Span, start_ns: u64, end_ns: u64, calls: u32) {
        self.spans.push(Record {
            name,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            start_ns,
            end_ns,
            calls,
        });
    }

    /// Per span name: self time (duration minus the part covered by child
    /// spans) in seconds, calls, and each span's duration in ns.
    pub fn aggregate(&self) -> Vec<Aggregate> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for rec in &self.spans {
            if rec.parent != u32::MAX {
                child_ns[rec.parent as usize] += rec.end_ns - rec.start_ns;
            }
        }
        let mut out: Vec<Aggregate> = Vec::new();
        for (i, rec) in self.spans.iter().enumerate() {
            let dur = rec.end_ns - rec.start_ns;
            let agg = match out.iter_mut().find(|a| a.name == rec.name) {
                Some(a) => a,
                None => {
                    out.push(Aggregate {
                        name: rec.name,
                        busy_s: 0.0,
                        calls: 0,
                        durations_ns: Vec::new(),
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            agg.busy_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
            agg.calls += u64::from(rec.calls);
            agg.durations_ns.push(dur);
        }
        out
    }

    /// One line per span: `name parent start_ns end_ns calls`.
    pub fn dump(&self) -> String {
        let mut out = String::from("# name parent start_ns end_ns calls\n");
        for rec in &self.spans {
            let parent = if rec.parent == u32::MAX {
                -1
            } else {
                i64::from(rec.parent)
            };
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                rec.name.name(),
                parent,
                rec.start_ns,
                rec.end_ns,
                rec.calls
            );
        }
        out
    }
}

pub struct Aggregate {
    pub name: Span,
    pub busy_s: f64,
    pub calls: u64,
    pub durations_ns: Vec<u64>,
}

/// Run `f` under a span when tracing, bare otherwise.
pub fn spanned<R>(trace: &mut Option<&mut Trace>, name: Span, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(t) => {
            let open = t.begin(name);
            let r = f();
            t.end(open, 1);
            r
        }
        None => f(),
    }
}

//! Spans recorded by the benchmark's own code around each client
//! operation and around direct calls into each layer's public functions.
//! Spans stay in memory and are written out once, when the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::util::Json;

struct Span {
    id: u64,
    parent: u64,
    /// Spans of one client operation share this id.
    trace: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. Disabled, `begin`/`end` cost one branch.
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    next_id: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            next_id: Cell::new(1),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Pauses or resumes recording (the overhead probe alternates).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `parent` 0 makes it a root, `trace` groups the spans
    /// of one operation.
    pub fn begin(&self, name: &'static str, trace: u64, parent: u64) -> Option<Open> {
        if !self.enabled.get() {
            return None;
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        Some(Open {
            id,
            parent,
            trace,
            name,
            start_ns: self.now_ns(),
        })
    }

    /// Closes a span; returns its duration in nanoseconds.
    pub fn end(&self, open: Option<Open>) -> u64 {
        let Some(o) = open else { return 0 };
        let end_ns = self.now_ns();
        self.spans.borrow_mut().push(Span {
            id: o.id,
            parent: o.parent,
            trace: o.trace,
            name: o.name,
            start_ns: o.start_ns,
            end_ns,
        });
        end_ns - o.start_ns
    }

    /// Per span name: count, total time, and self time (duration minus
    /// the part of it covered by child spans), in microseconds.
    pub fn summary(&self) -> Json {
        let spans = self.spans.borrow();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        Json::Obj(
            by_name
                .into_iter()
                .map(|(name, (n, total, own))| {
                    (
                        name.to_owned(),
                        Json::obj([
                            ("count", Json::from(n)),
                            ("total_us", Json::Num(total as f64 / 1e3)),
                            ("self_us", Json::Num(own as f64 / 1e3)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"trace":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        let root = t.begin("op", 1, 0);
        let root_id = root.as_ref().expect("enabled").id();
        let child = t.begin("child", 1, root_id);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ns = t.end(child);
        let root_ns = t.end(root);
        assert!(child_ns >= 2_000_000 && root_ns >= child_ns);
        let s = t.summary().to_string();
        let own = (root_ns - child_ns) as f64 / 1e3;
        assert!(
            s.contains(&format!(
                r#""op":{{"count":1,"total_us":{},"self_us":{own}}}"#,
                root_ns as f64 / 1e3
            )),
            "{s}"
        );
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        let open = t.begin("x", 1, 0);
        assert!(open.is_none());
        assert_eq!(t.end(open), 0);
        assert_eq!(t.summary().to_string(), "{}");
    }
}

//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` around one call into a layer.
//! Spans are kept in memory and written out once, when the run ends; a
//! disabled tracer records nothing, so the untraced run pays one branch
//! per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.shared.cycle`.
    pub name: &'static str,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds (`NaN` while the span is open).
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Token returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "a span stays open until its token is passed to Tracer::exit"]
pub struct Open(Option<usize>);

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open` refers to. Spans must close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds, over the spans named `root`
    /// and everything they enclose: each span's duration minus the part
    /// of it covered by its direct children, summed by name.
    pub fn self_times_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut in_scope = vec![false; self.spans.len()];
        let mut child_time = vec![0.0; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            // A parent always opens, and so is stored, before its children.
            in_scope[id] = span.name == root || span.parent.is_some_and(|p| in_scope[p]);
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for ((span, children), scoped) in self.spans.iter().zip(child_time).zip(in_scope) {
            if scoped {
                *out.entry(span.name).or_insert(0.0) += span.end - span.start - children;
            }
        }
        out
    }

    /// The spans as a JSON array of `{"id", "name", "start_s", "end_s",
    /// "parent"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}{sep}",
                span.name, span.start, span.end
            )
            .expect("writing to a String cannot fail");
        }
        out.push(']');
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        t.span("a", || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(outer);
        t.span("elsewhere", || ());
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let self_times = t.self_times_under("outer");
        assert!(!self_times.contains_key("elsewhere"));
        let outer_total = spans[0].end - spans[0].start;
        let inner_total = spans[1].end - spans[1].start;
        assert!((self_times["outer"] - (outer_total - inner_total)).abs() < 1e-12);
        assert!(self_times["inner"] >= 0.005);
        assert!(t.to_json().contains("\"parent\": 0"));
    }
}

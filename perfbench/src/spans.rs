//! Spans around the benchmark's calls into each layer. Spans are kept in
//! memory and written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` on the tracer's clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans while enabled; costs one branch per call otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pass: u32,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off and starts a new pass id.
    pub fn begin_pass(&mut self, enabled: bool) -> u32 {
        self.enabled = enabled;
        self.pass += 1;
        self.pass
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            label: label.to_owned(),
            pass: self.pass,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans of one pass.
    pub fn pass_spans(&self, pass: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.pass == pass)
    }

    /// Summed duration of the spans named `name` in `pass`, in seconds.
    pub fn total(&self, pass: u32, name: &str) -> f64 {
        self.pass_spans(pass)
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Sum over the pass's spans of their self time (duration minus the
    /// time covered by their children), after checking that every child
    /// lies inside its parent and siblings do not overlap.
    pub fn self_time_sum(&self, pass: u32) -> Result<f64, String> {
        let mut total = 0.0;
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pass == pass)
        {
            let mut children: Vec<&Span> =
                self.spans.iter().filter(|c| c.parent == Some(i)).collect();
            children.sort_by_key(|c| c.start_ns);
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for c in children {
                if c.start_ns < cursor || c.end_ns > s.end_ns || c.end_ns < c.start_ns {
                    return Err(format!("span {} is not nested inside {}", c.name, s.name));
                }
                covered += c.end_ns - c.start_ns;
                cursor = c.end_ns;
            }
            total += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
        }
        Ok(total)
    }

    /// All spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"pass\":{},\"parent\":{parent},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.pass,
                s.name,
                s.label.replace(['"', '\\'], "_"),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

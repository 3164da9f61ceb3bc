//! The harness's measurement log: named samples always, spans when traced.
//!
//! Every call the harness makes into a program layer is bracketed by
//! [`Recorder::begin`] / [`Recorder::end`]. The bracket always appends the
//! elapsed seconds to the sample list of its name — that is what the
//! metrics are computed from, in both runs — and, in a traced run only,
//! also keeps a span (name, start, end, parent, wave id) that is written
//! out when the process ends. The harness calls layers from one thread, so
//! open brackets form a stack and a span's parent is whatever bracket was
//! open when it began.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Bracket name, `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds from the recorder's epoch to the bracket's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's epoch to the bracket's end.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The wave the bracket ran in (`u32::MAX` outside any wave).
    pub wave: u32,
}

/// An open bracket, returned by [`Recorder::begin`].
#[must_use = "pass the token to Recorder::end"]
pub struct Open {
    name: &'static str,
    started: Instant,
    span: Option<usize>,
}

/// Named samples plus (when tracing) the span list.
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    wave: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    /// A recorder; `tracing` decides whether spans are kept.
    pub fn new(tracing: bool) -> Self {
        Recorder {
            tracing,
            epoch: Instant::now(),
            wave: u32::MAX,
            stack: Vec::new(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Sets the wave id stamped on subsequent spans.
    pub fn set_wave(&mut self, wave: usize) {
        self.wave = wave as u32;
    }

    /// Opens a bracket named `name`.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let span = self.tracing.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                wave: self.wave,
            });
            let id = self.spans.len() - 1;
            self.stack.push(id);
            id
        });
        // The clock is read last so bookkeeping stays outside the interval.
        let started = Instant::now();
        if let Some(id) = span {
            self.spans[id].start_ns = (started - self.epoch).as_nanos() as u64;
        }
        Open {
            name,
            started,
            span,
        }
    }

    /// Closes a bracket, records its sample, and returns the elapsed
    /// seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        let secs = (ended - open.started).as_secs_f64();
        if let Some(id) = open.span {
            self.spans[id].end_ns = (ended - self.epoch).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "brackets must nest");
        }
        self.observe(open.name, secs);
        secs
    }

    /// Appends a sample (a count, a size, a duration) under `name`.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The samples recorded under `name` (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of the samples under `name`.
    pub fn sum(&self, name: &str) -> f64 {
        // Not `.sum()`: an empty f64 sum is -0.0, which prints as "-0".
        self.samples(name).iter().fold(0.0, |acc, v| acc + v)
    }

    /// Number of samples under `name`.
    pub fn count(&self, name: &str) -> usize {
        self.samples(name).len()
    }

    /// `sum(num) / sum(den)`, or `0.0` when the denominator is zero — the
    /// harness's convention for "this layer did not run on this workload".
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        div(self.sum(num), self.sum(den))
    }

    /// The `q`-quantile of the samples under `name` (`0.0` if none).
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        quantile(self.samples(name), q)
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            )?;
            match span.parent {
                Some(parent) => write!(out, "{parent}")?,
                None => write!(out, "null")?,
            }
            if span.wave == u32::MAX {
                writeln!(out, ",\"wave\":null}}")?;
            } else {
                writeln!(out, ",\"wave\":{}}}", span.wave)?;
            }
        }
        out.flush()
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (`0.0` for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brackets_nest_and_sample() {
        let mut rec = Recorder::new(true);
        rec.set_wave(3);
        let outer = rec.begin("outer");
        let inner = rec.begin("inner");
        rec.end(inner);
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].wave, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.count("outer"), 1);
        assert!(rec.sum("outer") >= rec.sum("inner"));
        let mut out = Vec::new();
        rec.write_spans(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            crate::json::Json::parse(line).unwrap();
        }
    }

    #[test]
    fn untraced_recorder_keeps_samples_only() {
        let mut rec = Recorder::new(false);
        let open = rec.begin("x");
        rec.end(open);
        rec.observe("n", 4.0);
        rec.observe("n", 6.0);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.count("x"), 1);
        assert_eq!(rec.ratio("n", "n"), 1.0);
        assert_eq!(rec.ratio("n", "missing"), 0.0);
        assert_eq!(rec.quantile("n", 0.5), 5.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}

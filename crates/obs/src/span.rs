//! Lightweight wall-clock span timing.

use std::time::Instant;

/// Times a span of work in nanoseconds.
///
/// A `SpanTimer` is just an [`Instant`]; starting one costs a single clock
/// read, so an observed executor can time every retrieval into its
/// `{engine}.step_ns` histogram.  Readings saturate at `u64::MAX`
/// nanoseconds (~584 years).
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    start: Instant,
}

impl SpanTimer {
    /// Starts timing now.
    pub fn start() -> Self {
        SpanTimer {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`SpanTimer::start`].
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let t = SpanTimer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}

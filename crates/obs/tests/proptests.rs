//! Property-based tests for the observability primitives: registry
//! snapshots are monotone for counters, histogram samples always land in
//! the bucket whose bounds contain them, JSONL events survive a
//! serialize → parse round trip (every field type, the `f64_finite`
//! omission rule, escaped strings), no line — arbitrary bytes or a soup of
//! JSON fragments — makes the reader panic, and the bounded sink's
//! accounting is exact under arbitrary event streams.

use std::sync::Arc;

use proptest::prelude::*;

use batchbb_obs::{jsonl, BoundedSink, Event, EventSink, Histogram, MemorySink, MetricsRegistry};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counters never decrease across snapshots, whatever interleaving of
    /// increments and snapshot reads happens.
    #[test]
    fn counter_snapshots_are_monotone(increments in prop::collection::vec((0usize..4, 0u64..1000), 1..64)) {
        let registry = MetricsRegistry::new();
        let names = ["a", "b", "c", "d"];
        let counters: Vec<_> = names.iter().map(|n| registry.counter(n)).collect();
        let mut last = registry.snapshot();
        for (which, amount) in increments {
            counters[which].add(amount);
            let snap = registry.snapshot();
            for name in names {
                let prev = last.counter(name).unwrap_or(0);
                let now = snap.counter(name).unwrap_or(0);
                prop_assert!(now >= prev, "counter {name} went {prev} -> {now}");
            }
            last = snap;
        }
        // The final snapshot accounts for every increment exactly.
        let total: u64 = last.counters.values().sum();
        let expected: u64 = counters.iter().map(|c| c.get()).sum();
        prop_assert_eq!(total, expected);
    }

    /// Histogram sample counts (total and per bucket) never decrease, and
    /// every recorded value lands in the bucket whose inclusive bounds
    /// contain it.
    #[test]
    fn histogram_buckets_contain_their_samples(values in prop::collection::vec(0u64..u64::MAX, 1..128)) {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("ns");
        let mut last = registry.snapshot();
        for &v in &values {
            let bucket = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(bucket);
            prop_assert!(lo <= v && v <= hi, "{v} outside bucket {bucket} = [{lo}, {hi}]");
            // Neighbouring buckets must NOT contain the value.
            if bucket > 0 {
                let (_, below_hi) = Histogram::bucket_bounds(bucket - 1);
                prop_assert!(v > below_hi);
            }
            h.record(v);
            let snap = registry.snapshot();
            let prev = last.histogram("ns").unwrap();
            let now = snap.histogram("ns").unwrap();
            prop_assert_eq!(now.count, prev.count + 1);
            for b in 0..now.buckets.len() {
                let grew = u64::from(b == bucket);
                prop_assert_eq!(now.buckets[b], prev.buckets[b] + grew, "bucket {}", b);
            }
            last = snap;
        }
        let fin = last.histogram("ns").unwrap();
        prop_assert_eq!(fin.count, values.len() as u64);
        prop_assert_eq!(fin.buckets.iter().sum::<u64>(), fin.count);
        prop_assert_eq!(fin.max, values.iter().copied().max().unwrap());
    }

    /// Arbitrary events serialize to JSONL and parse back to the same
    /// name, field set, and values (non-finite floats become absent).
    #[test]
    fn events_round_trip_through_jsonl(
        u in 0u64..u64::MAX,
        i in -1_000_000i64..1_000_000,
        f in -1e12f64..1e12,
        b in 0u64..2,
        text in prop::collection::vec(0u32..0xd7ff, 0..24),
    ) {
        let b = b == 1;
        let text: String = text.into_iter().map(|c| char::from_u32(c).unwrap()).collect();
        let sink = MemorySink::new();
        sink.emit(
            &Event::new("prop.case")
                .u64("u", u)
                .i64("i", i)
                .f64("f", f)
                .bool("b", b)
                .str("s", text.clone())
                .f64("gone", f64::NAN),
        );
        let line = sink.lines().pop().unwrap();
        let parsed = jsonl::parse_line(&line).unwrap();
        prop_assert_eq!(parsed.name(), "prop.case");
        // u64 round-trips through the f64 accessor only below 2^53; compare
        // against the same truncation the reader documents.
        prop_assert_eq!(parsed.num("u").unwrap(), u as f64);
        prop_assert_eq!(parsed.num("i").unwrap(), i as f64);
        prop_assert_eq!(parsed.num("f").unwrap(), f);
        prop_assert_eq!(parsed.bool("b"), Some(b));
        prop_assert_eq!(parsed.str("s"), Some(text.as_str()));
        prop_assert_eq!(parsed.num("gone"), None);
        prop_assert_eq!(parsed.fields().len(), 5);
    }

    /// `Event::to_jsonl` → `jsonl::parse_line` preserves every field
    /// exactly, including the `f64_finite` omission rule (a non-finite
    /// value never reaches the line; a finite one round-trips bit for
    /// bit) and strings built purely from JSON-escaped characters.
    #[test]
    fn f64_finite_omission_and_escapes_round_trip(
        finite in -1e300f64..1e300,
        class in 0u8..3,
        escapes in prop::collection::vec(
            prop::sample::select(vec!['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '/']),
            1..32,
        ),
    ) {
        let nonfinite = match class {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        let hostile: String = escapes.into_iter().collect();
        let line = Event::new("prop.finite")
            .f64_finite("kept", finite)
            .f64_finite("omitted", nonfinite)
            .f64("nulled", nonfinite)
            .str("hostile", hostile.clone())
            .to_jsonl();
        // The omitted field must not appear in the serialized line at all,
        // while the plain f64 path serializes non-finite as null.
        prop_assert!(!line.contains("\"omitted\""));
        prop_assert!(line.contains("\"nulled\":null"));
        let parsed = jsonl::parse_line(&line).unwrap();
        prop_assert_eq!(parsed.name(), "prop.finite");
        // Bit-exact round trip for the finite value (Debug formatting is
        // the shortest representation that reparses to the same f64).
        prop_assert_eq!(parsed.num("kept").unwrap().to_bits(), finite.to_bits());
        prop_assert_eq!(parsed.num("omitted"), None);
        prop_assert_eq!(parsed.num("nulled"), None, "null parses as absent");
        prop_assert_eq!(parsed.str("hostile"), Some(hostile.as_str()));
        prop_assert_eq!(parsed.fields().len(), 2);
    }

    /// The bounded sink's ledger is exact for any capacity and stream
    /// shape: after close, `emitted == written + dropped`, and the inner
    /// sink holds exactly `written` lines.  Emits after close are counted
    /// drops and write nothing.
    #[test]
    fn bounded_sink_accounting_is_exact(
        capacity in 1usize..64,
        names in prop::collection::vec(0u8..3, 1..128),
        late in 0u64..4,
    ) {
        let mem = Arc::new(MemorySink::new());
        let sink = BoundedSink::builder().capacity(capacity).build(mem.clone());
        for (i, name) in names.iter().enumerate() {
            let name = match name {
                0 => "exec.step",
                1 => "exec.defer",
                _ => "store.fault",
            };
            sink.emit(&Event::new(name).u64("i", i as u64));
        }
        sink.close();
        let closed = sink.stats();
        for _ in 0..late {
            sink.emit(&Event::new("exec.step"));
        }
        let stats = sink.stats();
        prop_assert_eq!(stats.emitted, names.len() as u64 + late);
        prop_assert_eq!(stats.emitted, stats.written + stats.dropped);
        prop_assert_eq!(stats.written, closed.written, "nothing is written after close");
        prop_assert_eq!(stats.dropped, closed.dropped + late, "post-close emits are drops");
        prop_assert_eq!(mem.len() as u64, stats.written);
    }
}

/// Fragments a trace line is made of, plus what breaks one: unbalanced and
/// nested brackets, half escapes, surrogate and malformed `\u` escapes,
/// bare words, not-quite numbers and multi-byte characters next to every
/// delimiter.
const SOUP: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"event\"",
    "\"a\"",
    "\"x.y\"",
    "null",
    "true",
    "false",
    "nul",
    "tru",
    "0",
    "-1",
    "2.5",
    "1e999",
    "-",
    "1e",
    "NaN",
    "\\",
    "\\u",
    "\\ud800",
    "\\u12",
    "\\n",
    "\\q",
    " ",
    "\t",
    "é",
    "\u{1F600}",
    "\0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any line is answered with `Ok` or `Err`: the trace reader never
    /// unwinds (a panic here fails the case), and what it accepts has a
    /// name.
    #[test]
    fn no_line_panics_the_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        soup in prop::collection::vec(0..SOUP.len(), 0..40),
        wrapped in any::<bool>(),
    ) {
        let _ = jsonl::parse_line(&String::from_utf8_lossy(&bytes));
        let mut text: String = soup.into_iter().map(|piece| SOUP[piece]).collect();
        if wrapped {
            // Most soups die at the first byte; give half a valid opening.
            text = format!("{{\"event\":\"e\",{text}");
        }
        if let Ok(event) = jsonl::parse_line(&text) {
            prop_assert!(wrapped || text.contains("event"), "{}", event.name());
        }
    }
}

//! Property tests for the one JSON codec (`linkclust_core::json`) and
//! the artifacts written with it: whatever a run records — including
//! NaN/infinite gauge observations and hostile thread names —
//! `RunReport::to_json()` and the Chrome trace writer must produce
//! JSON that `json::parse` accepts, and non-finite quantiles must
//! serialize as `null`, never as bare `NaN`/`inf` tokens. The codec
//! itself must round-trip: any string through `write_escaped`, and any
//! finite `f64` bit for bit through `write_f64`.

use std::sync::Arc;
use std::time::Instant;

use linkclust_core::json::{self, Json};
use linkclust_core::telemetry::{
    Counter, Gauge, Phase, Recorder, RunRecorder, TraceCollector, TraceLabel,
};
use proptest::prelude::*;

/// One recorder call, generated from plain integers so shrinking stays
/// readable.
#[derive(Clone, Debug)]
enum Op {
    Phase(usize, u64),
    Counter(usize, u64),
    Gauge(usize, f64),
    ThreadItems(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Values bounded so 200 accumulating `+=` ops cannot overflow a u64.
    (0usize..4, 0usize..16, 0u64..(u64::MAX >> 10), 0usize..8).prop_map(|(kind, idx, v, sel)| {
        match kind {
            0 => Op::Phase(idx % Phase::ALL.len(), v),
            1 => Op::Counter(idx % Counter::ALL.len(), v),
            2 => {
                let value = match sel {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => f64::MAX,
                    // Ordinary magnitudes, both signs.
                    #[allow(clippy::cast_precision_loss)]
                    _ => (v as f64) / 1e6 - 1e6,
                };
                Op::Gauge(idx % Gauge::ALL.len(), value)
            }
            _ => Op::ThreadItems(idx % 8, v),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_report_json_is_always_parseable(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let rec = RunRecorder::new();
        for op in &ops {
            match *op {
                Op::Phase(p, n) => rec.record_phase(Phase::ALL[p], n),
                Op::Counter(c, v) => rec.add(Counter::ALL[c], v),
                Op::Gauge(g, v) => rec.observe(Gauge::ALL[g], v),
                Op::ThreadItems(t, v) => rec.thread_items(t, v),
            }
        }
        let report = rec.report();
        let json = report.to_json();
        prop_assert!(json::parse(&json).is_ok(), "invalid JSON: {}\nfrom {:?}", json, ops);
        // Non-finite numbers must never leak as bare tokens — RFC 8259
        // has no NaN/Infinity literals.
        prop_assert!(!json.contains("NaN"), "bare NaN in {json}");
        prop_assert!(!json.contains("inf"), "bare infinity in {json}");
        // The Display table must also render without panicking.
        let _ = report.to_string();
    }

    #[test]
    fn trace_json_is_always_parseable(
        durs in proptest::collection::vec((0u64..3, 0u64..u64::from(u32::MAX)), 0..64),
        capacity in 1usize..64,
    ) {
        let collector = TraceCollector::with_capacity(capacity);
        let epoch = collector.epoch();
        for &(label, dur) in &durs {
            let label = match label {
                0 => TraceLabel::Phase(Phase::Sort),
                1 => TraceLabel::Phase(Phase::Sweep),
                _ => TraceLabel::PoolTask { seq: dur },
            };
            collector.record(label, epoch, dur);
        }
        let json = collector.to_chrome_json();
        prop_assert!(json::parse(&json).is_ok(), "invalid JSON: {json}");
        prop_assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn trace_json_escapes_hostile_thread_names(name in "[ -~]{0,24}") {
        // Thread names flow into the `thread_name` metadata events
        // verbatim; quotes, backslashes and control characters must all
        // be escaped by the writer.
        let collector = Arc::new(TraceCollector::new());
        let inner = Arc::clone(&collector);
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || {
                inner.record(TraceLabel::Phase(Phase::Sort), Instant::now(), 10);
            })
            .expect("spawning a named thread");
        handle.join().expect("named thread runs to completion");
        let json = collector.to_chrome_json();
        prop_assert!(json::parse(&json).is_ok(), "name {:?} broke the writer: {}", name, json);
    }
}

/// A string of scalar values drawn from every range that needs care:
/// control characters, quotes and backslashes, the rest of ASCII, the
/// BMP up to the surrogate gap, the BMP above it, and non-BMP scalars.
fn scalar_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..6, 0u32..0x11_0000), 0..48).prop_map(|picks| {
        picks
            .into_iter()
            .map(|(range, x)| {
                let code = match range {
                    0 => x % 0x20,
                    1 => [u32::from('"'), u32::from('\\'), u32::from('/'), 0x7f][(x % 4) as usize],
                    2 => 0x20 + x % 0x60,
                    3 => 0x80 + x % (0xd800 - 0x80),
                    4 => 0xe000 + x % (0x1_0000 - 0xe000),
                    _ => 0x1_0000 + x % (0x11_0000 - 0x1_0000),
                };
                char::from_u32(code).expect("every range above skips the surrogate gap")
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn escaped_strings_round_trip(text in scalar_string()) {
        let mut out = String::new();
        json::write_escaped(&mut out, &text);
        let parsed = json::parse(&out);
        prop_assert_eq!(parsed, Ok(Json::Str(text)), "written as {}", out);
    }

    #[test]
    fn finite_floats_round_trip_bit_for_bit(bits in 0u64..=u64::MAX, pick in 0usize..8) {
        // Raw bit patterns are mostly huge or tiny normals; mix in the
        // values whose text form is special.
        let x = match pick {
            0 => -0.0,
            1 => f64::from_bits(bits & 0x000f_ffff_ffff_ffff), // subnormal (or +0)
            2 => -f64::from_bits(bits & 0x000f_ffff_ffff_ffff),
            3 => f64::MAX,
            4 => f64::MIN_POSITIVE,
            5 => (bits >> 40) as f64, // a whole number
            _ => f64::from_bits(bits),
        };
        let mut out = String::new();
        json::write_f64(&mut out, x);
        if x.is_finite() {
            let back = json::parse(&out).ok().and_then(|v| v.as_f64());
            prop_assert_eq!(back.map(f64::to_bits), Some(x.to_bits()), "{:?} written as {}", x, out);
        } else {
            prop_assert_eq!(out, "null");
        }
    }
}

#[test]
fn non_finite_floats_write_as_null() {
    for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut out = String::new();
        json::write_f64(&mut out, x);
        assert_eq!(out, "null", "{x:?}");
        assert_eq!(json::parse(&out), Ok(Json::Null));
    }
}

/// The specific shape satellite 3 calls out: a gauge with zero finite
/// observations (so every quantile is NaN) must serialize its quantiles
/// as `null`.
#[test]
fn non_finite_gauge_quantiles_serialize_as_null() {
    let rec = RunRecorder::new();
    rec.observe(Gauge::TableOccupancy, f64::NAN);
    rec.observe(Gauge::TableOccupancy, f64::INFINITY);
    let json = rec.report().to_json();
    assert!(json::parse(&json).is_ok(), "invalid JSON: {json}");
    assert!(json.contains("\"p50\":null"), "expected null quantiles in {json}");
    assert!(!json.contains("NaN") && !json.contains("inf"), "bare non-finite token in {json}");
}

//! Owned metric snapshots and the `wormtrace/1` JSON format.
//!
//! The serializer is hand-rolled (the workspace builds offline with no
//! registry access, so serde is not available); the format is the
//! small, stable subset documented in `docs/TRACING.md` and every
//! writer in this module emits strictly valid JSON.

use std::collections::BTreeMap;
use std::time::Duration;

/// Schema identifier stamped into every per-experiment report.
pub const SCHEMA: &str = "wormtrace/1";

/// Schema identifier stamped into the `run_all` aggregate report.
pub const SUMMARY_SCHEMA: &str = "wormtrace-summary/1";

/// Aggregate statistics for one named span.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of observations (guard drops / explicit records).
    pub count: u64,
    /// Total wall-clock time across all observations.
    pub total: Duration,
}

/// An owned snapshot of one recorder's counters, gauges and spans.
///
/// Keys are sorted (`BTreeMap`), so serialization is deterministic —
/// two runs with identical metrics produce byte-identical reports,
/// which is what makes `trace_summary.json` diffable across commits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceReport {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, f64>,
    /// Span statistics by span name.
    pub spans: BTreeMap<String, SpanStat>,
}

/// Escape a string for inclusion in a JSON string literal: quotes,
/// backslashes and control characters (`\n`, `\r` and `\t` by name,
/// the rest as `\u00XX`). Every hand-rolled JSON writer of the
/// workspace escapes with it.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` as a JSON value (`null` for non-finite values,
/// which JSON cannot represent as numbers).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v:?}");
        // `{:?}` prints integral floats as e.g. "4.0" — already valid.
        s
    } else {
        "null".to_string()
    }
}

impl TraceReport {
    /// Serialize to the `wormtrace/1` JSON schema, labelled with the
    /// producing experiment's name (2-space indentation, sorted keys,
    /// trailing newline).
    pub fn to_json(&self, experiment: &str) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", escape_json(SCHEMA)));
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            escape_json(experiment)
        ));

        out.push_str("  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("    \"{}\": {v}", escape_json(k)));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("    \"{}\": {}", escape_json(k), json_f64(*v)));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });

        out.push_str("  \"spans\": {");
        first = true;
        for (k, s) in &self.spans {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"total_ns\": {}}}",
                escape_json(k),
                s.count,
                s.total.as_nanos()
            ));
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });

        out.push_str("}\n");
        out
    }
}

/// Merge per-experiment `wormtrace/1` reports into one
/// `wormtrace-summary/1` document.
///
/// Each entry is `(experiment name, raw report JSON)`; the raw text
/// is embedded verbatim (re-indented), so no JSON parsing is needed —
/// `run_all` reads each child's `--trace` output file and hands the
/// strings straight here. Inputs must already be valid JSON for the
/// output to be.
pub fn summarize<'a>(entries: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"schema\": \"{}\",\n",
        escape_json(SUMMARY_SCHEMA)
    ));
    out.push_str("  \"experiments\": {");
    let mut first = true;
    for (name, raw) in entries {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    \"{}\": ", escape_json(name)));
        // Re-indent the embedded document so the summary stays
        // readable; JSON itself is whitespace-insensitive.
        let mut lines = raw.trim_end().lines();
        if let Some(line) = lines.next() {
            out.push_str(line);
        }
        for line in lines {
            out.push('\n');
            out.push_str("    ");
            out.push_str(line);
        }
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON well-formedness checker (objects, strings,
    /// numbers, null) — enough to validate our own writer without a
    /// parser dependency.
    fn check_json(s: &str) {
        fn value(b: &[u8], mut i: usize) -> usize {
            while b[i].is_ascii_whitespace() {
                i += 1;
            }
            match b[i] {
                b'{' => {
                    i += 1;
                    loop {
                        while b[i].is_ascii_whitespace() {
                            i += 1;
                        }
                        if b[i] == b'}' {
                            return i + 1;
                        }
                        assert_eq!(b[i], b'"', "object key at {i}");
                        i = string(b, i);
                        while b[i].is_ascii_whitespace() {
                            i += 1;
                        }
                        assert_eq!(b[i], b':', "colon at {i}");
                        i = value(b, i + 1);
                        while b[i].is_ascii_whitespace() {
                            i += 1;
                        }
                        match b[i] {
                            b',' => i += 1,
                            b'}' => return i + 1,
                            c => panic!("unexpected {} at {i}", c as char),
                        }
                    }
                }
                b'"' => string(b, i),
                b'n' => {
                    assert_eq!(&b[i..i + 4], b"null");
                    i + 4
                }
                _ => {
                    let start = i;
                    while i < b.len()
                        && (b[i].is_ascii_digit()
                            || matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E'))
                    {
                        i += 1;
                    }
                    assert!(i > start, "number expected at {start}");
                    i
                }
            }
        }
        fn string(b: &[u8], i: usize) -> usize {
            assert_eq!(b[i], b'"');
            let mut i = i + 1;
            loop {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => return i + 1,
                    _ => i += 1,
                }
            }
        }
        let b = s.as_bytes();
        let end = value(b, 0);
        assert!(
            s[end..].trim().is_empty(),
            "trailing garbage: {:?}",
            &s[end..]
        );
    }

    fn sample() -> TraceReport {
        TraceReport {
            counters: [("sim.cycles".to_string(), 42u64)].into_iter().collect(),
            gauges: [
                ("search.frontier_peak".to_string(), 17.0),
                ("bad".to_string(), f64::NAN),
            ]
            .into_iter()
            .collect(),
            spans: [(
                "search.explore".to_string(),
                SpanStat {
                    count: 2,
                    total: Duration::from_micros(1500),
                },
            )]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn report_json_is_valid_and_complete() {
        let json = sample().to_json("exp_demo");
        check_json(&json);
        assert!(json.contains("\"schema\": \"wormtrace/1\""));
        assert!(json.contains("\"experiment\": \"exp_demo\""));
        assert!(json.contains("\"sim.cycles\": 42"));
        assert!(json.contains("\"search.frontier_peak\": 17.0"));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("\"total_ns\": 1500000"));
    }

    #[test]
    fn empty_report_is_valid() {
        let json = TraceReport::default().to_json("empty");
        check_json(&json);
        assert!(json.contains("\"counters\": {}"));
    }

    #[test]
    fn keys_are_escaped() {
        let mut report = TraceReport::default();
        report.counters.insert("we\"ird\\name".to_string(), 1);
        let json = report.to_json("quote\"test");
        check_json(&json);
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn summary_embeds_reports_verbatim() {
        let a = sample().to_json("exp_a");
        let b = TraceReport::default().to_json("exp_b");
        let summary = summarize([("exp_a", a.as_str()), ("exp_b", b.as_str())]);
        check_json(&summary);
        assert!(summary.contains("\"schema\": \"wormtrace-summary/1\""));
        assert!(summary.contains("\"exp_a\": {"));
        assert!(summary.contains("\"sim.cycles\": 42"));
    }

    #[test]
    fn empty_summary_is_valid() {
        check_json(&summarize([]));
    }
}

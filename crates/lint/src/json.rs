//! The `wormlint/1` machine-readable report format.
//!
//! Hand-rolled (the workspace has no serde) but strict: all object
//! keys are emitted in sorted order, strings are JSON-escaped, the
//! document ends with a single trailing newline, and the same reports
//! always produce byte-identical output. CI re-parses the result with
//! an independent checker (sorted keys, stable codes) and byte-compares
//! the committed corpus snapshot.
//!
//! Schema (`wormlint/1`):
//!
//! ```json
//! {
//!   "schema": "wormlint/1",
//!   "targets": {
//!     "<name>": {
//!       "diagnostics": [
//!         {
//!           "code": "W203",
//!           "entities": ["cycle:c0->c1", "channel:cs(...)"],
//!           "lint": "reachable-deadlock-two-sharers",
//!           "message": "...",
//!           "severity": "warn",
//!           "witness": {"shared_channel": "...", "sharers": "2"}
//!         }
//!       ],
//!       "summary": {"allow": 1, "deny": 0, "warn": 2},
//!       "verdict": "deadlockable"
//!     }
//!   }
//! }
//! ```

use wormtrace::escape_json;

use crate::registry::LintReport;

/// The schema identifier stamped into every JSON report.
pub const SCHEMA: &str = "wormlint/1";

fn push_report(out: &mut String, report: &LintReport, indent: &str) {
    let pad = format!("{indent}  ");
    out.push_str("{\n");
    out.push_str(&format!("{pad}\"diagnostics\": ["));
    let mut first = true;
    for d in &report.diagnostics {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("{pad}  {{\n"));
        out.push_str(&format!(
            "{pad}    \"code\": \"{}\",\n",
            escape_json(d.code)
        ));
        out.push_str(&format!("{pad}    \"entities\": ["));
        for (i, e) in d.entities.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape_json(e)));
        }
        out.push_str("],\n");
        out.push_str(&format!(
            "{pad}    \"lint\": \"{}\",\n",
            escape_json(d.lint)
        ));
        out.push_str(&format!(
            "{pad}    \"message\": \"{}\",\n",
            escape_json(&d.message)
        ));
        out.push_str(&format!(
            "{pad}    \"severity\": \"{}\",\n",
            d.severity.name()
        ));
        out.push_str(&format!("{pad}    \"witness\": {{"));
        let mut wfirst = true;
        for (k, v) in &d.witness {
            out.push_str(if wfirst { "\n" } else { ",\n" });
            wfirst = false;
            out.push_str(&format!(
                "{pad}      \"{}\": \"{}\"",
                escape_json(k),
                escape_json(v)
            ));
        }
        if wfirst {
            out.push_str("}\n");
        } else {
            out.push_str(&format!("\n{pad}    }}\n"));
        }
        out.push_str(&format!("{pad}  }}"));
    }
    if first {
        out.push_str("],\n");
    } else {
        out.push_str(&format!("\n{pad}],\n"));
    }
    out.push_str(&format!(
        "{pad}\"summary\": {{\"allow\": {}, \"deny\": {}, \"warn\": {}}},\n",
        report.allow_count(),
        report.deny_count(),
        report.warn_count(),
    ));
    out.push_str(&format!(
        "{pad}\"verdict\": \"{}\"\n",
        report.verdict.name()
    ));
    out.push_str(&format!("{indent}}}"));
}

/// Serialize named reports as a `wormlint/1` document.
///
/// Target names must arrive pre-sorted (the corpus and CLI guarantee
/// this); the function debug-asserts it so the sorted-keys invariant
/// holds over the whole document.
pub fn reports_to_json(reports: &[(&str, &LintReport)]) -> String {
    debug_assert!(
        reports.windows(2).all(|w| w[0].0 < w[1].0),
        "target names must be sorted and unique"
    );
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", escape_json(SCHEMA)));
    out.push_str("  \"targets\": {");
    let mut first = true;
    for (name, report) in reports {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!("    \"{}\": ", escape_json(name)));
        push_report(&mut out, report, "    ");
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{LintConfig, Registry};
    use worm_core::paper::{fig1, fig2};

    /// Minimal JSON validator: structure, string escapes, and the
    /// sorted-key invariant on every object.
    fn check_json(s: &str) {
        let chars: Vec<char> = s.chars().collect();
        let mut pos = 0usize;
        check_value(&chars, &mut pos);
        skip_ws(&chars, &mut pos);
        assert_eq!(pos, chars.len(), "trailing garbage after JSON value");
    }

    fn skip_ws(c: &[char], pos: &mut usize) {
        while *pos < c.len() && c[*pos].is_whitespace() {
            *pos += 1;
        }
    }

    fn check_value(c: &[char], pos: &mut usize) {
        skip_ws(c, pos);
        match c[*pos] {
            '{' => check_object(c, pos),
            '[' => check_array(c, pos),
            '"' => {
                check_string(c, pos);
            }
            _ => {
                // number / true / false / null
                let start = *pos;
                while *pos < c.len() && !",}] \n".contains(c[*pos]) {
                    *pos += 1;
                }
                assert!(*pos > start, "empty scalar at {pos}");
            }
        }
    }

    fn check_object(c: &[char], pos: &mut usize) {
        assert_eq!(c[*pos], '{');
        *pos += 1;
        let mut keys: Vec<String> = Vec::new();
        loop {
            skip_ws(c, pos);
            if c[*pos] == '}' {
                *pos += 1;
                break;
            }
            if !keys.is_empty() {
                assert_eq!(c[*pos], ',', "expected comma at {pos}");
                *pos += 1;
                skip_ws(c, pos);
            }
            let key = check_string(c, pos);
            if let Some(prev) = keys.last() {
                assert!(prev < &key, "keys out of order: {prev:?} before {key:?}");
            }
            keys.push(key);
            skip_ws(c, pos);
            assert_eq!(c[*pos], ':', "expected colon at {pos}");
            *pos += 1;
            check_value(c, pos);
        }
    }

    fn check_array(c: &[char], pos: &mut usize) {
        assert_eq!(c[*pos], '[');
        *pos += 1;
        let mut first = true;
        loop {
            skip_ws(c, pos);
            if c[*pos] == ']' {
                *pos += 1;
                break;
            }
            if !first {
                assert_eq!(c[*pos], ',', "expected comma at {pos}");
                *pos += 1;
            }
            first = false;
            check_value(c, pos);
        }
    }

    fn check_string(c: &[char], pos: &mut usize) -> String {
        assert_eq!(c[*pos], '"', "expected string at {pos}");
        *pos += 1;
        let mut out = String::new();
        while c[*pos] != '"' {
            if c[*pos] == '\\' {
                *pos += 1;
                assert!("\"\\nrtu".contains(c[*pos]), "bad escape at {pos}");
                if c[*pos] == 'u' {
                    *pos += 4;
                }
            }
            out.push(c[*pos]);
            *pos += 1;
        }
        *pos += 1;
        out
    }

    #[test]
    fn corpus_reports_are_valid_sorted_json() {
        let registry = Registry::with_default_lints();
        let config = LintConfig::default();
        let c1 = fig1::cyclic_dependency();
        let c2 = fig2::two_message_deadlock();
        let r1 = registry.run(&c1.net, &c1.table, &config);
        let r2 = registry.run(&c2.net, &c2.table, &config);
        let json = reports_to_json(&[("fig1", &r1), ("fig2", &r2)]);
        check_json(&json);
        assert!(json.starts_with("{\n  \"schema\": \"wormlint/1\",\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"verdict\": \"deadlockable\""));
        // Byte-determinism across runs.
        let r1b = registry.run(&c1.net, &c1.table, &config);
        let r2b = registry.run(&c2.net, &c2.table, &config);
        assert_eq!(json, reports_to_json(&[("fig1", &r1b), ("fig2", &r2b)]));
    }

    #[test]
    fn empty_report_serializes() {
        let report = LintReport {
            diagnostics: Vec::new(),
            verdict: crate::StaticVerdict::FreeAcyclic,
        };
        let json = reports_to_json(&[("empty", &report)]);
        check_json(&json);
        assert!(json.contains("\"diagnostics\": []"));
    }
}

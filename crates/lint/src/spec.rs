//! Resolve a `wormspec/1` verify section into a [`LintConfig`].
//!
//! Severity overrides are validated against the default registry's
//! lint codes, so `lint { W999 = allow }` is an `E014` resolution
//! error instead of a silently ignored key.

use wormspec::ast::{SeverityName, Verify};
use wormspec::diag::{codes, SpecError};

use crate::{LintConfig, Registry, Severity};

fn severity(name: SeverityName) -> Severity {
    match name {
        SeverityName::Allow => Severity::Allow,
        SeverityName::Warn => Severity::Warn,
        SeverityName::Deny => Severity::Deny,
    }
}

/// Resolve the verify section (absent = all defaults) into a lint
/// configuration.
pub fn config_from_spec(verify: Option<&Verify>) -> Result<LintConfig, SpecError> {
    let mut config = LintConfig::default();
    let Some(v) = verify else {
        return Ok(config);
    };
    if !v.lint.is_empty() {
        let registry = Registry::with_default_lints();
        let known: Vec<&'static str> = registry.lints().iter().map(|l| l.code()).collect();
        for o in &v.lint {
            if !known.contains(&o.code.value.as_str()) {
                return Err(SpecError::new(
                    codes::RESOLVE,
                    format!(
                        "unknown lint code `{}` (see docs/LINTS.md for the catalog)",
                        o.code.value
                    ),
                    o.code.span,
                ));
            }
            config
                .overrides
                .insert(o.code.value.clone(), severity(o.severity.value));
        }
    }
    if let Some(d) = &v.deny_warnings {
        config.deny_warnings = d.value;
    }
    if let Some(m) = &v.max_cycles {
        config.max_cycles = usize::try_from(m.value)
            .map_err(|_| SpecError::new(codes::RANGE, "`max_cycles` out of range", m.span))?;
    }
    if let Some(m) = &v.max_candidates {
        config.max_candidates = usize::try_from(m.value)
            .map_err(|_| SpecError::new(codes::RANGE, "`max_candidates` out of range", m.span))?;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormspec::parse;

    fn resolve(src: &str) -> Result<LintConfig, SpecError> {
        config_from_spec(parse(src).expect("spec parses").verify.as_ref())
    }

    #[test]
    fn defaults_match_the_rust_defaults() {
        let from_none = config_from_spec(None).unwrap();
        let from_empty = resolve(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\nverify { }\n",
        )
        .unwrap();
        let rust = LintConfig::default();
        for c in [&from_none, &from_empty] {
            assert_eq!(c.overrides, rust.overrides);
            assert_eq!(c.deny_warnings, rust.deny_warnings);
            assert_eq!(c.max_cycles, rust.max_cycles);
        }
    }

    #[test]
    fn overrides_and_budgets_resolve() {
        let c = resolve(
            "wormspec/1\n\
             topology { kind = ring nodes = 4 }\n\
             routing { engine = clockwise_ring }\n\
             verify {\n\
               max_cycles = 500\n\
               deny_warnings = true\n\
               lint { W101 = allow W201 = deny }\n\
             }\n",
        )
        .unwrap();
        assert_eq!(c.overrides.get("W101"), Some(&Severity::Allow));
        assert_eq!(c.overrides.get("W201"), Some(&Severity::Deny));
        assert_eq!(c.max_cycles, 500);
        assert!(c.deny_warnings);
    }

    #[test]
    fn unknown_lint_codes_fail_to_resolve() {
        let e = resolve(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\nverify { lint { W999 = allow } }\n",
        )
        .unwrap_err();
        assert_eq!(e.code, codes::RESOLVE);
    }
}

//! Resolve a `wormspec/1` verify section into [`ClassifyOptions`].
//!
//! The `engine` key decides whether the classifier may fall back to
//! exhaustive search (`search`/`full` may, `static`/`sim` may not);
//! `model_exact = true` maps onto
//! [`ClassifyOptions::verify_theorems_with_search`].

use wormspec::ast::{Verify, VerifyEngine};
use wormspec::diag::{codes, SpecError};

use crate::classify::ClassifyOptions;

/// Resolve classifier options from the verify section (absent = the
/// static-only defaults: no search fallback).
pub fn options_from_spec(verify: Option<&Verify>) -> Result<ClassifyOptions, SpecError> {
    let mut opts = ClassifyOptions::default();
    let engine = verify
        .and_then(|v| v.engine.as_ref().map(|e| e.value))
        .unwrap_or_default();
    opts.use_search = matches!(engine, VerifyEngine::Search | VerifyEngine::Full);
    let Some(v) = verify else {
        return Ok(opts);
    };
    if let Some(m) = &v.max_cycles {
        opts.max_cycles = usize::try_from(m.value)
            .map_err(|_| SpecError::new(codes::RANGE, "`max_cycles` out of range", m.span))?;
    }
    if let Some(m) = &v.max_candidates {
        opts.max_candidates = usize::try_from(m.value)
            .map_err(|_| SpecError::new(codes::RANGE, "`max_candidates` out of range", m.span))?;
    }
    if let Some(m) = &v.max_states {
        opts.search_max_states = usize::try_from(m.value)
            .map_err(|_| SpecError::new(codes::RANGE, "`max_states` out of range", m.span))?;
    }
    if let Some(t) = &v.threads {
        opts.search_threads = usize::try_from(t.value)
            .map_err(|_| SpecError::new(codes::RANGE, "`threads` out of range", t.span))?;
    }
    if let Some(m) = &v.model_exact {
        opts.verify_theorems_with_search = m.value;
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormspec::parse;

    fn resolve(src: &str) -> ClassifyOptions {
        options_from_spec(parse(src).expect("spec parses").verify.as_ref()).unwrap()
    }

    #[test]
    fn engine_decides_the_search_fallback() {
        let base =
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n";
        assert!(!options_from_spec(None).unwrap().use_search);
        assert!(!resolve(&format!("{base}verify {{ engine = static }}\n")).use_search);
        assert!(resolve(&format!("{base}verify {{ engine = search }}\n")).use_search);
        assert!(resolve(&format!("{base}verify {{ engine = full }}\n")).use_search);
    }

    #[test]
    fn budgets_threads_and_exactness_resolve() {
        let o = resolve(
            "wormspec/1\n\
             topology { kind = ring nodes = 4 }\n\
             routing { engine = clockwise_ring }\n\
             verify {\n\
               engine = search\n\
               max_cycles = 100\n\
               max_candidates = 200\n\
               max_states = 5000\n\
               threads = 2\n\
               model_exact = true\n\
             }\n",
        );
        assert_eq!(o.max_cycles, 100);
        assert_eq!(o.max_candidates, 200);
        assert_eq!(o.search_max_states, 5000);
        assert_eq!(o.search_threads, 2);
        assert!(o.verify_theorems_with_search);
    }
}

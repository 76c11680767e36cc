//! Resolve a `wormspec/1` verify section into [`ExistOptions`].
//!
//! The existence engine rides the existing verify vocabulary instead
//! of growing new syntax: `max_states` (the search-state budget)
//! bounds the exhaustive reach-game search the same way it bounds
//! `wormsearch`. Everything else keeps engine defaults.

use wormspec::ast::Verify;
use wormspec::diag::SpecError;

use crate::ExistOptions;

/// Resolve the verify section (absent = all defaults) into existence
/// options.
pub fn options_from_spec(verify: Option<&Verify>) -> Result<ExistOptions, SpecError> {
    let mut opts = ExistOptions::default();
    if let Some(v) = verify {
        if let Some(m) = &v.max_states {
            opts.exact_states = m.value;
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormspec::parse;

    #[test]
    fn defaults_match_the_rust_defaults() {
        assert_eq!(options_from_spec(None).unwrap(), ExistOptions::default());
    }

    #[test]
    fn max_states_bounds_the_exact_game() {
        let src = "wormspec/1\n\
                   topology { kind = ring nodes = 4 }\n\
                   routing { engine = clockwise_ring }\n\
                   verify { max_states = 12345 }\n";
        let ast = parse(src).expect("spec parses");
        let opts = options_from_spec(ast.verify.as_ref()).unwrap();
        assert_eq!(opts.exact_states, 12345);
    }
}

//! Tiny command-line helpers shared by every `exp_*` binary.
//!
//! The experiment programs deliberately avoid an argument-parsing
//! dependency: each flag is a plain `--name value` pair scanned from
//! [`std::env::args`]. This module hosts the scanners so the binaries
//! stay consistent (same flag spelling, same error behaviour) without
//! copy-pasted parsing loops.
//!
//! Malformed input is rejected, never replaced by a default: an
//! argument the binary does not take ([`accept`]), a value-taking flag
//! given as the last argument, or a value its parser does not accept
//! ends the program with exit status 2. The `parse_*` functions are
//! the pure halves of that rule, taking the argument list explicitly.

/// Checks that every argument after the program name is one of the
/// binary's flags: a flag from `values` followed by its value, or a
/// switch from `switches`.
pub fn parse_known(args: &[String], values: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if values.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} needs a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            let taken: Vec<String> = values
                .iter()
                .map(|v| format!("{v} <value>"))
                .chain(switches.iter().map(|s| s.to_string()))
                .collect();
            return Err(if taken.is_empty() {
                format!("unknown argument {arg:?} (this program takes no arguments)")
            } else {
                format!("unknown argument {arg:?} (expected {})", taken.join(", "))
            });
        }
    }
    Ok(())
}

/// The value following `flag` in `args`: `Ok(None)` when the flag is
/// absent, an error when it is the last argument.
///
/// `flag` must include the leading dashes (e.g. `"--trace"`).
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value)),
            None => Err(format!("{flag} needs a value")),
        },
    }
}

/// `--threads N` in `args`: `Ok(None)` when absent. By convention `0`
/// means "one worker per core".
pub fn parse_threads(args: &[String]) -> Result<Option<usize>, String> {
    parse_flag(args, "--threads", "a thread count", |v| v.parse().ok())
}

/// `--seed N` in `args`: `Ok(None)` when absent. Accepts decimal
/// (`49374`) and `0x`-prefixed hexadecimal (`0xC0FFEE`) spellings, so
/// seeds can be quoted exactly as EXPERIMENTS.md prints them.
pub fn parse_seed(args: &[String]) -> Result<Option<u64>, String> {
    parse_flag(args, "--seed", "a decimal or 0x-hex seed", |v| {
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
    })
}

fn parse_flag<T>(
    args: &[String],
    flag: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match flag_value(args, flag)? {
        None => Ok(None),
        Some(value) => parse(value.trim())
            .map(Some)
            .ok_or_else(|| format!("invalid {flag} value {value:?} (expected {expected})")),
    }
}

/// The process arguments, or exit 2 with the parser's message.
fn from_argv<T>(parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

/// Exits 2 unless every command-line argument is one of the binary's
/// flags (see [`parse_known`]). Binaries call it first thing in
/// `main`, so a flag they do not take is never silently ignored.
pub fn accept(values: &[&str], switches: &[&str]) {
    from_argv(|args| parse_known(args, values, switches))
}

/// Returns the value following `flag` on the command line, if any;
/// exits 2 when the flag has no value.
pub fn value_of(flag: &str) -> Option<String> {
    from_argv(|args| Ok(flag_value(args, flag)?.map(str::to_owned)))
}

/// Parses `--threads N`, falling back to `default` only when the flag
/// is absent.
///
/// Binaries whose historical behaviour is sequential (e.g.
/// `exp_theorems`, `exp_multishare`) pass `default = 1` so their
/// output is unchanged unless the flag is given explicitly.
pub fn threads(default: usize) -> usize {
    from_argv(parse_threads).unwrap_or(default)
}

/// Parses `--seed N` (see [`parse_seed`]), falling back to `default`
/// only when the flag is absent.
pub fn seed(default: u64) -> u64 {
    from_argv(parse_seed).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("exp")
            .chain(list.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn absent_flags_are_none() {
        let a = args(&["--other", "3"]);
        assert_eq!(parse_threads(&a), Ok(None));
        assert_eq!(parse_seed(&a), Ok(None));
        assert_eq!(flag_value(&a, "--trace"), Ok(None));
    }

    #[test]
    fn well_formed_values_parse() {
        assert_eq!(parse_threads(&args(&["--threads", "4"])), Ok(Some(4)));
        assert_eq!(parse_threads(&args(&["--threads", "0"])), Ok(Some(0)));
        assert_eq!(parse_seed(&args(&["--seed", "49374"])), Ok(Some(49374)));
        assert_eq!(
            parse_seed(&args(&["--seed", "0xC0FFEE"])),
            Ok(Some(0xC0FFEE))
        );
        assert_eq!(
            flag_value(&args(&["--trace", "t.json"]), "--trace"),
            Ok(Some("t.json"))
        );
    }

    #[test]
    fn malformed_values_are_rejected() {
        for bad in ["abc", "-1", "4x", ""] {
            let err = parse_threads(&args(&["--threads", bad])).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        for bad in ["0xZZ", "seed", "1.5"] {
            assert!(parse_seed(&args(&["--seed", bad])).is_err(), "{bad}");
        }
    }

    #[test]
    fn flags_without_values_are_rejected() {
        assert!(parse_threads(&args(&["--threads"])).is_err());
        assert!(parse_seed(&args(&["--seed"])).is_err());
        assert!(flag_value(&args(&["--trace"]), "--trace").is_err());
        // A following flag is taken as the value, and fails to parse.
        assert!(parse_threads(&args(&["--threads", "--seed", "1"])).is_err());
    }

    #[test]
    fn known_flags_are_accepted() {
        let values = ["--trace", "--seed"];
        let switches = ["--smoke"];
        for ok in [
            &[][..],
            &["--seed", "0xC0FFEE"],
            &["--trace", "t.json", "--seed", "7"],
            &["--smoke", "--trace", "--smoke"],
        ] {
            assert_eq!(parse_known(&args(ok), &values, &switches), Ok(()), "{ok:?}");
        }
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let values = ["--trace", "--seed"];
        for bad in [
            &["--engine", "event"][..],
            &["--seed", "1", "--threads", "2"],
            &["extra"],
            &["--smoke"],
            &["--seed=1"],
        ] {
            let err = parse_known(&args(bad), &values, &[]).unwrap_err();
            assert!(err.contains("unknown argument"), "{bad:?}: {err}");
            assert!(err.contains("--trace <value>, --seed <value>"), "{err}");
        }
        let err = parse_known(&args(&["--trace"]), &[], &[]).unwrap_err();
        assert!(err.contains("takes no arguments"), "{err}");
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        let err = parse_known(&args(&["--seed"]), &["--seed"], &[]).unwrap_err();
        assert_eq!(err, "--seed needs a value");
        // The value is consumed, even when it looks like a flag.
        assert_eq!(
            parse_known(&args(&["--trace", "--seed"]), &["--trace", "--seed"], &[]),
            Ok(())
        );
    }
}

//! The `wormserve` command-line front end.
//!
//! ```text
//! wormserve [OPTIONS] SPEC.wspec...     verify spec files
//! wormserve --fuzz N [--seed S]         differential fuzz N seeds
//!
//! Options:
//!   --cache DIR     content-addressed result cache directory
//!   --workers N     worker threads, at least 1 (default 2)
//!   --queue N       queue depth before submit blocks, at least 1 (default 64)
//!   --trace         attach a wormtrace report per computed job
//!   --hash-only     print each spec's canonical hash and exit
//! ```
//!
//! Exit status is 2 for a malformed command line (an unknown option, a
//! missing or malformed value, a `--workers` or `--queue` of 0), and
//! nonzero when any job fails to compile, or when any fuzz seed
//! produces a lint/classifier/search contradiction.

use std::path::PathBuf;
use std::process::ExitCode;

use wormserve::specgen::differential;
use wormserve::{compile, Server, ServerConfig};

#[derive(Debug, PartialEq)]
struct Cli {
    cache: Option<PathBuf>,
    workers: usize,
    queue: usize,
    trace: bool,
    hash_only: bool,
    fuzz: Option<u64>,
    seed: u64,
    files: Vec<PathBuf>,
}

const USAGE: &str =
    "usage: wormserve [--cache DIR] [--workers N] [--queue N] [--trace] [--hash-only] SPEC...\n\
                     \u{20}      wormserve --fuzz N [--seed S]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

/// Parse the arguments after the program name. A flag that needs a
/// value and lacks one, a malformed number, a `--workers` or `--queue`
/// of 0, and an unknown option are errors; nothing is replaced by a
/// default.
fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        cache: None,
        workers: 2,
        queue: 64,
        trace: false,
        hash_only: false,
        fuzz: None,
        seed: 0,
        files: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{name} needs a whole number, not `{text}`"))
        };
        let at_least_one = |name: &str, text: String| match number(name, text)? {
            0 => Err(format!("{name} must be at least 1")),
            n => usize::try_from(n).map_err(|_| format!("{name} is out of range")),
        };
        match arg.as_str() {
            "--cache" => cli.cache = Some(PathBuf::from(value("--cache")?)),
            "--workers" => cli.workers = at_least_one("--workers", value("--workers")?)?,
            "--queue" => cli.queue = at_least_one("--queue", value("--queue")?)?,
            "--trace" => cli.trace = true,
            "--hash-only" => cli.hash_only = true,
            "--fuzz" => cli.fuzz = Some(number("--fuzz", value("--fuzz")?)?),
            "--seed" => cli.seed = number("--seed", value("--seed")?)?,
            "--help" | "-h" => return Err(String::new()),
            _ if arg.starts_with('-') => return Err(format!("unknown option {arg}")),
            _ => cli.files.push(PathBuf::from(arg)),
        }
    }
    Ok(cli)
}

fn run_fuzz(count: u64, base_seed: u64) -> ExitCode {
    let mut bad = 0u64;
    for i in 0..count {
        let seed = base_seed + i;
        let report = differential(seed);
        if report.failures.is_empty() {
            println!(
                "seed {seed}: ok (lint {:?}, classifier {:?}, search {:?})",
                report.lint, report.classifier_free, report.search
            );
        } else {
            bad += 1;
            eprintln!("seed {seed}: DISAGREEMENT");
            for f in &report.failures {
                eprintln!("  {f}");
            }
            eprintln!("--- generated spec ---\n{}", report.source);
        }
    }
    if bad == 0 {
        println!("{count} seeds, all consistent");
        ExitCode::SUCCESS
    } else {
        eprintln!("{bad}/{count} seeds disagreed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = parse_cli(std::env::args().skip(1)).unwrap_or_else(|message| {
        if !message.is_empty() {
            eprintln!("{message}");
        }
        usage()
    });
    if let Some(count) = cli.fuzz {
        return run_fuzz(count, cli.seed);
    }
    if cli.files.is_empty() {
        usage();
    }

    let mut sources = Vec::new();
    let mut failed = false;
    for path in &cli.files {
        match std::fs::read_to_string(path) {
            Ok(source) => sources.push((path.display().to_string(), source)),
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                failed = true;
            }
        }
    }

    if cli.hash_only {
        for (name, source) in &sources {
            match compile(source) {
                Ok(job) => println!("{}  {name}", job.hash),
                Err(e) => {
                    eprintln!("{}", e.render(source, name));
                    failed = true;
                }
            }
        }
        return if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let server = Server::start(ServerConfig {
        workers: cli.workers,
        queue_depth: cli.queue,
        cache_dir: cli.cache,
        attach_traces: cli.trace,
    })
    .unwrap_or_else(|e| {
        eprintln!("failed to start server: {e}");
        std::process::exit(1)
    });
    for (name, source) in sources {
        server.submit(name, source);
    }
    for result in server.shutdown() {
        match &result.verdict {
            Ok(verdict) => {
                let origin = if result.cached { "cache" } else { "computed" };
                println!("{} [{origin}] {verdict}", result.name);
                if let Some(trace) = &result.trace {
                    println!("{} [trace] {trace}", result.name);
                }
            }
            Err(rendered) => {
                eprintln!("{rendered}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn defaults_and_values() {
        let cli = parse(&["a.wspec", "--workers", "4", "--queue", "8", "--cache", "d"]).unwrap();
        assert_eq!(cli.workers, 4);
        assert_eq!(cli.queue, 8);
        assert_eq!(cli.cache, Some(PathBuf::from("d")));
        assert_eq!(cli.files, vec![PathBuf::from("a.wspec")]);
        let cli = parse(&["--fuzz", "40", "--seed", "7", "--trace"]).unwrap();
        assert_eq!((cli.fuzz, cli.seed, cli.trace), (Some(40), 7, true));
        let cli = parse(&[]).unwrap();
        assert_eq!((cli.workers, cli.queue, cli.hash_only), (2, 64, false));
    }

    #[test]
    fn zero_workers_or_queue_is_rejected() {
        assert_eq!(
            parse(&["--workers", "0", "a.wspec"]).unwrap_err(),
            "--workers must be at least 1"
        );
        assert_eq!(
            parse(&["--queue", "0", "a.wspec"]).unwrap_err(),
            "--queue must be at least 1"
        );
    }

    #[test]
    fn malformed_missing_and_unknown_flags_are_rejected() {
        assert_eq!(
            parse(&["--workers", "two"]).unwrap_err(),
            "--workers needs a whole number, not `two`"
        );
        assert_eq!(
            parse(&["--seed", "-1"]).unwrap_err(),
            "--seed needs a whole number, not `-1`"
        );
        assert_eq!(parse(&["--queue"]).unwrap_err(), "--queue needs a value");
        assert_eq!(parse(&["--fast"]).unwrap_err(), "unknown option --fast");
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }
}

//! The service's acceptance contract, end to end: the committed Figure 1
//! spec round-trips through the language and verifies through
//! `wormserve` to the same classifier verdict as the hard-coded Rust
//! construction; a whitespace/comment-perturbed resubmission of every
//! corpus spec is served from the cache **bit-identically**, equal to
//! what the full path computes; and a spec that fails resolution is
//! answered with its error and never cached.
//!
//! Also pins the `wormserve/1` document's structural promises: sorted
//! keys at every object level and no environment-dependent fields.

use std::path::PathBuf;

use cyclic_wormhole::core::classify::{classify_algorithm, ClassifyOptions};
use cyclic_wormhole::core::paper::fig1;
use cyclic_wormhole::serve::verdict::classifier_name;
use cyclic_wormhole::serve::{compile, verdict_json, ResultCache, Server, ServerConfig};

fn fig1_source() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus/fig1.wspec");
    std::fs::read_to_string(path).expect("committed fig1 spec")
}

/// A meaning-preserving rewrite: comments, blank lines, trailing
/// whitespace.
fn perturbed(source: &str) -> String {
    let mut out = String::from("# resubmitted with different surface syntax\n");
    for (i, line) in source.lines().enumerate() {
        out.push_str(line);
        if i % 3 == 0 {
            out.push_str("   ");
        }
        out.push('\n');
        if i % 5 == 0 {
            out.push('\n');
        }
    }
    out
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wormserve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Walk a `wormserve/1` document checking every object's keys appear
/// in strictly sorted order. A tiny brace-depth scanner is enough
/// because the writer never emits `{`/`}`/`"` inside values except in
/// (escape-free) verdict names and skip reasons.
fn assert_sorted_keys(json: &str) {
    let mut stack: Vec<Option<String>> = Vec::new();
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => stack.push(None),
            '}' => {
                stack.pop();
            }
            '"' => {
                let mut s = String::new();
                for c in chars.by_ref() {
                    if c == '"' {
                        break;
                    }
                    s.push(c);
                }
                // A key is a string immediately followed by ':'.
                if chars.peek() == Some(&':') {
                    let last = stack.last_mut().expect("key outside object");
                    if let Some(prev) = last {
                        assert!(
                            prev.as_str() < s.as_str(),
                            "keys out of order: {prev:?} then {s:?} in {json}"
                        );
                    }
                    *last = Some(s);
                }
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unbalanced braces in {json}");
}

#[test]
fn fig1_spec_round_trips() {
    let source = fig1_source();
    let ast = wormspec::parse(&source).expect("fig1 parses");
    let printed = wormspec::to_spec(&ast);
    assert_eq!(wormspec::parse(&printed).expect("canonical parses"), ast);
}

#[test]
fn fig1_verdict_matches_the_hard_coded_pipeline() {
    let job = compile(&fig1_source()).expect("fig1 compiles");
    let served = verdict_json(&job);
    assert_sorted_keys(&served);

    // The hard-coded Rust construction, classified under the *same*
    // options the spec resolves to (fig1.wspec has no verify section,
    // so: static only, no search fallback).
    let c = fig1::cyclic_dependency();
    let direct = classify_algorithm(&c.net, &c.table, &job.classify_options);
    let expected = format!("\"verdict\":\"{}\"", classifier_name(&direct));
    assert!(
        served.contains(&expected),
        "served {served} vs direct {expected}"
    );
    assert!(!served.contains("elapsed"), "no timings allowed: {served}");
    assert!(!served.contains("fig1"), "no job name allowed: {served}");

    // With the search fallback enabled the spec path must land on the
    // paper's phenomenon — deadlock freedom *with* cyclic dependencies
    // — exactly like the default-options Rust pipeline.
    let searched_src = format!("{}verify {{ engine = search }}\n", fig1_source());
    let searched = compile(&searched_src).expect("fig1+search compiles");
    let spec_verdict = classify_algorithm(
        searched.network(),
        &searched.table,
        &searched.classify_options,
    );
    let rust_verdict = classify_algorithm(&c.net, &c.table, &ClassifyOptions::default());
    assert_eq!(
        classifier_name(&spec_verdict),
        classifier_name(&rust_verdict),
        "spec-driven and hard-coded pipelines disagree under search"
    );
    assert_eq!(classifier_name(&spec_verdict), "deadlock-free-with-cycles");
}

/// Every committed corpus spec: `(name, source)`, sorted by name.
fn corpus_sources() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("corpus/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "wspec"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (
                name,
                std::fs::read_to_string(&p).expect("corpus spec reads"),
            )
        })
        .collect();
    specs.sort();
    assert_eq!(specs.len(), 20, "corpus size");
    specs
}

fn cached_server(dir: &std::path::Path, workers: usize) -> Server {
    Server::start(ServerConfig {
        workers,
        queue_depth: 8,
        cache_dir: Some(dir.to_path_buf()),
        attach_traces: false,
    })
    .unwrap()
}

/// A hit skips resolution, so it must equal what the full path computes
/// for the resubmitted text: checked on every corpus spec.
#[test]
fn perturbed_resubmission_hits_the_cache_bit_identically() {
    let dir = tmpdir("acceptance");
    let corpus = corpus_sources();

    let server = cached_server(&dir, 2);
    for (name, source) in &corpus {
        assert!(server.submit(name.clone(), source.clone()));
    }
    let first = server.shutdown();
    for r in &first {
        assert!(!r.cached, "{}: first submission must compute", r.name);
    }

    // Resubmit with a different surface syntax: same canonical hash,
    // so the verdict replays from disk byte-for-byte.
    let server = cached_server(&dir, 1);
    let mut rewrites = Vec::new();
    for (name, source) in &corpus {
        let rewritten = perturbed(source);
        assert_ne!(&rewritten, source);
        assert!(server.submit(format!("{name}-rewrite"), rewritten.clone()));
        rewrites.push(rewritten);
    }
    let second = server.shutdown();
    for ((computed, hit), rewritten) in first.iter().zip(&second).zip(&rewrites) {
        let name = &computed.name;
        assert!(
            hit.cached,
            "{name}: perturbed resubmission must hit the cache"
        );
        assert_eq!(hit.hash, computed.hash, "{name}");
        let stored = hit.verdict.as_ref().unwrap();
        assert_eq!(
            stored,
            computed.verdict.as_ref().unwrap(),
            "{name}: cache replay must be bit-identical"
        );
        let full_path = verdict_json(&compile(rewritten).expect("rewrite compiles"));
        assert_eq!(
            stored, &full_path,
            "{name}: the hit differs from the full path"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A spec that parses but fails in a resolution seam has a key, yet is
/// answered with its error, never a verdict, and is never stored.
#[test]
fn resolution_errors_are_never_cached() {
    let dir = tmpdir("unresolvable");
    let source = "wormspec/1\n\
                  topology { kind = ring nodes = 4 }\n\
                  routing { engine = table path \"r0\" -> \"r99\" = [c0] }\n";
    let server = cached_server(&dir, 1);
    assert!(server.submit("unresolvable", source));
    assert!(server.submit("unresolvable", source));
    let results = server.shutdown();
    let expected = compile(source)
        .expect_err("the spec names an unknown node")
        .render(source, "unresolvable");
    assert!(expected.contains("error[E014]"), "{expected}");
    for r in &results {
        assert_eq!(r.verdict.as_ref().unwrap_err(), &expected);
        assert_eq!(r.hash, None);
        assert!(!r.cached);
    }
    let cache = ResultCache::open(&dir).unwrap();
    assert!(cache.is_empty(), "an error must never be stored");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn verdicts_stay_sorted_across_engine_selections() {
    for verify in [
        "",
        "verify { engine = search }\n",
        "verify { engine = sim horizon = 100 cycles }\n",
        "verify { engine = full horizon = 100 cycles }\n",
    ] {
        let source = format!(
            "wormspec/1\n\
             topology {{ kind = ring nodes = 4 }}\n\
             routing {{ engine = clockwise_ring }}\n\
             traffic {{\n\
               pattern = explicit\n\
               message \"r0\" -> \"r2\" length 2 flits\n\
               message \"r2\" -> \"r0\" length 2 flits\n\
             }}\n\
             faults {{ down c1 @ 50 cycles }}\n\
             {verify}"
        );
        let job = compile(&source).expect("spec compiles");
        let served = verdict_json(&job);
        assert_sorted_keys(&served);
        assert!(served.contains("\"schema\":\"wormserve/1\""));
    }
}

//! End-to-end tests of the CLI binaries.

use std::process::Command;

fn analyze(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(args)
        .output()
        .expect("spawn analyze");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

#[test]
fn mesh_xy_is_dally_seitz_free() {
    let (out, ok) = analyze(&["mesh", "3", "3", "xy"]);
    assert!(ok);
    assert!(out.contains("acyclic"));
    assert!(out.contains("DEADLOCK-FREE (Dally-Seitz"));
}

#[test]
fn clockwise_ring_is_deadlockable() {
    let (out, ok) = analyze(&["ring", "4", "clockwise"]);
    assert!(ok);
    assert!(out.contains("DEADLOCKABLE"));
    assert!(out.contains("Theorem 2"));
}

#[test]
fn fig1_reports_false_resource_cycle() {
    let (out, ok) = analyze(&["fig1"]);
    assert!(ok);
    assert!(out.contains("shared-channel cycle: ring of 14 channels"));
    assert!(out.contains("DEADLOCK-FREE WITH CYCLIC DEPENDENCIES"));
    assert!(out.contains("exhaustive search"));
    // The search-decided candidate carries the states its search
    // visited.
    assert!(!out.contains("(0 states)"), "{out}");
}

#[test]
fn fig3_scenarios_resolve_by_name() {
    let (out, ok) = analyze(&["fig3a"]);
    assert!(ok);
    assert!(out.contains("DEADLOCK-FREE WITH CYCLIC DEPENDENCIES"));
    assert!(out.contains("Theorem 5: all eight conditions hold"));

    let (out, ok) = analyze(&["fig3e"]);
    assert!(ok);
    assert!(out.contains("DEADLOCKABLE"));
    assert!(out.contains("conditions [7] fail"));
}

#[test]
fn bad_usage_exits_nonzero() {
    let (_, ok) = analyze(&["nonsense"]);
    assert!(!ok);
    let (_, ok) = analyze(&[]);
    assert!(!ok);
    let (_, ok) = analyze(&["mesh", "3"]);
    assert!(!ok);
    // Extra arguments, and shapes the builders cannot make, are usage
    // errors rather than ignored words or panics.
    for args in [
        &["fig1", "--bogus"][..],
        &["mesh", "4", "4", "xy", "extra"],
        &["g", "0"],
        &["mesh", "1", "1", "xy"],
        &["ring", "1", "clockwise"],
        &["torus", "2", "2", "dateline"],
        &["hypercube", "0", "ecube"],
        &["hypercube", "17", "ecube"],
        &["hypercube", "21", "ecube"],
    ] {
        assert_eq!(
            exit_code(env!("CARGO_BIN_EXE_analyze"), args),
            Some(2),
            "{args:?}"
        );
    }
}

/// The exit status of a binary run with `args`.
fn exit_code(exe: &str, args: &[&str]) -> Option<i32> {
    Command::new(exe)
        .args(args)
        .output()
        .expect("spawn binary")
        .status
        .code()
}

#[test]
fn binaries_reject_flags_they_do_not_take() {
    let faults = env!("CARGO_BIN_EXE_exp_faults");
    assert_eq!(exit_code(faults, &["--engine", "event"]), Some(2));
    assert_eq!(exit_code(faults, &["--seed"]), Some(2));
    assert_eq!(exit_code(faults, &["--seed", "7", "extra"]), Some(2));
    for exe in [
        env!("CARGO_BIN_EXE_exp_skew"),
        env!("CARGO_BIN_EXE_exp_fig3"),
        env!("CARGO_BIN_EXE_exp_generalized"),
    ] {
        assert_eq!(exit_code(exe, &["--threads", "2"]), Some(2), "{exe}");
    }
    assert_eq!(
        exit_code(
            env!("CARGO_BIN_EXE_bench_report"),
            &["--engine", "stepping"]
        ),
        Some(2)
    );
    assert_eq!(
        exit_code(env!("CARGO_BIN_EXE_run_all"), &["--smoke"]),
        Some(2)
    );
    assert_eq!(
        exit_code(env!("CARGO_BIN_EXE_wormlint"), &["--jsonn"]),
        Some(2)
    );
    assert_eq!(
        exit_code(env!("CARGO_BIN_EXE_validate"), &["--bogus"]),
        Some(2)
    );
}

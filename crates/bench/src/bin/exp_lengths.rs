//! EXP-FF — message-length-dependent "deadlock freedom" (the paper's
//! Section 1 critique of Fleury & Fraigniaud's example).
//!
//! The paper notes that F&F's independent unreachable-cycle example
//! "requires message lengths of three flits ... if shorter messages
//! are used, a deadlock can be formed", violating the standard
//! assumption that messages can be of arbitrary length — whereas the
//! paper's Figure 1 is deadlock-free at *every* length.
//!
//! We reproduce the phenomenon inside our construction family: a
//! three-sharer instance sitting exactly on the timing-race boundary
//! is deadlock-free when `M_y` is long (its serialization through the
//! shared channel delays `M_z` too much) but deadlocks when `M_y` is
//! short. Figure 1, swept over the same lengths, never deadlocks.
//!
//! Run with: `cargo run --release -p wormbench --bin exp_lengths`
//! (add `--trace <path>` to dump a wormtrace JSON report)

use worm_core::family::{CycleMessageSpec, SharedCycleSpec};
use worm_core::paper::fig1;
use wormbench::report::{cell, header, row};
use wormbench::{args, trace};
use wormsearch::{explore, SearchConfig};
use wormsim::{MessageSpec, Sim};

/// The boundary instance: x = (5, 5), z = (1, 3), y = (2, 2).
/// The z-blocks-x race needs `d_x >= d_z + l_y + 2`, i.e. l_y <= 2.
fn boundary_spec() -> SharedCycleSpec {
    SharedCycleSpec {
        messages: vec![
            CycleMessageSpec::shared(5, 5, 1), // M_x
            CycleMessageSpec::shared(1, 3, 1), // M_z
            CycleMessageSpec::shared(2, 2, 1), // M_y
        ],
    }
}

fn verdict(c: &worm_core::family::CycleConstruction, lengths: &[usize]) -> (&'static str, usize) {
    let specs: Vec<MessageSpec> = c
        .built
        .iter()
        .zip(lengths)
        .map(|(b, &l)| MessageSpec::new(b.pair.0, b.pair.1, l))
        .collect();
    let sim = Sim::new(&c.net, &c.table, specs, Some(1)).expect("routed");
    let r = explore(&sim, &SearchConfig::default());
    (
        if r.verdict.is_free() {
            "free"
        } else {
            "DEADLOCK"
        },
        r.states_explored,
    )
}

fn main() {
    args::accept(&["--trace"], &[]);
    let _trace = trace::init("exp_lengths");
    println!("EXP-FF: length-dependent deadlock freedom (Section 1's F&F critique)\n");

    println!("boundary three-sharer instance, sweeping M_y's length:");
    header(&[("l_y (flits)", 12), ("verdict", 10), ("states", 9)]);
    let c = boundary_spec().build();
    let mut flipped = false;
    let mut prev = "";
    for l_y in 2..=6usize {
        // x and z at their minimum sustaining lengths.
        let (v, states) = verdict(&c, &[5, 3, l_y]);
        if !prev.is_empty() && prev != v {
            flipped = true;
        }
        prev = v;
        row(&[cell(l_y, 12), cell(v, 10), cell(states, 9)]);
    }
    assert!(flipped, "the verdict must depend on M_y's length");

    println!();
    println!("Figure 1, sweeping every message's length together:");
    header(&[("l (flits)", 12), ("verdict", 10), ("states", 9)]);
    let f = fig1::cyclic_dependency();
    for extra in 0..=4usize {
        let lengths: Vec<usize> = f.built.iter().map(|b| b.spec.g + extra).collect();
        let (v, states) = verdict(&f, &lengths);
        row(&[
            cell(format!("g_i + {extra}"), 12),
            cell(v, 10),
            cell(states, 9),
        ]);
        assert_eq!(v, "free", "Figure 1 must be length-robust");
    }

    println!();
    println!("the boundary instance is 'deadlock-free' only for long-enough M_y —");
    println!("exactly the flaw the paper identifies in Fleury & Fraigniaud's example");
    println!("(\"if shorter messages are used, a deadlock can be formed\"); Figure 1");
    println!("satisfies the arbitrary-length assumption and stays free at every length.");
}

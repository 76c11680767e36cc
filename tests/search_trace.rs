//! The `sim.*` and `search.*` trace counters a search publishes.
//!
//! A search steps through `Sim::step_with`, sums its steps' `sim.*`
//! counters and publishes them once. The totals below were recorded
//! with the engines that published from every `Sim::step`, so they
//! also pin that summing loses no step, moved or not.
//!
//! The recorder is installed on the test's own thread, so tests
//! running side by side never mix their counters.

use std::collections::BTreeMap;
use std::sync::Arc;

use cyclic_wormhole::core::paper::{fig1, generalized};
use cyclic_wormhole::search::{explore, explore_until, SearchConfig};
use cyclic_wormhole::sim::{MessageId, Sim};
use cyclic_wormhole::trace::{self, MemoryRecorder};

/// The `search.*` and `sim.*` counters `run` publishes.
fn counters(run: impl FnOnce()) -> BTreeMap<String, u64> {
    let rec = Arc::new(MemoryRecorder::new());
    trace::install(rec.clone());
    run();
    trace::uninstall();
    rec.snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("sim.") || name.starts_with("search."))
        .collect()
}

fn expect(got: BTreeMap<String, u64>, want: &[(&str, u64)]) {
    let want: BTreeMap<String, u64> = want.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    assert_eq!(got, want);
}

#[test]
fn searches_publish_the_per_step_totals() {
    let c = fig1::cyclic_dependency();
    let fig1_sim = Sim::new(&c.net, &c.table, c.message_specs(), Some(1)).unwrap();
    let fig1_candidate = c.canonical_candidate();
    let fig1_cycle = c.cycle();
    let c = generalized::generalized(1);
    let g1_sim = Sim::new(
        &c.net,
        &c.table,
        generalized::minimum_length_specs(&c),
        Some(1),
    )
    .unwrap();

    expect(
        counters(|| {
            explore(&fig1_sim, &SearchConfig::default());
        }),
        &[
            ("search.dedup_hits", 969),
            ("search.dedup_lookups", 2336),
            ("search.searches", 1),
            ("search.states", 1368),
            ("sim.arb_conflicts", 536),
            ("sim.cycles", 2351),
            ("sim.delivered", 492),
            ("sim.flits_moved", 11264),
            ("sim.stall_injections", 0),
        ],
    );
    expect(
        counters(|| {
            explore(&g1_sim, &SearchConfig::with_stalls(2));
        }),
        &[
            ("search.dedup_hits", 8502),
            ("search.dedup_lookups", 13310),
            ("search.searches", 1),
            ("search.states", 4809),
            ("sim.arb_conflicts", 1389),
            ("sim.cycles", 14609),
            ("sim.delivered", 2957),
            ("sim.flits_moved", 61050),
            ("sim.stall_injections", 8935),
        ],
    );
    let owned: Vec<(MessageId, Vec<_>)> = fig1_candidate
        .segments
        .iter()
        .enumerate()
        .map(|(i, s)| (MessageId::from_index(i), s.channels(&fig1_cycle).collect()))
        .collect();
    expect(
        counters(|| {
            explore_until(&fig1_sim, &SearchConfig::default(), |_, state| {
                owned.iter().all(|(m, chans)| {
                    chans
                        .iter()
                        .all(|c| matches!(state.channels[c.index()], Some(o) if o.msg == *m))
                })
            });
        }),
        &[
            ("sim.arb_conflicts", 536),
            ("sim.cycles", 2351),
            ("sim.delivered", 492),
            ("sim.flits_moved", 11264),
            ("sim.stall_injections", 0),
        ],
    );
}

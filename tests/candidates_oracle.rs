//! The flat candidate store and the stamped sharing analysis against
//! the implementations they replaced, kept here as oracles: a
//! depth-first enumerator that builds one `Vec` per segment and checks
//! each leaf by sorting its boundary messages, and a sharing analysis
//! that packs every channel use into a word and sorts them.
//!
//! Both must agree on every candidate and its order, the completeness
//! flag at each budget, and every shared channel with its users in
//! segment order and its inside flag: on random ring tables, on the
//! paper's constructions, and on every cyclic production-fabric slot
//! variant of the benchmark at its budgets.

use cyclic_wormhole::cdg::sharing::{CycleIndex, SharingAnalysis};
use cyclic_wormhole::cdg::{
    enumerate_candidates, Candidates, Cdg, CdgCycle, MsgPair, Segment, Witnesses,
};
use cyclic_wormhole::core::analysis::analyze_cycles;
use cyclic_wormhole::core::family::CycleConstruction;
use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::net::topology::ring_bidirectional;
use cyclic_wormhole::net::{ChannelId, Network};
use cyclic_wormhole::route::{properties, TableRouting};
use cyclic_wormhole::serve::compile;
use proptest::prelude::*;

/// A candidate as plain values: per segment, its message and channels.
type Plain = Vec<(MsgPair, Vec<ChannelId>)>;

/// A shared channel as plain values: the channel, its users, inside.
type Shared = (ChannelId, Vec<MsgPair>, bool);

fn plain(cycle: &CdgCycle, segments: &[Segment]) -> Plain {
    segments
        .iter()
        .map(|s| (s.msg, s.channels(cycle).collect()))
        .collect()
}

fn plain_all(cycle: &CdgCycle, candidates: &Candidates) -> Vec<Plain> {
    candidates.iter().map(|c| plain(cycle, c)).collect()
}

fn shared(analysis: &SharingAnalysis) -> Vec<Shared> {
    analysis
        .shared()
        .iter()
        .map(|s| (s.channel, s.users.to_vec(), s.inside_cycle))
        .collect()
}

/// The enumerator the flat store replaced: every owner assignment in
/// depth-first order, each leaf checked for cyclic contiguity by its
/// sorted boundary messages and built with a `Vec` per segment.
fn nested_oracle(
    witnesses: &Witnesses,
    cycle: &CdgCycle,
    max_candidates: usize,
) -> (Vec<Plain>, bool) {
    fn finalize(owners: &[MsgPair], cycle: &CdgCycle) -> Option<Plain> {
        let l = owners.len();
        let mut boundary_msgs: Vec<MsgPair> = Vec::new();
        for i in 0..l {
            if owners[i] != owners[(i + l - 1) % l] {
                boundary_msgs.push(owners[i]);
            }
        }
        if boundary_msgs.is_empty() {
            return None;
        }
        let mut sorted = boundary_msgs.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) || boundary_msgs.len() < 2 {
            return None;
        }
        let first_boundary = (0..l)
            .find(|&i| owners[i] != owners[(i + l - 1) % l])
            .expect("boundaries exist");
        let mut segments: Plain = Vec::new();
        let mut idx = first_boundary;
        for _ in 0..l {
            let m = owners[idx];
            match segments.last_mut() {
                Some(seg) if seg.0 == m => seg.1.push(cycle.channels[idx]),
                _ => segments.push((m, vec![cycle.channels[idx]])),
            }
            idx = (idx + 1) % l;
        }
        Some(segments)
    }

    fn enumerate(
        witness_sets: &[&[MsgPair]],
        owners: &mut Vec<MsgPair>,
        cycle: &CdgCycle,
        out: &mut Vec<Plain>,
        max_candidates: usize,
    ) -> Option<()> {
        let i = owners.len();
        if i == witness_sets.len() {
            if let Some(cand) = finalize(owners, cycle) {
                out.push(cand);
                if out.len() > max_candidates {
                    return None;
                }
            }
            return Some(());
        }
        for &m in witness_sets[i] {
            if i > 0 && owners[i - 1] != m && owners.contains(&m) && owners[0] != m {
                continue;
            }
            owners.push(m);
            enumerate(witness_sets, owners, cycle, out, max_candidates)?;
            owners.pop();
        }
        Some(())
    }

    let witness_sets: Vec<&[MsgPair]> = cycle
        .edge_pairs()
        .map(|(a, b)| witnesses.get(a, b))
        .collect();
    if witness_sets.iter().any(|w| w.is_empty()) {
        return (Vec::new(), true);
    }
    let mut out = Vec::new();
    let mut owners = Vec::with_capacity(cycle.len());
    let complete = enumerate(&witness_sets, &mut owners, cycle, &mut out, max_candidates).is_some();
    (out, complete)
}

/// The sharing analysis the stamped one replaced: every channel use
/// packed as `channel << 32 | segment << 1 | at or after the user's
/// entry`, sorted, and each channel's run of two or more read off.
fn sorted_oracle(table: &TableRouting, cycle: &CdgCycle, segments: &[Segment]) -> Vec<Shared> {
    let mut uses: Vec<u64> = Vec::new();
    for (k, seg) in segments.iter().enumerate() {
        let chans = table.path(seg.msg.0, seg.msg.1).unwrap().channels();
        let entry = chans
            .iter()
            .position(|&c| cycle.contains(c))
            .unwrap_or(chans.len());
        uses.extend(
            chans
                .iter()
                .enumerate()
                .map(|(i, &c)| (c.index() as u64) << 32 | (k as u64) << 1 | u64::from(i >= entry)),
        );
    }
    uses.sort_unstable();
    uses.chunk_by(|a, b| a >> 32 == b >> 32)
        .filter(|group| group.len() >= 2)
        .map(|group| {
            let channel = ChannelId::from_index((group[0] >> 32) as usize);
            let users = group
                .iter()
                .map(|&u| segments[((u & 0xffff_ffff) >> 1) as usize].msg)
                .collect();
            let inside = cycle.contains(channel) && group.iter().all(|&u| u & 1 == 1);
            (channel, users, inside)
        })
        .collect()
}

fn outside_part(all: Vec<Shared>) -> Vec<Shared> {
    all.into_iter().filter(|s| !s.2).collect()
}

/// Hold `cycles` of `table` to the oracles: the candidates and the
/// completeness at budgets 0, 1, 7, `n - 1` and unbounded when a cycle
/// has `n <= cap` candidates, else at 0, 1, 7, `cap - 1` and `cap` (a
/// single-lane ring of nine nodes has millions); and the sharing of
/// every candidate enumerated at the largest budget, whole and outside
/// only. Returns how many candidates were compared.
fn check_cycles(net: &Network, table: &TableRouting, cycles: &[CdgCycle], cap: usize) -> usize {
    let witnesses = Witnesses::of_cycles(table, cycles);
    let mut index = CycleIndex::new(net);
    let mut outside = SharingAnalysis::default();
    let mut compared = 0;
    for (ci, cycle) in cycles.iter().enumerate() {
        let (probe, complete) = enumerate_candidates(&witnesses, cycle, cap);
        let n = probe.len();
        let budgets = if complete {
            [0, 1, 7, n.saturating_sub(1), usize::MAX]
        } else {
            [0, 1, 7, cap - 1, cap]
        };
        for budget in budgets {
            let (want, want_complete) = nested_oracle(&witnesses, cycle, budget);
            let (got, got_complete) = enumerate_candidates(&witnesses, cycle, budget);
            assert_eq!(plain_all(cycle, &got), want, "cycle {ci}, budget {budget}");
            assert_eq!(got_complete, want_complete, "cycle {ci}, budget {budget}");
        }
        index.set(cycle);
        for (k, segments) in probe.iter().enumerate() {
            let want = sorted_oracle(table, cycle, segments);
            assert_eq!(
                shared(&index.analyze(table, segments)),
                want,
                "cycle {ci}, candidate {k}"
            );
            let range = index.analyze_into(table, segments, true, &mut outside);
            let got: Vec<Shared> = outside
                .range(range)
                .iter()
                .map(|s| (s.channel, s.users.to_vec(), s.inside_cycle))
                .collect();
            assert_eq!(got, outside_part(want), "cycle {ci}, candidate {k}");
        }
        compared += n;
    }
    compared
}

/// Clockwise from `s` to `d` when the clockwise distance is at most
/// the pair's threshold, else counter-clockwise.
fn ring_table(net: &Network, n: usize, thresholds: &[usize]) -> TableRouting {
    let nodes: Vec<_> = net.nodes().collect();
    TableRouting::build(net, |path, s, d| {
        let (si, di) = (s.index(), d.index());
        let step = if (di + n - si) % n <= thresholds[si * n + di] {
            1
        } else {
            n - 1
        };
        path.node(s);
        let mut i = si;
        while i != di {
            i = (i + step) % n;
            path.node(nodes[i]);
        }
        Some(())
    })
    .expect("ring tables route every pair")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Rings of 4–9 nodes, each pair routed clockwise up to a random
    /// distance and counter-clockwise beyond it: cycles in either
    /// direction, with sharing inside and outside them.
    #[test]
    fn random_ring_tables_match_the_oracles(
        (n, thresholds) in (4usize..10)
            .prop_flat_map(|n| (Just(n), prop::collection::vec(1usize..9, n * n)))
    ) {
        let (net, _) = ring_bidirectional(n);
        let table = ring_table(&net, n, &thresholds);
        let cdg = Cdg::build(&net, &table);
        prop_assume!(!cdg.is_acyclic());
        let (cycles, _) = cdg.cycles_streamed(8);
        check_cycles(&net, &table, &cycles, 2_000);
    }
}

#[test]
fn paper_constructions_match_the_oracles() {
    let mut built: Vec<(String, CycleConstruction)> = vec![
        ("fig1".into(), fig1::cyclic_dependency()),
        ("fig2".into(), fig2::two_message_deadlock()),
    ];
    for s in fig3::all_scenarios() {
        built.push((format!("fig3 ({})", s.name), s.spec.build()));
    }
    for k in 1..=5 {
        built.push((format!("G({k})"), generalized::generalized(k)));
    }
    for (name, c) in built {
        let cycles = c.cdg().cycles();
        assert!(!cycles.is_empty(), "{name} is cyclic");
        let compared = check_cycles(&c.net, &c.table, &cycles, 2_000);
        assert!(compared > 0, "{name} has candidates");
    }
}

/// The benchmark's cyclic production-fabric slots: the single-lane
/// dragonflies, the clockwise rings and the ring-detour meshes, at the
/// workload's budgets of 8 cycles and 256 candidates. Besides the
/// enumerator and the sharing analysis, the candidate phase the
/// analysis runs must store the same candidates and outside sharing.
#[test]
fn cyclic_fabric_slots_match_the_oracles() {
    let mut topologies: Vec<(String, &str)> = Vec::new();
    for (g, a) in [(5, 4), (9, 8)] {
        topologies.push((
            format!(
                "kind = dragonfly\n  groups = {g}\n  routers = {a}\n  local_lanes = [0]\n  global_lanes = [0]"
            ),
            "dragonfly_minimal",
        ));
    }
    for n in [16, 17, 24, 25] {
        topologies.push((format!("kind = ring\n  nodes = {n}"), "clockwise_ring"));
    }
    for n in [12, 13, 40, 41] {
        topologies.push((
            format!("kind = complete\n  nodes = {n}"),
            "fullmesh_ring_detour",
        ));
    }
    for (topology, engine) in topologies {
        let source = format!(
            "wormspec/1\ntopology {{\n  {topology}\n}}\nrouting {{\n  engine = {engine}\n}}\nverify {{\n  engine = static\n  max_cycles = 8\n  max_candidates = 256\n}}\n"
        );
        let job = compile(&source).unwrap_or_else(|e| panic!("{}", e.render(&source, "job")));
        let (net, table) = (job.network(), &job.table);
        let (max_cycles, max_candidates) = (
            job.classify_options.max_cycles,
            job.classify_options.max_candidates,
        );
        assert_eq!((max_cycles, max_candidates), (8, 256));
        let (cycles, _) = Cdg::build(net, table).cycles_streamed(max_cycles);
        assert!(!cycles.is_empty(), "{engine} is cyclic");
        let witnesses = Witnesses::of_cycles(table, &cycles);
        let analyzed = analyze_cycles(
            net,
            table,
            cycles.clone(),
            max_candidates,
            properties::is_minimal(net, table),
        );
        for (cycle, cy) in cycles.iter().zip(&analyzed) {
            let (want, complete) = nested_oracle(&witnesses, cycle, max_candidates);
            assert_eq!(plain_all(cycle, &cy.candidates), want, "{engine}");
            assert_eq!(cy.enumeration_complete, complete, "{engine}");
            for (i, ca) in cy.analyses().enumerate() {
                let got: Vec<Shared> = ca
                    .outside
                    .iter()
                    .map(|s| (s.channel, s.users.to_vec(), s.inside_cycle))
                    .collect();
                let want = sorted_oracle(table, cycle, &cy.candidates[i]);
                assert_eq!(got, outside_part(want), "{engine}, candidate {i}");
            }
        }
        check_cycles(net, table, &cycles, max_candidates);
    }
}

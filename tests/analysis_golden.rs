//! Golden static analyses: the routing table, the CDG, every
//! enumerated cycle's witness lists and candidates, and the rendered
//! lint report of a fixed set of inputs, committed as
//! `tests/snapshots/analysis_golden.txt`.
//!
//! The inputs are every variant of every production-fabric slot the
//! benchmark's `fabric_static` workload draws from (48 specs), the 20
//! corpus specs, and the 13 paper constructions (Figures 1–3 and
//! `G(1)`–`G(5)`), each also with its shared channel `c_s` down. Per
//! input the snapshot records:
//!
//! - the table's path and hop counts and a digest of its paths in
//!   iteration order;
//! - the CDG's edge count, a digest of its edge list, and a digest of
//!   the Kahn numbering or the list of enumerated cycles;
//! - per cycle, a digest of the witness lists of its edges, its
//!   candidate count and completeness, and one digest over its
//!   candidates: per segment its message and channels, per shared
//!   channel its users and whether it lies inside the cycle, and the
//!   theorem class;
//! - a digest of the rendered `Registry::run` report;
//! - for the fabrics, the full `wormserve/1` document.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_SPECS=1 cargo test --test analysis_golden
//! ```
//!
//! then commit the updated file together with the change.

use std::fmt::Write as _;
use std::path::PathBuf;

use cyclic_wormhole::cdg::{Cdg, CdgCycle, MsgPair, Witnesses};
use cyclic_wormhole::core::analysis::Analysis;
use cyclic_wormhole::core::family::CycleConstruction;
use cyclic_wormhole::core::paper::{fig1, fig2, fig3, generalized};
use cyclic_wormhole::exist::ExistOptions;
use cyclic_wormhole::lint::{LintConfig, Registry};
use cyclic_wormhole::net::Network;
use cyclic_wormhole::route::TableRouting;
use cyclic_wormhole::serve::{compile, verdict_json};

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/analysis_golden.txt")
}

/// 64-bit FNV-1a over everything written into it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.num(s.len());
        self.bytes(s.as_bytes());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn pair(d: &mut Digest, (s, t): MsgPair) {
    d.num(s.index());
    d.num(t.index());
}

/// One input: a network, its table, the enumeration budgets, the
/// existence options and the lint configuration, plus the spec source
/// of the fabrics (whose verdict document is recorded in full).
struct Input {
    name: String,
    net: Network,
    table: TableRouting,
    budgets: (usize, usize),
    exist: ExistOptions,
    lint: LintConfig,
    source: Option<String>,
}

impl Input {
    fn from_spec(name: String, source: String, keep_document: bool) -> Self {
        let job =
            compile(&source).unwrap_or_else(|e| panic!("{name}: {}", e.render(&source, "job")));
        Input {
            name,
            net: job.network().clone(),
            table: job.table.clone(),
            budgets: (
                job.classify_options.max_cycles,
                job.classify_options.max_candidates,
            ),
            exist: job.exist_options.clone(),
            lint: job.lint_config.clone(),
            source: keep_document.then_some(source),
        }
    }

    fn from_construction(name: String, net: Network, table: TableRouting) -> Self {
        let lint = LintConfig::default();
        Input {
            name,
            net,
            table,
            budgets: (lint.max_cycles, lint.max_candidates),
            exist: ExistOptions::default(),
            lint,
            source: None,
        }
    }
}

/// Every variant of every `fabric_static` slot: `(topology keys,
/// engine, deadlockable)`.
fn fabric_variants() -> Vec<(String, &'static str, bool)> {
    let mut out: Vec<(String, &'static str, bool)> = Vec::new();
    let mesh = |d: &[u32], engine: &'static str| {
        let dims: Vec<String> = d.iter().map(u32::to_string).collect();
        (
            format!("kind = mesh\n  dims = [{}]", dims.join(", ")),
            engine,
            false,
        )
    };
    for (d, e) in [
        (&[5, 8][..], "dimension_order"),
        (&[8, 5], "dimension_order"),
        (&[9, 10], "dimension_order"),
        (&[10, 9], "dimension_order"),
        (&[4, 4, 5], "dimension_order"),
        (&[4, 5, 4], "dimension_order"),
        (&[5, 4, 4], "dimension_order"),
        (&[6, 9], "west_first"),
        (&[9, 6], "west_first"),
        (&[7, 8], "negative_first"),
        (&[8, 7], "negative_first"),
        (&[4, 4, 4], "negative_first"),
        (&[3, 4, 5], "negative_first"),
        (&[6, 8], "xy_mesh"),
        (&[8, 6], "xy_mesh"),
    ] {
        out.push(mesh(d, e));
    }
    for (a, b) in [(6, 8), (8, 6)] {
        out.push((
            format!("kind = torus\n  dims = [{a}, {b}]\n  vcs = 2 lanes"),
            "dateline_torus",
            false,
        ));
    }
    out.push((
        "kind = ring\n  nodes = 50\n  vcs = 2 lanes".into(),
        "dateline_ring",
        false,
    ));
    for d in [6, 7] {
        out.push((format!("kind = hypercube\n  dim = {d}"), "ecube", false));
    }
    for (g, a) in [(5, 4), (4, 5), (9, 8), (8, 9), (13, 12), (12, 13)] {
        out.push((
            format!("kind = dragonfly\n  groups = {g}\n  routers = {a}"),
            "dragonfly_minimal",
            false,
        ));
    }
    for (g, a) in [(6, 5), (5, 6), (9, 8), (8, 9)] {
        out.push((
            format!("kind = dragonfly\n  groups = {g}\n  routers = {a}\n  valiant = true"),
            "dragonfly_valiant",
            false,
        ));
    }
    for k in [10, 12] {
        out.push((
            format!("kind = fattree\n  k = {k}"),
            "fattree_updown",
            false,
        ));
    }
    for (n, e) in [
        (30, "fullmesh_vcfree"),
        (31, "fullmesh_vcfree"),
        (99, "fullmesh_vcfree"),
        (100, "fullmesh_vcfree"),
        (40, "fullmesh_direct"),
        (41, "fullmesh_direct"),
    ] {
        out.push((format!("kind = complete\n  nodes = {n}"), e, false));
    }
    for (g, a) in [(5, 4), (9, 8)] {
        out.push((
            format!(
                "kind = dragonfly\n  groups = {g}\n  routers = {a}\n  local_lanes = [0]\n  global_lanes = [0]"
            ),
            "dragonfly_minimal",
            true,
        ));
    }
    for n in [16, 17, 24, 25] {
        out.push((
            format!("kind = ring\n  nodes = {n}"),
            "clockwise_ring",
            true,
        ));
    }
    for n in [12, 13, 40, 41] {
        out.push((
            format!("kind = complete\n  nodes = {n}"),
            "fullmesh_ring_detour",
            true,
        ));
    }
    out
}

fn fabric_inputs() -> Vec<Input> {
    let variants = fabric_variants();
    assert_eq!(variants.len(), 48, "fabric variants");
    variants
        .into_iter()
        .map(|(topology, engine, deadlockable)| {
            let budgets = if deadlockable {
                "\n  max_cycles = 8\n  max_candidates = 256"
            } else {
                ""
            };
            let source = format!(
                "wormspec/1\ntopology {{\n  {topology}\n}}\nrouting {{\n  engine = {engine}\n}}\nverify {{\n  engine = static{budgets}\n}}\n"
            );
            let name = format!("fabric {engine}[{}]", topology.replace("\n  ", " "));
            Input::from_spec(name, source, true)
        })
        .collect()
}

fn corpus_inputs() -> Vec<Input> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("corpus/ exists")
        .filter_map(Result::ok)
        .filter_map(|e| {
            let path = e.path();
            (path.extension().and_then(|x| x.to_str()) == Some("wspec"))
                .then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    names.sort();
    assert_eq!(names.len(), 20, "corpus size");
    names
        .into_iter()
        .map(|n| {
            let source =
                std::fs::read_to_string(dir.join(format!("{n}.wspec"))).expect("read spec");
            Input::from_spec(format!("corpus {n}"), source, false)
        })
        .collect()
}

fn construction_inputs() -> Vec<Input> {
    let mut built: Vec<(String, CycleConstruction)> = vec![
        ("fig1".into(), fig1::cyclic_dependency()),
        ("fig2".into(), fig2::two_message_deadlock()),
    ];
    for s in fig3::all_scenarios() {
        built.push((format!("fig3_{}", s.name), s.spec.build()));
    }
    for k in 1..=5 {
        built.push((format!("G({k})"), generalized::generalized(k)));
    }
    assert_eq!(built.len(), 13, "paper constructions");
    let mut out = Vec::new();
    for (name, c) in built {
        let degraded = c.table.without_channels(&[c.cs]);
        out.push(Input::from_construction(
            format!("paper {name}"),
            c.net.clone(),
            c.table.clone(),
        ));
        out.push(Input::from_construction(
            format!("paper {name} c_s down"),
            c.net,
            degraded,
        ));
    }
    out
}

fn table_lines(out: &mut String, table: &TableRouting) {
    let mut d = Digest::new();
    let mut hops = 0;
    for ((s, t), path) in table.iter() {
        pair(&mut d, (s, t));
        d.num(path.len());
        for c in path.channels() {
            d.num(c.index());
        }
        hops += path.len();
    }
    let _ = writeln!(
        out,
        "table: {} paths, {hops} hops, digest {}",
        table.len(),
        d.hex()
    );
}

fn cdg_lines(out: &mut String, cdg: &Cdg, analysis: &Analysis<'_>) {
    let mut d = Digest::new();
    for (a, b) in cdg.edges() {
        d.num(a.index());
        d.num(b.index());
    }
    let _ = writeln!(out, "cdg: {} edges, digest {}", cdg.edge_count(), d.hex());
    match &analysis.numbering {
        Some(numbering) => {
            let mut d = Digest::new();
            for &n in numbering {
                d.num(n);
            }
            let _ = writeln!(out, "numbering: digest {}", d.hex());
        }
        None => {
            let _ = writeln!(
                out,
                "cycles: {} enumerated, complete {}",
                analysis.cycles.len(),
                analysis.cycles_complete
            );
        }
    }
}

fn cycle_line(out: &mut String, index: usize, cycle: &CdgCycle, witnesses: &Witnesses) -> usize {
    let mut chans = Digest::new();
    for c in &cycle.channels {
        chans.num(c.index());
    }
    let mut wit = Digest::new();
    let mut total = 0;
    for (a, b) in cycle.edge_pairs() {
        let list = witnesses.get(a, b);
        wit.num(a.index());
        wit.num(b.index());
        wit.num(list.len());
        for &m in list {
            pair(&mut wit, m);
        }
        total += list.len();
    }
    let _ = write!(
        out,
        "cycle {index}: {} channels (digest {}), {total} witnesses (digest {})",
        cycle.len(),
        chans.hex(),
        wit.hex()
    );
    total
}

fn record(out: &mut String, input: &Input) {
    let _ = writeln!(out, "== {}", input.name);
    let (net, table) = (&input.net, &input.table);
    table_lines(out, table);
    let analysis = Analysis::build(net, table, input.budgets.0, input.budgets.1, &input.exist);
    cdg_lines(out, &analysis.cdg, &analysis);
    let cycles: Vec<CdgCycle> = analysis.cycles.iter().map(|cy| cy.cycle.clone()).collect();
    let witnesses = Witnesses::of_cycles(table, &cycles);
    for (i, cy) in analysis.cycles.iter().enumerate() {
        cycle_line(out, i, &cy.cycle, &witnesses);
        let mut d = Digest::new();
        for (i, ca) in cy.analyses().enumerate() {
            d.num(ca.segments.len());
            for seg in ca.segments {
                pair(&mut d, seg.msg);
                d.num(seg.len as usize);
                for c in seg.channels(&cy.cycle) {
                    d.num(c.index());
                }
            }
            let sharing = analysis.sharing(cy, i);
            d.num(sharing.shared().len());
            for s in sharing.shared().iter() {
                d.num(s.channel.index());
                d.num(s.users.len());
                for &m in s.users {
                    pair(&mut d, m);
                }
                d.num(usize::from(s.inside_cycle));
            }
            d.text(&format!("{:?}", ca.class));
        }
        let _ = writeln!(
            out,
            "; {} candidates, complete {}, digest {}",
            cy.candidates.len(),
            cy.enumeration_complete,
            d.hex()
        );
    }
    let report = Registry::with_default_lints().run(net, table, &input.lint);
    let mut d = Digest::new();
    d.text(&report.render());
    let _ = writeln!(
        out,
        "lint: {} diagnostics, verdict {}, digest {}",
        report.diagnostics.len(),
        report.verdict,
        d.hex()
    );
    if let Some(source) = &input.source {
        let job = compile(source).expect("compiled once already");
        let _ = writeln!(out, "document: {}", verdict_json(&job).trim_end());
    }
}

#[test]
fn static_analyses_match_the_snapshot() {
    let mut out = String::new();
    for input in fabric_inputs()
        .into_iter()
        .chain(corpus_inputs())
        .chain(construction_inputs())
    {
        record(&mut out, &input);
    }
    let path = snapshot_path();
    if std::env::var_os("UPDATE_SPECS").is_some_and(|v| v == "1") {
        std::fs::write(&path, &out).expect("write snapshot");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate with UPDATE_SPECS=1 cargo test --test analysis_golden",
            path.display()
        )
    });
    if golden != out {
        let line = golden
            .lines()
            .zip(out.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.lines().count().min(out.lines().count()));
        panic!(
            "the static analyses drifted from the snapshot at line {}; if intentional, \
             regenerate with UPDATE_SPECS=1 cargo test --test analysis_golden",
            line + 1
        );
    }
}

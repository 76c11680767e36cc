//! The workloads' job lists, generated from the seed alone.
//!
//! The same `(workload, seed)` always yields the same specs in the same
//! order; nothing is sampled while a run is measuring. Each job carries
//! its hand-written known answer (see `expect.rs`).

use std::fmt::Write as _;

use worm_core::family::CycleConstruction;
use worm_core::paper::{fig1, fig2, fig3, generalized};
use wormsim::MessageSpec;

use crate::expect::Expect;

/// Fewest jobs in one pass, so the 90th percentile has ten jobs beyond
/// it.
pub const MIN_PASS_JOBS: usize = 100;

/// One spec submitted to the server, with the answer it must produce.
#[derive(Clone, Debug)]
pub struct Job {
    pub name: String,
    pub source: String,
    pub expect: Expect,
    /// A `G(k)` search with an adversarial stall budget (`k` or `k+1`):
    /// up to 0.7 s each, so it runs once per pass.
    pub adversarial: bool,
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperFull,
    FabricStatic,
    ReplayHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFull,
        Workload::FabricStatic,
        Workload::ReplayHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper_full",
            Workload::FabricStatic => "fabric_static",
            Workload::ReplayHot => "replay_hot",
        }
    }

    /// Jobs per timed segment of a pass, between two reference samples:
    /// 0.1–0.3 s of work on the reference host.
    pub fn segment(self) -> usize {
        match self {
            Workload::PaperFull => 8,
            Workload::FabricStatic => 12,
            Workload::ReplayHot => 42,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a small, fixed, seedable generator, so job lists do not
/// depend on any library's sampling algorithm.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The distinct specs of a cold workload, in a fixed order. `seed`
/// only matters for `fabric_static`'s draw.
pub fn distinct(workload: Workload, seed: u64) -> Vec<Job> {
    match workload {
        Workload::PaperFull => paper_jobs(),
        Workload::FabricStatic => fabric_jobs(seed),
        Workload::ReplayHot => {
            let mut jobs = paper_jobs();
            jobs.extend(fabric_jobs(seed));
            jobs
        }
    }
}

/// One pass's job list, in a seeded order that is the same for every
/// pass of a run. On the cold workloads every spec appears four times,
/// except the adversarial searches, which appear once; the replay
/// workload resubmits every spec twice. Either way a pass holds at
/// least [`MIN_PASS_JOBS`] jobs.
pub fn pass_list(workload: Workload, distinct: &[Job], seed: u64) -> Vec<usize> {
    let copies = |job: &Job| match workload {
        Workload::ReplayHot => 2,
        _ if job.adversarial => 1,
        _ => 4,
    };
    let mut order: Vec<usize> = distinct
        .iter()
        .enumerate()
        .flat_map(|(i, job)| std::iter::repeat_n(i, copies(job)))
        .collect();
    assert!(
        order.len() >= MIN_PASS_JOBS,
        "a pass needs {MIN_PASS_JOBS} jobs"
    );
    Rng::new(seed ^ 0x0FDE_0000).shuffle(&mut order);
    order
}

// ---------------------------------------------------------------------
// paper_full: the paper's constructions under `verify { engine = full }`

/// A paper construction with the message set its experiments use and
/// the paper's answer.
struct Construction {
    name: String,
    built: CycleConstruction,
    messages: Vec<MessageSpec>,
    /// The paper's verdict: no deadlock is reachable without stalls.
    free: bool,
    /// `Some(k)` for `G(k)`, whose deadlock needs `k + 1` stalls.
    gap: Option<u32>,
}

fn constructions() -> Vec<Construction> {
    let mut out = Vec::new();
    // Section 4, Theorem 1: the cyclic-dependency algorithm is free.
    let built = fig1::cyclic_dependency();
    out.push(Construction {
        name: "fig1".into(),
        messages: built.message_specs(),
        built,
        free: true,
        gap: None,
    });
    // Theorem 4: two sharers of c_s always deadlock.
    let built = fig2::two_message_deadlock();
    out.push(Construction {
        name: "fig2".into(),
        messages: built.message_specs(),
        built,
        free: false,
        gap: None,
    });
    // Theorem 5: (a) and (b) satisfy all eight conditions; (c)-(f)
    // each violate one or two of them and deadlock.
    for scenario in fig3::all_scenarios() {
        let free = matches!(scenario.name, "a" | "b");
        let built = scenario.spec.build();
        out.push(Construction {
            name: format!("fig3_{}", scenario.name),
            messages: scenario.message_specs(&built),
            built,
            free,
            gap: None,
        });
    }
    // Section 6 and EXP-G1: G(k) is free without stalls, and its
    // deadlock becomes reachable at exactly k + 1 adversarial stalls.
    for k in 1..=5u32 {
        let built = generalized::generalized(k as usize);
        out.push(Construction {
            name: format!("G({k})"),
            messages: generalized::minimum_length_specs(&built),
            built,
            free: true,
            gap: Some(k),
        });
    }
    out
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The lifted construction with its messages, optionally with `c_s`
/// down from cycle 0, under the full engine with one-flit buffers.
fn paper_source(c: &Construction, stall_budget: u32, cs_down: bool) -> String {
    let net = &c.built.net;
    let mut s = wormspec::to_spec(&wormserve::lift(net, &c.built.table));
    s.push_str("traffic {\n  pattern = explicit\n");
    for m in &c.messages {
        let _ = writeln!(
            s,
            "  message {} -> {} length {} flits",
            quote(net.node_name(m.src)),
            quote(net.node_name(m.dst)),
            m.length
        );
    }
    s.push_str("}\n");
    if cs_down {
        let _ = writeln!(
            s,
            "faults {{\n  down c{} @ 0 cycles\n}}",
            c.built.cs.index()
        );
    }
    let _ = writeln!(
        s,
        "verify {{\n  engine = full\n  stall_budget = {stall_budget} cycles\n  capacity = 1 flits\n}}"
    );
    s
}

fn search_answer(free: bool) -> Option<&'static str> {
    Some(if free {
        "deadlock-free"
    } else {
        "deadlock-reachable"
    })
}

fn paper_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for c in &constructions() {
        // The classifier answers for the routing algorithm in the
        // paper's stall-free model, whatever the search's budget.
        let classifier = if c.free {
            "deadlock-free-with-cycles"
        } else {
            "deadlockable"
        };
        let budgets = match c.gap {
            Some(k) => vec![0, k, k + 1],
            None => vec![0],
        };
        for b in budgets {
            let free = c.free && c.gap.is_none_or(|k| b <= k);
            jobs.push(Job {
                name: format!("{}@stall{b}", c.name),
                source: paper_source(c, b, false),
                adversarial: b > 0,
                expect: Expect {
                    classifier,
                    search: search_answer(free),
                    // Where no deadlock is reachable under any schedule,
                    // the simulator's schedule delivers every message.
                    sim: c.free.then_some("delivered"),
                    ..Expect::default()
                },
            });
        }
        // FAULTS.md: with c_s permanently down the cycle loses its
        // traffic, so the degraded routing is free-acyclic; messages
        // that need c_s starve, which is a timeout, not a deadlock.
        jobs.push(Job {
            name: format!("{}+cs_down", c.name),
            source: paper_source(c, 0, true),
            adversarial: false,
            expect: Expect {
                classifier,
                search: search_answer(c.free),
                sim: Some("timeout"),
                degraded: Some("deadlock-free-acyclic"),
                ..Expect::default()
            },
        });
    }
    jobs
}

// ---------------------------------------------------------------------
// fabric_static: production fabrics under their own engines

/// One fabric: topology keys, routing engine, and whether the engine
/// is one of the deadlockable misconfigurations.
struct Fabric {
    topology: String,
    engine: &'static str,
    answer: FabricAnswer,
}

#[derive(Clone, Copy)]
enum FabricAnswer {
    /// A production engine: a Dally–Seitz numbering exists (VC order,
    /// dimension order, up*/down*, or descend-then-ascend), so the CDG
    /// is acyclic; the engine's own table witnesses existence.
    FreeAcyclic,
    /// Corollary 1: a node-function routing with a cyclic CDG is
    /// deadlockable. Every link is bidirectional, so up*/down* routing
    /// exists on the fabric.
    DeadlockableRoutable,
    /// The single-lane unidirectional ring: clockwise routing is
    /// deadlockable, and no deadlock-free routing of all pairs exists.
    DeadlockableUnroutable,
}

fn fabric(topology: String, engine: &'static str, answer: FabricAnswer) -> Fabric {
    Fabric {
        topology,
        engine,
        answer,
    }
}

/// Slots of cost-matched variants. The seed picks one variant per slot,
/// so the drawn fabrics differ between seeds while the work per pass
/// stays nearly the same.
fn fabric_slots() -> Vec<Vec<Fabric>> {
    use FabricAnswer::*;
    let mesh = |d: &[u32], engine| {
        let dims: Vec<String> = d.iter().map(u32::to_string).collect();
        fabric(
            format!("kind = mesh\n  dims = [{}]", dims.join(", ")),
            engine,
            FreeAcyclic,
        )
    };
    let torus = |a: u32, b: u32| {
        fabric(
            format!("kind = torus\n  dims = [{a}, {b}]\n  vcs = 2 lanes"),
            "dateline_torus",
            FreeAcyclic,
        )
    };
    let ring = |n: u32| {
        fabric(
            format!("kind = ring\n  nodes = {n}\n  vcs = 2 lanes"),
            "dateline_ring",
            FreeAcyclic,
        )
    };
    let cube = |d: u32| {
        fabric(
            format!("kind = hypercube\n  dim = {d}"),
            "ecube",
            FreeAcyclic,
        )
    };
    let dragonfly = |g: u32, a: u32| {
        fabric(
            format!("kind = dragonfly\n  groups = {g}\n  routers = {a}"),
            "dragonfly_minimal",
            FreeAcyclic,
        )
    };
    let valiant = |g: u32, a: u32| {
        fabric(
            format!("kind = dragonfly\n  groups = {g}\n  routers = {a}\n  valiant = true"),
            "dragonfly_valiant",
            FreeAcyclic,
        )
    };
    let fattree = |k: u32| {
        fabric(
            format!("kind = fattree\n  k = {k}"),
            "fattree_updown",
            FreeAcyclic,
        )
    };
    let complete = |n: u32, engine| {
        fabric(
            format!("kind = complete\n  nodes = {n}"),
            engine,
            FreeAcyclic,
        )
    };
    let single_lane = |g: u32, a: u32| {
        fabric(
            format!(
                "kind = dragonfly\n  groups = {g}\n  routers = {a}\n  local_lanes = [0]\n  global_lanes = [0]"
            ),
            "dragonfly_minimal",
            DeadlockableRoutable,
        )
    };
    let clockwise = |n: u32| {
        fabric(
            format!("kind = ring\n  nodes = {n}"),
            "clockwise_ring",
            DeadlockableUnroutable,
        )
    };
    let detour = |n: u32| {
        fabric(
            format!("kind = complete\n  nodes = {n}"),
            "fullmesh_ring_detour",
            DeadlockableRoutable,
        )
    };
    vec![
        vec![
            mesh(&[5, 8], "dimension_order"),
            mesh(&[8, 5], "dimension_order"),
        ],
        vec![
            mesh(&[9, 10], "dimension_order"),
            mesh(&[10, 9], "dimension_order"),
        ],
        vec![
            mesh(&[4, 4, 5], "dimension_order"),
            mesh(&[4, 5, 4], "dimension_order"),
            mesh(&[5, 4, 4], "dimension_order"),
        ],
        vec![mesh(&[6, 9], "west_first"), mesh(&[9, 6], "west_first")],
        vec![
            mesh(&[7, 8], "negative_first"),
            mesh(&[8, 7], "negative_first"),
        ],
        vec![
            mesh(&[4, 4, 4], "negative_first"),
            mesh(&[3, 4, 5], "negative_first"),
        ],
        vec![mesh(&[6, 8], "xy_mesh"), mesh(&[8, 6], "xy_mesh")],
        vec![torus(6, 8), torus(8, 6)],
        vec![ring(50)],
        vec![cube(6)],
        vec![cube(7)],
        vec![dragonfly(5, 4), dragonfly(4, 5)],
        vec![dragonfly(9, 8), dragonfly(8, 9)],
        vec![dragonfly(13, 12), dragonfly(12, 13)],
        vec![valiant(6, 5), valiant(5, 6)],
        vec![valiant(9, 8), valiant(8, 9)],
        vec![fattree(10)],
        vec![fattree(12)],
        vec![
            complete(30, "fullmesh_vcfree"),
            complete(31, "fullmesh_vcfree"),
        ],
        vec![
            complete(99, "fullmesh_vcfree"),
            complete(100, "fullmesh_vcfree"),
        ],
        vec![
            complete(40, "fullmesh_direct"),
            complete(41, "fullmesh_direct"),
        ],
        vec![single_lane(5, 4)],
        vec![single_lane(9, 8)],
        vec![clockwise(16), clockwise(17)],
        vec![clockwise(24), clockwise(25)],
        vec![detour(12), detour(13)],
        vec![detour(40), detour(41)],
    ]
}

fn fabric_jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    fabric_slots()
        .iter()
        .map(|slot| {
            let f = rng.pick(slot);
            let (expect, budgets) = match f.answer {
                FabricAnswer::FreeAcyclic => (
                    Expect {
                        classifier: "deadlock-free-acyclic",
                        lint: Some("free-acyclic"),
                        existence: Some("exists"),
                        ..Expect::default()
                    },
                    "",
                ),
                answer => (
                    Expect {
                        classifier: "deadlockable",
                        lint: Some("deadlockable"),
                        existence: Some(match answer {
                            FabricAnswer::DeadlockableUnroutable => "impossible",
                            _ => "exists",
                        }),
                        ..Expect::default()
                    },
                    // Explicit enumeration budgets: see README.md
                    // ("Explicit budgets") for the unbounded default.
                    "\n  max_cycles = 8\n  max_candidates = 256",
                ),
            };
            let source = format!(
                "wormspec/1\ntopology {{\n  {}\n}}\nrouting {{\n  engine = {}\n}}\nverify {{\n  engine = static{budgets}\n}}\n",
                f.topology, f.engine
            );
            let name = format!("{}[{}]", f.engine, f.topology.replace("\n  ", " "));
            Job {
                name,
                source,
                expect,
                adversarial: false,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// replay_hot: surface rewrites that keep the canonical hash

/// Rewrite a spec's surface without changing its meaning: reorder the
/// sections and the `key = value` lines inside each, re-indent, add
/// blank lines and comments. Declarations (`node`, `channel`, `path`,
/// `message`, fault events) keep their relative order, which the
/// language makes significant. `tag` seeds the rewrite.
pub fn perturb(source: &str, tag: u64) -> String {
    let mut rng = Rng::new(tag);
    let mut lines = source.lines();
    let header = lines.next().unwrap_or_default();
    let mut sections: Vec<(String, Vec<String>)> = Vec::new();
    for line in lines {
        let line = line.trim();
        if let Some(name) = line.strip_suffix(" {") {
            sections.push((name.to_string(), Vec::new()));
        } else if line != "}" && !line.is_empty() {
            if let Some((_, items)) = sections.last_mut() {
                items.push(line.to_string());
            }
        }
    }
    rng.shuffle(&mut sections);
    let indents = ["", " ", "  ", "\t", "    "];
    let mut out = format!("{header}\n# replayed spec, rewrite {tag:016x}\n");
    for (name, items) in sections {
        let is_key = |item: &String| item.split_whitespace().nth(1) == Some("=");
        let (mut keys, decls): (Vec<String>, Vec<String>) = items.into_iter().partition(is_key);
        rng.shuffle(&mut keys);
        let ordered: Vec<String> = if rng.below(2) == 0 {
            keys.into_iter().chain(decls).collect()
        } else {
            decls.into_iter().chain(keys).collect()
        };
        if ordered.len() <= 3 && rng.below(2) == 0 {
            let _ = writeln!(out, "{name} {{ {} }}", ordered.join(" "));
            continue;
        }
        let indent = rng.pick(&indents);
        let _ = writeln!(out, "{name}   {{");
        for item in ordered {
            match rng.below(8) {
                0 => out.push('\n'),
                1 => {
                    let _ = writeln!(out, "{indent}# note {}", rng.below(1000));
                }
                _ => {}
            }
            if rng.below(4) == 0 {
                let _ = writeln!(out, "{indent}{item}   # kept");
            } else {
                let _ = writeln!(out, "{indent}{item}");
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(source: &str) -> String {
        wormspec::content_hash_hex(&wormspec::parse(source).expect("spec parses"))
    }

    #[test]
    fn lists_are_a_function_of_the_seed() {
        let a: Vec<String> = distinct(Workload::FabricStatic, 7)
            .into_iter()
            .map(|j| j.source)
            .collect();
        let b: Vec<String> = distinct(Workload::FabricStatic, 7)
            .into_iter()
            .map(|j| j.source)
            .collect();
        assert_eq!(a, b);
        let jobs = distinct(Workload::PaperFull, 0);
        assert_eq!(jobs.len(), 8 + 15 + 13);
        assert_eq!(pass_list(Workload::PaperFull, &jobs, 3).len(), 26 * 4 + 10);
    }

    #[test]
    fn rewrites_keep_the_canonical_hash() {
        let mut jobs = distinct(Workload::FabricStatic, 1);
        jobs.extend(distinct(Workload::PaperFull, 1).into_iter().take(3));
        for (i, job) in jobs.iter().enumerate() {
            let rewritten = perturb(&job.source, i as u64);
            assert_ne!(rewritten, job.source);
            assert_eq!(hash(&rewritten), hash(&job.source), "{}", job.name);
        }
    }
}

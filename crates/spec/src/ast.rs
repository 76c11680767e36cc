//! The typed `wormspec/1` abstract syntax tree.
//!
//! Every leaf is a [`Spanned`] value: the parser records where each
//! value came from so resolution errors in downstream crates can point
//! back into the user's source. Spans are *metadata*: two ASTs that
//! differ only in spans compare equal, which is what the
//! `parse(print(ast)) == ast` round-trip guarantee is stated over.
//!
//! Quantities carry **typed units** ([`Unit`]): durations are
//! `cycles`, message/buffer sizes are `flits`, and virtual-channel
//! counts are `lanes`. The parser rejects a wrong or missing unit at
//! the syntax level, so resolution code never sees a bare number where
//! a duration belongs.

use crate::diag::Span;

/// A value plus the source span it was parsed from.
///
/// Equality and hashing ignore the span: a machine-built AST (all
/// [`Span::dummy`]) compares equal to its parsed pretty-printing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spanned<T> {
    /// The value.
    pub value: T,
    /// Where it came from (zero for synthesized ASTs).
    pub span: Span,
}

impl<T> Spanned<T> {
    /// Wrap `value` with a span.
    pub fn new(value: T, span: Span) -> Self {
        Spanned { value, span }
    }

    /// Wrap a synthesized value (dummy span).
    pub fn dummy(value: T) -> Self {
        Spanned {
            value,
            span: Span::dummy(),
        }
    }
}

impl<T: PartialEq> PartialEq for Spanned<T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

impl<T: Eq> Eq for Spanned<T> {}

impl<T: std::hash::Hash> std::hash::Hash for Spanned<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.value.hash(state);
    }
}

/// Typed units for quantities.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum Unit {
    /// Simulated router cycles (durations, horizons, timestamps).
    Cycles,
    /// Flits (message lengths, buffer capacities).
    Flits,
    /// Virtual-channel lanes (lane counts).
    Lanes,
}

impl Unit {
    /// The keyword spelled in specs (`cycles`, `flits`, `lanes`).
    pub fn keyword(self) -> &'static str {
        match self {
            Unit::Cycles => "cycles",
            Unit::Flits => "flits",
            Unit::Lanes => "lanes",
        }
    }

    /// Parse a unit keyword.
    pub fn from_keyword(s: &str) -> Option<Unit> {
        match s {
            "cycles" => Some(Unit::Cycles),
            "flits" => Some(Unit::Flits),
            "lanes" => Some(Unit::Lanes),
            _ => None,
        }
    }
}

/// An integer with a typed unit, e.g. `64 flits` or `10 cycles`.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub struct Quantity {
    /// The magnitude.
    pub value: u64,
    /// The unit it was written in.
    pub unit: Unit,
}

impl Quantity {
    /// A quantity.
    pub fn new(value: u64, unit: Unit) -> Self {
        Quantity { value, unit }
    }
}

/// An exact decimal literal (e.g. an injection rate `0.05`).
///
/// Stored as its normalized text — no leading `+`, no trailing
/// fractional zeros — so canonicalization and hashing never go through
/// floating point.
#[derive(Clone, Debug, Eq, PartialEq, Hash)]
pub struct Decimal(pub String);

impl Decimal {
    /// The value as `f64` (resolution-time only; the AST keeps text).
    pub fn to_f64(&self) -> f64 {
        self.0.parse().expect("Decimal holds a valid numeral")
    }
}

/// A parsed `wormspec/1` document.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Spec {
    /// The `topology { ... }` section (required).
    pub topology: Topology,
    /// The `routing { ... }` section (required).
    pub routing: Routing,
    /// The `traffic { ... }` section.
    pub traffic: Option<Traffic>,
    /// The `faults { ... }` section.
    pub faults: Option<Faults>,
    /// The `verify { ... }` section.
    pub verify: Option<Verify>,
}

/// Which family of topology builder the spec names.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash, Default)]
pub enum TopologyKind {
    /// k-ary n-dimensional mesh (`dims`, optional `vcs`).
    #[default]
    Mesh,
    /// Torus with virtual channels (`dims`, `vcs`).
    Torus,
    /// Ring (`nodes`, optional `vcs`, optional `direction`).
    Ring,
    /// Hypercube (`dim`).
    Hypercube,
    /// Dragonfly (`groups`, `routers`, optional lane sets, `valiant`).
    Dragonfly,
    /// k-ary fat-tree (`k`).
    Fattree,
    /// Fully connected graph (`nodes`).
    Complete,
    /// Explicit node/channel declarations.
    Explicit,
}

impl TopologyKind {
    /// The keyword spelled in specs.
    pub fn keyword(self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Ring => "ring",
            TopologyKind::Hypercube => "hypercube",
            TopologyKind::Dragonfly => "dragonfly",
            TopologyKind::Fattree => "fattree",
            TopologyKind::Complete => "complete",
            TopologyKind::Explicit => "explicit",
        }
    }

    /// Parse a kind keyword.
    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "mesh" => TopologyKind::Mesh,
            "torus" => TopologyKind::Torus,
            "ring" => TopologyKind::Ring,
            "hypercube" => TopologyKind::Hypercube,
            "dragonfly" => TopologyKind::Dragonfly,
            "fattree" => TopologyKind::Fattree,
            "complete" => TopologyKind::Complete,
            "explicit" => TopologyKind::Explicit,
            _ => return None,
        })
    }
}

/// Ring link direction.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum RingDirection {
    /// Clockwise-only channels.
    Unidirectional,
    /// A channel pair per physical link.
    Bidirectional,
}

impl RingDirection {
    /// The keyword spelled in specs.
    pub fn keyword(self) -> &'static str {
        match self {
            RingDirection::Unidirectional => "unidirectional",
            RingDirection::Bidirectional => "bidirectional",
        }
    }
}

/// The `topology` section.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Topology {
    /// `kind = ...` (required).
    pub kind: Spanned<TopologyKind>,
    /// `dims = [..]` — mesh/torus extents.
    pub dims: Option<Spanned<Vec<u64>>>,
    /// `vcs = N lanes` — virtual channels per link.
    pub vcs: Option<Spanned<Quantity>>,
    /// `nodes = N` — ring/complete size.
    pub nodes: Option<Spanned<u64>>,
    /// `direction = ...` — ring orientation.
    pub direction: Option<Spanned<RingDirection>>,
    /// `groups = N` — dragonfly group count.
    pub groups: Option<Spanned<u64>>,
    /// `routers = N` — dragonfly routers per group.
    pub routers: Option<Spanned<u64>>,
    /// `local_lanes = [..]` — dragonfly local lane set.
    pub local_lanes: Option<Spanned<Vec<u64>>>,
    /// `global_lanes = [..]` — dragonfly global lane set.
    pub global_lanes: Option<Spanned<Vec<u64>>>,
    /// `valiant = true` — dragonfly Valiant lane sets.
    pub valiant: Option<Spanned<bool>>,
    /// `k = N` — fat-tree port count.
    pub k: Option<Spanned<u64>>,
    /// `dim = N` — hypercube dimension.
    pub dim: Option<Spanned<u64>>,
    /// Explicit `node`/`channel` declarations, in order (order is
    /// semantic: it assigns the dense node and channel ids).
    pub decls: Vec<Decl>,
}

/// One explicit-topology declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Decl {
    /// `node "NAME"`
    Node(NodeDecl),
    /// `channel "SRC" -> "DST" [lane N] [cap N flits] [label "L"]`
    Channel(ChannelDecl),
}

/// An explicit node declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeDecl {
    /// The node's unique name.
    pub name: Spanned<String>,
}

/// An explicit channel declaration. The parser fills `lane`/`cap`
/// defaults (lane 0, `1 flits`) so the AST — and therefore the
/// canonical hash — does not distinguish written defaults from omitted
/// ones.
#[derive(Clone, Debug, PartialEq)]
pub struct ChannelDecl {
    /// Transmitting node name.
    pub src: Spanned<String>,
    /// Receiving node name.
    pub dst: Spanned<String>,
    /// Virtual-channel lane index (default 0).
    pub lane: Spanned<u64>,
    /// Flit-queue capacity (default `1 flits`).
    pub cap: Spanned<Quantity>,
    /// Optional label (the paper figures' `cs` etc.).
    pub label: Option<Spanned<String>>,
}

/// The `routing` section.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Routing {
    /// `engine = ...` — a named engine from `wormroute::algorithms`,
    /// or `table` for explicit paths (required).
    pub engine: Spanned<String>,
    /// Explicit `path` declarations (`engine = table`).
    pub paths: Vec<PathDecl>,
}

/// One explicit routing path: `path "SRC" -> "DST" = [c0, c4, c7]`.
#[derive(Clone, Debug, PartialEq)]
pub struct PathDecl {
    /// Source node name.
    pub src: Spanned<String>,
    /// Destination node name.
    pub dst: Spanned<String>,
    /// Channel ids (`cN` references) in hop order.
    pub channels: Spanned<Vec<u64>>,
}

/// Synthetic traffic patterns.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum PatternKind {
    /// Bernoulli uniform-random injection (`rate`, `horizon`,
    /// `length`, `seed`).
    Uniform,
    /// Transpose permutation on a square 2-D mesh.
    Transpose,
    /// Bit-complement permutation on a 2-D mesh.
    BitComplement,
    /// All nodes send to `hotspot`.
    Hotspot,
    /// Only the explicit `message` declarations.
    Explicit,
}

impl PatternKind {
    /// The keyword spelled in specs.
    pub fn keyword(self) -> &'static str {
        match self {
            PatternKind::Uniform => "uniform",
            PatternKind::Transpose => "transpose",
            PatternKind::BitComplement => "bit_complement",
            PatternKind::Hotspot => "hotspot",
            PatternKind::Explicit => "explicit",
        }
    }

    /// Parse a pattern keyword.
    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "uniform" => PatternKind::Uniform,
            "transpose" => PatternKind::Transpose,
            "bit_complement" => PatternKind::BitComplement,
            "hotspot" => PatternKind::Hotspot,
            "explicit" => PatternKind::Explicit,
            _ => return None,
        })
    }
}

/// The `traffic` section.
#[derive(Clone, Debug, PartialEq)]
pub struct Traffic {
    /// `pattern = ...` (required).
    pub pattern: Spanned<PatternKind>,
    /// `rate = 0.05` — per-node per-cycle injection probability.
    pub rate: Option<Spanned<Decimal>>,
    /// `horizon = N cycles` — injection window for `uniform`.
    pub horizon: Option<Spanned<Quantity>>,
    /// `length = N flits` — message length (patterns).
    pub length: Option<Spanned<Quantity>>,
    /// `max_length = N flits` — upper end of the uniform length range.
    pub max_length: Option<Spanned<Quantity>>,
    /// `seed = N` — RNG seed for `uniform`.
    pub seed: Option<Spanned<u64>>,
    /// `hotspot = "NODE"` — the hot node.
    pub hotspot: Option<Spanned<String>>,
    /// Explicit `message` declarations (appended after the pattern's).
    pub messages: Vec<MessageDecl>,
    /// `pause` declarations (per-router clock-skew model).
    pub pauses: Vec<PauseDecl>,
}

impl Default for Traffic {
    fn default() -> Self {
        Traffic {
            pattern: Spanned::dummy(PatternKind::Explicit),
            rate: None,
            horizon: None,
            length: None,
            max_length: None,
            seed: None,
            hotspot: None,
            messages: Vec::new(),
            pauses: Vec::new(),
        }
    }
}

/// One explicit message:
/// `message "SRC" -> "DST" length N flits [at N cycles]`.
#[derive(Clone, Debug, PartialEq)]
pub struct MessageDecl {
    /// Source node name.
    pub src: Spanned<String>,
    /// Destination node name.
    pub dst: Spanned<String>,
    /// Length in flits.
    pub length: Spanned<Quantity>,
    /// Earliest injection cycle (default 0).
    pub at: Option<Spanned<Quantity>>,
}

/// One clock-skew pause:
/// `pause "NODE" period N cycles offset N cycles`.
#[derive(Clone, Debug, PartialEq)]
pub struct PauseDecl {
    /// The paused router.
    pub node: Spanned<String>,
    /// Pause period in cycles.
    pub period: Spanned<Quantity>,
    /// Phase offset in cycles.
    pub offset: Spanned<Quantity>,
}

/// The `faults` section.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Faults {
    /// Deterministic events, in declaration order.
    pub events: Vec<FaultDecl>,
    /// `random(seed = N, outages = N, stalls = N, horizon = N cycles)`.
    pub random: Option<RandomFaults>,
}

/// One deterministic fault event (mirrors `wormfault::FaultEvent`).
#[derive(Clone, Debug, PartialEq)]
pub enum FaultDecl {
    /// `down cN @ T cycles`
    Down {
        /// Channel id.
        channel: Spanned<u64>,
        /// Failure time.
        at: Spanned<Quantity>,
    },
    /// `up cN @ T cycles`
    Up {
        /// Channel id.
        channel: Spanned<u64>,
        /// Repair time.
        at: Spanned<Quantity>,
    },
    /// `outage cN @ A..B cycles` (the unit covers the whole range).
    Outage {
        /// Channel id.
        channel: Spanned<u64>,
        /// Outage start (cycles).
        from: Spanned<u64>,
        /// Outage end, exclusive (cycles).
        until: Spanned<u64>,
    },
    /// `stall "NODE" @ T cycles for D cycles`
    Stall {
        /// The stalled router.
        node: Spanned<String>,
        /// Stall start.
        at: Spanned<Quantity>,
        /// Stall duration.
        dur: Spanned<Quantity>,
    },
    /// `drop mN @ T cycles`
    Drop {
        /// Message index into the resolved traffic list.
        msg: Spanned<u64>,
        /// Drop time.
        at: Spanned<Quantity>,
    },
    /// `corrupt mN @ T cycles`
    Corrupt {
        /// Message index into the resolved traffic list.
        msg: Spanned<u64>,
        /// Corruption time.
        at: Spanned<Quantity>,
    },
    /// `delay mN by D cycles`
    Delay {
        /// Message index into the resolved traffic list.
        msg: Spanned<u64>,
        /// Injection delay.
        by: Spanned<Quantity>,
    },
}

/// Seeded random fault generation
/// (mirrors `wormfault::FaultPlan::random`).
#[derive(Clone, Debug, PartialEq)]
pub struct RandomFaults {
    /// RNG seed.
    pub seed: Spanned<u64>,
    /// Number of channel outages.
    pub outages: Spanned<u64>,
    /// Number of router stalls.
    pub stalls: Spanned<u64>,
    /// Event horizon in cycles.
    pub horizon: Spanned<Quantity>,
}

/// Which verification pipeline the service runs for this spec.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash, Default)]
pub enum VerifyEngine {
    /// Classifier + lint registry (and fault re-verification when a
    /// fault plan is present). The default.
    #[default]
    Static,
    /// `static` plus exhaustive reachability search over the traffic's
    /// message set.
    Search,
    /// `static` plus a flit-level simulation run of the traffic under
    /// the fault plan.
    Sim,
    /// Everything applicable.
    Full,
}

impl VerifyEngine {
    /// The keyword spelled in specs.
    pub fn keyword(self) -> &'static str {
        match self {
            VerifyEngine::Static => "static",
            VerifyEngine::Search => "search",
            VerifyEngine::Sim => "sim",
            VerifyEngine::Full => "full",
        }
    }

    /// Parse an engine keyword.
    pub fn from_keyword(s: &str) -> Option<Self> {
        Some(match s {
            "static" => VerifyEngine::Static,
            "search" => VerifyEngine::Search,
            "sim" => VerifyEngine::Sim,
            "full" => VerifyEngine::Full,
            _ => return None,
        })
    }
}

/// Lint severity names for `verify.lint` overrides.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum SeverityName {
    /// Informational.
    Allow,
    /// Worth attention.
    Warn,
    /// Spec error.
    Deny,
}

impl SeverityName {
    /// The keyword spelled in specs.
    pub fn keyword(self) -> &'static str {
        match self {
            SeverityName::Allow => "allow",
            SeverityName::Warn => "warn",
            SeverityName::Deny => "deny",
        }
    }
}

/// One lint severity override: `W101 = allow`.
#[derive(Clone, Debug, PartialEq)]
pub struct LintOverride {
    /// The `W`-code.
    pub code: Spanned<String>,
    /// The effective severity.
    pub severity: Spanned<SeverityName>,
}

/// The `verify` section: engine kinds, budgets, severity overrides.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Verify {
    /// `engine = static|search|sim|full` (default `static`).
    pub engine: Option<Spanned<VerifyEngine>>,
    /// `max_cycles = N` — elementary-cycle enumeration budget.
    pub max_cycles: Option<Spanned<u64>>,
    /// `max_candidates = N` — candidate enumeration budget per cycle.
    pub max_candidates: Option<Spanned<u64>>,
    /// `max_states = N` — search state budget.
    pub max_states: Option<Spanned<u64>>,
    /// `stall_budget = N cycles` — adversarial stalls for the search.
    pub stall_budget: Option<Spanned<Quantity>>,
    /// `model_exact = true` — re-verify theorem shortcuts by search.
    pub model_exact: Option<Spanned<bool>>,
    /// `deny_warnings = true` — promote lint warnings to errors.
    pub deny_warnings: Option<Spanned<bool>>,
    /// `capacity = N flits` — channel-buffer override for search/sim.
    pub capacity: Option<Spanned<Quantity>>,
    /// `horizon = N cycles` — simulation run budget.
    pub horizon: Option<Spanned<Quantity>>,
    /// `lint { WNNN = severity, ... }` overrides.
    pub lint: Vec<LintOverride>,
}

//! Recursive-descent parser for `wormspec/1`.
//!
//! The grammar (EBNF in `docs/SPEC.md`) is LL(1) over the token stream
//! of [`crate::lexer`]: a version header, then named sections in any
//! order. Section keys are typed here — quantities must carry the
//! right unit, enumerations must name a known keyword — so resolution
//! code downstream starts from a well-typed AST.

use crate::ast::*;
use crate::diag::{codes, Span, SpecError};
use crate::lexer::{lex, Tok, Token};

/// Parse a `wormspec/1` document.
pub fn parse(source: &str) -> Result<Spec, SpecError> {
    let mut rest = lex(source)?.into_iter();
    let cur = rest.next().expect("the token stream ends with `Eof`");
    Parser { cur, rest }.spec()
}

/// The parser moves through the token stream without copying tokens:
/// it looks at `cur` and moves it out when it consumes it. Strings are
/// copied out of the source only into the AST.
struct Parser<'a> {
    /// The lookahead token.
    cur: Token<'a>,
    /// The tokens after it.
    rest: std::vec::IntoIter<Token<'a>>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.cur
    }

    /// Consume the lookahead. At the end of input `Eof` stays current.
    fn next(&mut self) -> Token<'a> {
        let following = self.rest.next().unwrap_or(Token {
            tok: Tok::Eof,
            span: self.cur.span,
        });
        std::mem::replace(&mut self.cur, following)
    }

    fn error(&self, code: &'static str, msg: impl Into<String>, span: Span) -> SpecError {
        SpecError::new(code, msg, span)
    }

    fn unexpected(&self, expected: &str) -> SpecError {
        let t = self.peek();
        self.error(
            codes::UNEXPECTED,
            format!("expected {expected}, found {}", t.tok.describe()),
            t.span,
        )
    }

    fn expect_tok(&mut self, tok: Tok<'a>, expected: &str) -> Result<Span, SpecError> {
        if self.peek().tok == tok {
            Ok(self.next().span)
        } else {
            Err(self.unexpected(expected))
        }
    }

    /// Whether the lookahead is the identifier `kw`.
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek().tok, Tok::Ident(s) if s == kw)
    }

    /// Any identifier.
    fn ident(&mut self, expected: &str) -> Result<Spanned<&'a str>, SpecError> {
        match self.peek().tok {
            Tok::Ident(s) => Ok(Spanned::new(s, self.next().span)),
            _ => Err(self.unexpected(expected)),
        }
    }

    /// A specific keyword identifier.
    fn keyword(&mut self, kw: &str) -> Result<Span, SpecError> {
        if self.at_keyword(kw) {
            Ok(self.next().span)
        } else {
            Err(self.unexpected(&format!("`{kw}`")))
        }
    }

    fn string(&mut self, expected: &str) -> Result<Spanned<String>, SpecError> {
        match &mut self.cur.tok {
            Tok::Str(s) => {
                let s = std::mem::take(s).into_owned();
                Ok(Spanned::new(s, self.next().span))
            }
            _ => Err(self.unexpected(expected)),
        }
    }

    fn int(&mut self, expected: &str) -> Result<Spanned<u64>, SpecError> {
        match self.peek().tok {
            Tok::Int(n) => Ok(Spanned::new(n, self.next().span)),
            _ => Err(self.unexpected(expected)),
        }
    }

    /// `N <unit>` with the unit *required* to match.
    fn quantity(&mut self, unit: Unit) -> Result<Spanned<Quantity>, SpecError> {
        let Tok::Int(value) = self.peek().tok else {
            return Err(self.unexpected(&format!("a quantity in {}", unit.keyword())));
        };
        let span = self.next().span;
        let found = match self.peek().tok {
            Tok::Ident(s) => Unit::from_keyword(s),
            _ => None,
        };
        let Some(found) = found else {
            return Err(self.error(
                codes::UNIT,
                format!(
                    "missing unit: this quantity is measured in `{}`",
                    unit.keyword()
                ),
                span,
            ));
        };
        let uspan = self.next().span;
        if found != unit {
            return Err(self.error(
                codes::UNIT,
                format!(
                    "wrong unit: expected `{}`, found `{}`",
                    unit.keyword(),
                    found.keyword()
                ),
                uspan,
            ));
        }
        Ok(Spanned::new(Quantity::new(value, unit), span.to(uspan)))
    }

    fn bool_value(&mut self) -> Result<Spanned<bool>, SpecError> {
        let id = self.ident("`true` or `false`")?;
        match id.value {
            "true" => Ok(Spanned::new(true, id.span)),
            "false" => Ok(Spanned::new(false, id.span)),
            other => Err(self.error(
                codes::ENUM,
                format!("expected `true` or `false`, found `{other}`"),
                id.span,
            )),
        }
    }

    /// `[1, 2, 3]`
    fn int_list(&mut self) -> Result<Spanned<Vec<u64>>, SpecError> {
        let lo = self.expect_tok(Tok::LBracket, "`[`")?;
        let mut items = Vec::new();
        loop {
            match self.peek().tok {
                Tok::RBracket => break,
                Tok::Int(n) => {
                    self.next();
                    items.push(n);
                    if self.peek().tok == Tok::Comma {
                        self.next();
                    }
                }
                _ => return Err(self.unexpected("an integer or `]`")),
            }
        }
        let hi = self.next().span; // RBracket
        Ok(Spanned::new(items, lo.to(hi)))
    }

    /// A prefixed reference like `c3` (channels) or `m0` (messages).
    fn reference(&mut self, prefix: char, what: &str) -> Result<Spanned<u64>, SpecError> {
        let Tok::Ident(id) = self.peek().tok else {
            return Err(self.unexpected(&format!("a {what} reference like `{prefix}0`")));
        };
        let span = self.next().span;
        let Some(digits) = id.strip_prefix(prefix) else {
            return Err(self.error(
                codes::REF,
                format!("expected a {what} reference like `{prefix}0`, found `{id}`"),
                span,
            ));
        };
        let n: u64 = digits.parse().map_err(|_| {
            self.error(
                codes::REF,
                format!("malformed {what} reference `{id}`"),
                span,
            )
        })?;
        Ok(Spanned::new(n, span))
    }

    /// `[c0, c4, c7]`
    fn channel_list(&mut self) -> Result<Spanned<Vec<u64>>, SpecError> {
        let lo = self.expect_tok(Tok::LBracket, "`[`")?;
        let mut items = Vec::new();
        loop {
            match self.peek().tok {
                Tok::RBracket => break,
                Tok::Ident(_) => {
                    items.push(self.reference('c', "channel")?.value);
                    if self.peek().tok == Tok::Comma {
                        self.next();
                    }
                }
                _ => return Err(self.unexpected("a channel reference or `]`")),
            }
        }
        let hi = self.next().span; // RBracket
        Ok(Spanned::new(items, lo.to(hi)))
    }

    fn spec(&mut self) -> Result<Spec, SpecError> {
        // Header: `wormspec/1`.
        self.keyword("wormspec").map_err(|e| {
            SpecError::new(codes::VERSION, "a spec starts with `wormspec/1`", e.span)
        })?;
        self.expect_tok(Tok::Slash, "`/` in the `wormspec/1` header")?;
        let version = self.int("the version number in `wormspec/1`")?;
        if version.value != 1 {
            return Err(self.error(
                codes::VERSION,
                format!(
                    "unsupported spec version {} (this reader speaks wormspec/1)",
                    version.value
                ),
                version.span,
            ));
        }

        let mut topology: Option<Topology> = None;
        let mut routing: Option<Routing> = None;
        let mut traffic: Option<Traffic> = None;
        let mut faults: Option<Faults> = None;
        let mut verify: Option<Verify> = None;

        while self.peek().tok != Tok::Eof {
            let name = self.ident("a section name")?;
            self.expect_tok(Tok::LBrace, "`{` opening the section")?;
            macro_rules! fill {
                ($slot:ident, $parse:expr) => {{
                    if $slot.is_some() {
                        return Err(self.error(
                            codes::DUPLICATE_SECTION,
                            format!("section `{}` appears twice", name.value),
                            name.span,
                        ));
                    }
                    $slot = Some($parse?);
                }};
            }
            match name.value {
                "topology" => fill!(topology, self.topology()),
                "routing" => fill!(routing, self.routing()),
                "traffic" => fill!(traffic, self.traffic()),
                "faults" => fill!(faults, self.faults()),
                "verify" => fill!(verify, self.verify()),
                other => {
                    return Err(self.error(
                        codes::UNKNOWN_SECTION,
                        format!(
                            "unknown section `{other}` (sections: topology, routing, traffic, faults, verify)"
                        ),
                        name.span,
                    ));
                }
            }
        }

        let eof = self.peek().span;
        let topology = topology.ok_or_else(|| {
            SpecError::new(codes::MISSING, "missing required section `topology`", eof)
        })?;
        let routing = routing.ok_or_else(|| {
            SpecError::new(codes::MISSING, "missing required section `routing`", eof)
        })?;
        Ok(Spec {
            topology,
            routing,
            traffic,
            faults,
            verify,
        })
    }

    fn topology(&mut self) -> Result<Topology, SpecError> {
        let mut t = Topology::default();
        let mut kind: Option<Spanned<TopologyKind>> = None;
        loop {
            let key = match &self.peek().tok {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Ident(_) => self.ident("a topology key or declaration")?,
                _ => return Err(self.unexpected("a topology key, `node`, `channel`, or `}`")),
            };
            match key.value {
                "node" => {
                    let name = self.string("the node name as a string")?;
                    t.decls.push(Decl::Node(NodeDecl { name }));
                }
                "channel" => {
                    let src = self.string("the source node name")?;
                    self.expect_tok(Tok::Arrow, "`->` between channel endpoints")?;
                    let dst = self.string("the destination node name")?;
                    let mut lane = Spanned::new(0, src.span);
                    let mut cap = Spanned::new(Quantity::new(1, Unit::Flits), src.span);
                    let mut label = None;
                    // Optional modifiers, fixed order: lane, cap, label.
                    if self.at_keyword("lane") {
                        self.next();
                        lane = self.int("the lane index")?;
                    }
                    if self.at_keyword("cap") {
                        self.next();
                        cap = self.quantity(Unit::Flits)?;
                    }
                    if self.at_keyword("label") {
                        self.next();
                        label = Some(self.string("the channel label as a string")?);
                    }
                    t.decls.push(Decl::Channel(ChannelDecl {
                        src,
                        dst,
                        lane,
                        cap,
                        label,
                    }));
                }
                _ => {
                    self.expect_tok(Tok::Eq, "`=` after the key")?;
                    macro_rules! set {
                        ($slot:expr, $value:expr) => {{
                            if $slot.is_some() {
                                return Err(self.error(
                                    codes::DUPLICATE_KEY,
                                    format!("key `{}` assigned twice", key.value),
                                    key.span,
                                ));
                            }
                            $slot = Some($value?);
                        }};
                    }
                    match key.value {
                        "kind" => {
                            let id = self.ident("a topology kind")?;
                            let k = TopologyKind::from_keyword(id.value).ok_or_else(|| {
                                self.error(
                                    codes::ENUM,
                                    format!("unknown topology kind `{}`", id.value),
                                    id.span,
                                )
                            })?;
                            if kind.is_some() {
                                return Err(self.error(
                                    codes::DUPLICATE_KEY,
                                    "key `kind` assigned twice",
                                    key.span,
                                ));
                            }
                            kind = Some(Spanned::new(k, id.span));
                        }
                        "dims" => set!(t.dims, self.int_list()),
                        "vcs" => set!(t.vcs, self.quantity(Unit::Lanes)),
                        "nodes" => set!(t.nodes, self.int("the node count")),
                        "direction" => {
                            let id = self.ident("`unidirectional` or `bidirectional`")?;
                            let d = match id.value {
                                "unidirectional" => RingDirection::Unidirectional,
                                "bidirectional" => RingDirection::Bidirectional,
                                other => {
                                    return Err(self.error(
                                        codes::ENUM,
                                        format!("unknown ring direction `{other}`"),
                                        id.span,
                                    ));
                                }
                            };
                            if t.direction.is_some() {
                                return Err(self.error(
                                    codes::DUPLICATE_KEY,
                                    "key `direction` assigned twice",
                                    key.span,
                                ));
                            }
                            t.direction = Some(Spanned::new(d, id.span));
                        }
                        "groups" => set!(t.groups, self.int("the group count")),
                        "routers" => set!(t.routers, self.int("the routers-per-group count")),
                        "local_lanes" => set!(t.local_lanes, self.int_list()),
                        "global_lanes" => set!(t.global_lanes, self.int_list()),
                        "valiant" => set!(t.valiant, self.bool_value()),
                        "k" => set!(t.k, self.int("the fat-tree arity")),
                        "dim" => set!(t.dim, self.int("the hypercube dimension")),
                        other => {
                            return Err(self.error(
                                codes::UNKNOWN_KEY,
                                format!("unknown topology key `{other}`"),
                                key.span,
                            ));
                        }
                    }
                }
            }
        }
        t.kind = kind.ok_or_else(|| {
            SpecError::new(
                codes::MISSING,
                "the topology section needs `kind = ...`",
                self.peek().span,
            )
        })?;
        Ok(t)
    }

    fn routing(&mut self) -> Result<Routing, SpecError> {
        let mut engine: Option<Spanned<String>> = None;
        let mut paths = Vec::new();
        loop {
            let key = match &self.peek().tok {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Ident(_) => self.ident("a routing key")?,
                _ => return Err(self.unexpected("`engine`, `path`, or `}`")),
            };
            match key.value {
                "engine" => {
                    self.expect_tok(Tok::Eq, "`=` after `engine`")?;
                    let id = self.ident("a routing engine name")?;
                    if engine.is_some() {
                        return Err(self.error(
                            codes::DUPLICATE_KEY,
                            "key `engine` assigned twice",
                            key.span,
                        ));
                    }
                    engine = Some(Spanned::new(id.value.to_string(), id.span));
                }
                "path" => {
                    let src = self.string("the source node name")?;
                    self.expect_tok(Tok::Arrow, "`->` between path endpoints")?;
                    let dst = self.string("the destination node name")?;
                    self.expect_tok(Tok::Eq, "`=` before the channel list")?;
                    let channels = self.channel_list()?;
                    paths.push(PathDecl { src, dst, channels });
                }
                other => {
                    return Err(self.error(
                        codes::UNKNOWN_KEY,
                        format!("unknown routing key `{other}`"),
                        key.span,
                    ));
                }
            }
        }
        let engine = engine.ok_or_else(|| {
            SpecError::new(
                codes::MISSING,
                "the routing section needs `engine = ...` (use `engine = table` for explicit paths)",
                self.peek().span,
            )
        })?;
        Ok(Routing { engine, paths })
    }

    fn traffic(&mut self) -> Result<Traffic, SpecError> {
        let mut t = Traffic::default();
        let mut pattern: Option<Spanned<PatternKind>> = None;
        loop {
            let key = match &self.peek().tok {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Ident(_) => self.ident("a traffic key or declaration")?,
                _ => return Err(self.unexpected("a traffic key, `message`, `pause`, or `}`")),
            };
            macro_rules! set {
                ($slot:expr, $value:expr) => {{
                    if $slot.is_some() {
                        return Err(self.error(
                            codes::DUPLICATE_KEY,
                            format!("key `{}` assigned twice", key.value),
                            key.span,
                        ));
                    }
                    $slot = Some($value?);
                }};
            }
            match key.value {
                "message" => {
                    let src = self.string("the source node name")?;
                    self.expect_tok(Tok::Arrow, "`->` between message endpoints")?;
                    let dst = self.string("the destination node name")?;
                    self.keyword("length")?;
                    let length = self.quantity(Unit::Flits)?;
                    let at = if self.at_keyword("at") {
                        self.next();
                        Some(self.quantity(Unit::Cycles)?)
                    } else {
                        None
                    };
                    t.messages.push(MessageDecl {
                        src,
                        dst,
                        length,
                        at,
                    });
                }
                "pause" => {
                    let node = self.string("the paused node name")?;
                    self.keyword("period")?;
                    let period = self.quantity(Unit::Cycles)?;
                    self.keyword("offset")?;
                    let offset = self.quantity(Unit::Cycles)?;
                    t.pauses.push(PauseDecl {
                        node,
                        period,
                        offset,
                    });
                }
                "pattern" => {
                    self.expect_tok(Tok::Eq, "`=` after `pattern`")?;
                    let id = self.ident("a traffic pattern")?;
                    let p = PatternKind::from_keyword(id.value).ok_or_else(|| {
                        self.error(
                            codes::ENUM,
                            format!("unknown traffic pattern `{}`", id.value),
                            id.span,
                        )
                    })?;
                    if pattern.is_some() {
                        return Err(self.error(
                            codes::DUPLICATE_KEY,
                            "key `pattern` assigned twice",
                            key.span,
                        ));
                    }
                    pattern = Some(Spanned::new(p, id.span));
                }
                "rate" => {
                    self.expect_tok(Tok::Eq, "`=` after `rate`")?;
                    let d = match self.peek().tok {
                        Tok::Decimal(text) => {
                            Spanned::new(Decimal(text.to_string()), self.next().span)
                        }
                        Tok::Int(n) => Spanned::new(Decimal(n.to_string()), self.next().span),
                        _ => return Err(self.unexpected("an injection rate like `0.05`")),
                    };
                    if t.rate.is_some() {
                        return Err(self.error(
                            codes::DUPLICATE_KEY,
                            "key `rate` assigned twice",
                            key.span,
                        ));
                    }
                    t.rate = Some(d);
                }
                "horizon" => {
                    self.expect_tok(Tok::Eq, "`=` after `horizon`")?;
                    set!(t.horizon, self.quantity(Unit::Cycles));
                }
                "length" => {
                    self.expect_tok(Tok::Eq, "`=` after `length`")?;
                    set!(t.length, self.quantity(Unit::Flits));
                }
                "max_length" => {
                    self.expect_tok(Tok::Eq, "`=` after `max_length`")?;
                    set!(t.max_length, self.quantity(Unit::Flits));
                }
                "seed" => {
                    self.expect_tok(Tok::Eq, "`=` after `seed`")?;
                    set!(t.seed, self.int("the RNG seed"));
                }
                "hotspot" => {
                    self.expect_tok(Tok::Eq, "`=` after `hotspot`")?;
                    set!(t.hotspot, self.string("the hot node name"));
                }
                other => {
                    return Err(self.error(
                        codes::UNKNOWN_KEY,
                        format!("unknown traffic key `{other}`"),
                        key.span,
                    ));
                }
            }
        }
        t.pattern = pattern.ok_or_else(|| {
            SpecError::new(
                codes::MISSING,
                "the traffic section needs `pattern = ...` (use `pattern = explicit` for message lists)",
                self.peek().span,
            )
        })?;
        Ok(t)
    }

    fn faults(&mut self) -> Result<Faults, SpecError> {
        let mut f = Faults::default();
        loop {
            let key = match &self.peek().tok {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Ident(_) => self.ident("a fault declaration")?,
                _ => return Err(self.unexpected("a fault declaration or `}`")),
            };
            match key.value {
                "down" | "up" => {
                    let channel = self.reference('c', "channel")?;
                    self.expect_tok(Tok::At, "`@` before the time")?;
                    let at = self.quantity(Unit::Cycles)?;
                    f.events.push(if key.value == "down" {
                        FaultDecl::Down { channel, at }
                    } else {
                        FaultDecl::Up { channel, at }
                    });
                }
                "outage" => {
                    let channel = self.reference('c', "channel")?;
                    self.expect_tok(Tok::At, "`@` before the time range")?;
                    let from = self.int("the outage start")?;
                    self.expect_tok(Tok::DotDot, "`..` in the outage range")?;
                    let until = self.int("the outage end")?;
                    self.keyword("cycles").map_err(|e| {
                        SpecError::new(
                            codes::UNIT,
                            "outage ranges are measured in `cycles`",
                            e.span,
                        )
                    })?;
                    f.events.push(FaultDecl::Outage {
                        channel,
                        from,
                        until,
                    });
                }
                "stall" => {
                    let node = self.string("the stalled node name")?;
                    self.expect_tok(Tok::At, "`@` before the time")?;
                    let at = self.quantity(Unit::Cycles)?;
                    self.keyword("for")?;
                    let dur = self.quantity(Unit::Cycles)?;
                    f.events.push(FaultDecl::Stall { node, at, dur });
                }
                "drop" | "corrupt" => {
                    let msg = self.reference('m', "message")?;
                    self.expect_tok(Tok::At, "`@` before the time")?;
                    let at = self.quantity(Unit::Cycles)?;
                    f.events.push(if key.value == "drop" {
                        FaultDecl::Drop { msg, at }
                    } else {
                        FaultDecl::Corrupt { msg, at }
                    });
                }
                "delay" => {
                    let msg = self.reference('m', "message")?;
                    self.keyword("by")?;
                    let by = self.quantity(Unit::Cycles)?;
                    f.events.push(FaultDecl::Delay { msg, by });
                }
                "random" => {
                    if f.random.is_some() {
                        return Err(self.error(
                            codes::DUPLICATE_KEY,
                            "`random(...)` declared twice",
                            key.span,
                        ));
                    }
                    self.expect_tok(Tok::LParen, "`(` after `random`")?;
                    self.keyword("seed")?;
                    self.expect_tok(Tok::Eq, "`=` after `seed`")?;
                    let seed = self.int("the RNG seed")?;
                    self.expect_tok(Tok::Comma, "`,`")?;
                    self.keyword("outages")?;
                    self.expect_tok(Tok::Eq, "`=` after `outages`")?;
                    let outages = self.int("the outage count")?;
                    self.expect_tok(Tok::Comma, "`,`")?;
                    self.keyword("stalls")?;
                    self.expect_tok(Tok::Eq, "`=` after `stalls`")?;
                    let stalls = self.int("the stall count")?;
                    self.expect_tok(Tok::Comma, "`,`")?;
                    self.keyword("horizon")?;
                    self.expect_tok(Tok::Eq, "`=` after `horizon`")?;
                    let horizon = self.quantity(Unit::Cycles)?;
                    self.expect_tok(Tok::RParen, "`)` closing `random(...)`")?;
                    f.random = Some(RandomFaults {
                        seed,
                        outages,
                        stalls,
                        horizon,
                    });
                }
                other => {
                    return Err(self.error(
                        codes::UNKNOWN_KEY,
                        format!(
                            "unknown fault declaration `{other}` (known: down, up, outage, stall, drop, corrupt, delay, random)"
                        ),
                        key.span,
                    ));
                }
            }
        }
        Ok(f)
    }

    fn verify(&mut self) -> Result<Verify, SpecError> {
        let mut v = Verify::default();
        loop {
            let key = match &self.peek().tok {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Ident(_) => self.ident("a verify key")?,
                _ => return Err(self.unexpected("a verify key or `}`")),
            };
            macro_rules! set {
                ($slot:expr, $value:expr) => {{
                    self.expect_tok(Tok::Eq, "`=` after the key")?;
                    if $slot.is_some() {
                        return Err(self.error(
                            codes::DUPLICATE_KEY,
                            format!("key `{}` assigned twice", key.value),
                            key.span,
                        ));
                    }
                    $slot = Some($value?);
                }};
            }
            match key.value {
                "engine" => {
                    self.expect_tok(Tok::Eq, "`=` after `engine`")?;
                    let id = self.ident("a verify engine")?;
                    let e = VerifyEngine::from_keyword(id.value).ok_or_else(|| {
                        self.error(
                            codes::ENUM,
                            format!(
                                "unknown verify engine `{}` (known: static, search, sim, full)",
                                id.value
                            ),
                            id.span,
                        )
                    })?;
                    if v.engine.is_some() {
                        return Err(self.error(
                            codes::DUPLICATE_KEY,
                            "key `engine` assigned twice",
                            key.span,
                        ));
                    }
                    v.engine = Some(Spanned::new(e, id.span));
                }
                "max_cycles" => set!(v.max_cycles, self.int("the cycle budget")),
                "max_candidates" => set!(v.max_candidates, self.int("the candidate budget")),
                "max_states" => set!(v.max_states, self.int("the state budget")),
                "stall_budget" => set!(v.stall_budget, self.quantity(Unit::Cycles)),
                "model_exact" => set!(v.model_exact, self.bool_value()),
                "deny_warnings" => set!(v.deny_warnings, self.bool_value()),
                "capacity" => set!(v.capacity, self.quantity(Unit::Flits)),
                "horizon" => set!(v.horizon, self.quantity(Unit::Cycles)),
                "lint" => {
                    self.expect_tok(Tok::LBrace, "`{` opening the lint override block")?;
                    loop {
                        match &self.peek().tok {
                            Tok::RBrace => {
                                self.next();
                                break;
                            }
                            Tok::Ident(_) => {
                                let code = self.ident("a lint code like `W101`")?;
                                if v.lint.iter().any(|o| o.code.value == code.value) {
                                    return Err(self.error(
                                        codes::DUPLICATE_KEY,
                                        format!("lint code `{}` overridden twice", code.value),
                                        code.span,
                                    ));
                                }
                                let ok = code.value.len() == 4
                                    && code.value.starts_with('W')
                                    && code.value[1..].chars().all(|c| c.is_ascii_digit());
                                if !ok {
                                    return Err(self.error(
                                        codes::REF,
                                        format!(
                                            "malformed lint code `{}` (expected `WNNN`)",
                                            code.value
                                        ),
                                        code.span,
                                    ));
                                }
                                self.expect_tok(Tok::Eq, "`=` after the lint code")?;
                                let sev = self.ident("`allow`, `warn`, or `deny`")?;
                                let severity = match sev.value {
                                    "allow" => SeverityName::Allow,
                                    "warn" => SeverityName::Warn,
                                    "deny" => SeverityName::Deny,
                                    other => {
                                        return Err(self.error(
                                            codes::ENUM,
                                            format!("unknown severity `{other}` (known: allow, warn, deny)"),
                                            sev.span,
                                        ));
                                    }
                                };
                                v.lint.push(LintOverride {
                                    code: Spanned::new(code.value.to_string(), code.span),
                                    severity: Spanned::new(severity, sev.span),
                                });
                                if self.peek().tok == Tok::Comma {
                                    self.next();
                                }
                            }
                            _ => return Err(self.unexpected("a lint code or `}`")),
                        }
                    }
                }
                other => {
                    return Err(self.error(
                        codes::UNKNOWN_KEY,
                        format!("unknown verify key `{other}`"),
                        key.span,
                    ));
                }
            }
        }
        // Override order is not semantic (they fill a severity map), so
        // the AST keeps them sorted: canonical-by-construction.
        v.lint.sort_by(|a, b| a.code.value.cmp(&b.code.value));
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_mesh_spec() {
        let spec = parse(
            "wormspec/1\n\
             topology { kind = mesh dims = [3, 3] }\n\
             routing { engine = dimension_order }\n",
        )
        .unwrap();
        assert_eq!(spec.topology.kind.value, TopologyKind::Mesh);
        assert_eq!(spec.topology.dims.as_ref().unwrap().value, vec![3, 3]);
        assert_eq!(spec.routing.engine.value, "dimension_order");
    }

    #[test]
    fn parses_explicit_topology_and_table() {
        let spec = parse(
            "wormspec/1\n\
             topology {\n\
               kind = explicit\n\
               node \"A\"\n\
               node \"B\"\n\
               channel \"A\" -> \"B\" lane 1 cap 2 flits label \"cs\"\n\
               channel \"B\" -> \"A\"\n\
             }\n\
             routing {\n\
               engine = table\n\
               path \"A\" -> \"B\" = [c0]\n\
               path \"B\" -> \"A\" = [c1]\n\
             }\n",
        )
        .unwrap();
        assert_eq!(spec.topology.decls.len(), 4);
        match &spec.topology.decls[2] {
            Decl::Channel(c) => {
                assert_eq!(c.lane.value, 1);
                assert_eq!(c.cap.value, Quantity::new(2, Unit::Flits));
                assert_eq!(c.label.as_ref().unwrap().value, "cs");
            }
            other => panic!("expected channel, got {other:?}"),
        }
        // Defaults are desugared at parse time.
        match &spec.topology.decls[3] {
            Decl::Channel(c) => {
                assert_eq!(c.lane.value, 0);
                assert_eq!(c.cap.value, Quantity::new(1, Unit::Flits));
                assert!(c.label.is_none());
            }
            other => panic!("expected channel, got {other:?}"),
        }
        assert_eq!(spec.routing.paths.len(), 2);
        assert_eq!(spec.routing.paths[0].channels.value, vec![0]);
    }

    #[test]
    fn wrong_unit_is_rejected_with_unit_code() {
        let err = parse(
            "wormspec/1\n\
             topology { kind = mesh dims = [2, 2] vcs = 2 flits }\n\
             routing { engine = dimension_order }\n",
        )
        .unwrap_err();
        assert_eq!(err.code, codes::UNIT);
    }

    #[test]
    fn missing_unit_is_rejected() {
        let err = parse(
            "wormspec/1\n\
             topology { kind = mesh dims = [2, 2] }\n\
             routing { engine = dimension_order }\n\
             verify { stall_budget = 2 }\n",
        )
        .unwrap_err();
        assert_eq!(err.code, codes::UNIT);
    }

    #[test]
    fn unknown_keys_sections_and_kinds_have_stable_codes() {
        let bad_section = parse("wormspec/1\nnope { }\n").unwrap_err();
        assert_eq!(bad_section.code, codes::UNKNOWN_SECTION);

        let bad_kind =
            parse("wormspec/1\ntopology { kind = blob }\nrouting { engine = x }\n").unwrap_err();
        assert_eq!(bad_kind.code, codes::ENUM);

        let bad_key =
            parse("wormspec/1\ntopology { kind = mesh wat = 3 }\nrouting { engine = x }\n")
                .unwrap_err();
        assert_eq!(bad_key.code, codes::UNKNOWN_KEY);

        let dup =
            parse("wormspec/1\ntopology { kind = mesh kind = mesh }\nrouting { engine = x }\n")
                .unwrap_err();
        assert_eq!(dup.code, codes::DUPLICATE_KEY);
    }

    #[test]
    fn the_retired_scc_key_is_an_unknown_verify_key() {
        for (key, assignment) in [("scc", "scc = hkmst"), ("threads", "threads = 2")] {
            let src = format!(
                "wormspec/1\n\
                 topology {{ kind = ring nodes = 4 }}\n\
                 routing {{ engine = clockwise_ring }}\n\
                 verify {{ engine = full {assignment} }}\n"
            );
            let err = parse(&src).unwrap_err();
            assert_eq!(err.code, codes::UNKNOWN_KEY);
            assert_eq!(err.message, format!("unknown verify key `{key}`"));
            let lo = src.find(assignment).unwrap();
            assert_eq!(err.span, Span::new(lo, lo + key.len()));
        }
    }

    #[test]
    fn version_gate() {
        let err =
            parse("wormspec/2\ntopology { kind = mesh }\nrouting { engine = x }\n").unwrap_err();
        assert_eq!(err.code, codes::VERSION);
    }

    #[test]
    fn parses_faults_and_verify() {
        let spec = parse(
            "wormspec/1\n\
             topology { kind = ring nodes = 4 }\n\
             routing { engine = clockwise_ring }\n\
             traffic {\n\
               pattern = explicit\n\
               message \"n0\" -> \"n2\" length 3 flits at 1 cycles\n\
               pause \"n1\" period 4 cycles offset 1 cycles\n\
             }\n\
             faults {\n\
               down c0 @ 10 cycles\n\
               outage c1 @ 5..9 cycles\n\
               stall \"n1\" @ 3 cycles for 2 cycles\n\
               delay m0 by 4 cycles\n\
               random(seed = 42, outages = 2, stalls = 1, horizon = 100 cycles)\n\
             }\n\
             verify {\n\
               engine = search\n\
               max_states = 100000\n\
               stall_budget = 2 cycles\n\
               lint { W101 = allow, W004 = deny }\n\
             }\n",
        )
        .unwrap();
        let f = spec.faults.as_ref().unwrap();
        assert_eq!(f.events.len(), 4);
        assert!(f.random.is_some());
        let v = spec.verify.as_ref().unwrap();
        assert_eq!(v.engine.as_ref().unwrap().value, VerifyEngine::Search);
        assert_eq!(v.lint.len(), 2);
        assert_eq!(spec.traffic.as_ref().unwrap().messages.len(), 1);
        assert_eq!(spec.traffic.as_ref().unwrap().pauses.len(), 1);
    }
}

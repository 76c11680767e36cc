//! The `to_spec` pretty-printer.
//!
//! The printer's output **is** the canonical form of a spec: one fixed
//! section order, one fixed key order inside each section, two-space
//! indentation, defaults elided. Because the parser discards comments,
//! whitespace, and key order, `print(parse(text))` maps every
//! formatting of a spec to the same bytes — and the content hash
//! ([`crate::canon`]) is defined over exactly those bytes. The printer
//! writes them piece by piece into a sink: [`to_spec`] collects them in
//! a `String`, and the content hash folds them into an FNV-1a state
//! without rendering any text.
//!
//! The inverse guarantee, `parse(print(ast)) == ast`, holds for every
//! AST the parser can produce (spans are ignored by AST equality) and
//! is enforced by proptests in the workspace test suite.

use crate::ast::*;

/// Where printed text goes: a text buffer, or a hash state that takes
/// the text as it is printed.
pub(crate) trait Sink {
    /// Take the next piece of text.
    fn write(&mut self, s: &str);
}

impl Sink for String {
    fn write(&mut self, s: &str) {
        self.push_str(s);
    }
}

/// Render a spec in canonical `wormspec/1` form.
pub fn to_spec(spec: &Spec) -> String {
    let mut text = String::new();
    write_spec(&mut text, spec);
    text
}

/// Write the canonical form of `spec` into `sink`, piece by piece.
pub(crate) fn write_spec(sink: &mut impl Sink, spec: &Spec) {
    let out = &mut Out(sink);
    out.str("wormspec/1\n");
    print_topology(out, &spec.topology);
    print_routing(out, &spec.routing);
    if let Some(t) = &spec.traffic {
        print_traffic(out, t);
    }
    if let Some(f) = &spec.faults {
        print_faults(out, f);
    }
    if let Some(v) = &spec.verify {
        print_verify(out, v);
    }
}

/// The canonical text under construction, written straight into the
/// sink: printing allocates nothing of its own.
struct Out<'s, S>(&'s mut S);

impl<S: Sink> Out<'_, S> {
    fn str(&mut self, s: &str) -> &mut Self {
        self.0.write(s);
        self
    }

    /// An unsigned integer in decimal.
    fn int(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"))
    }

    /// A string quoted with the lexer's escape set.
    fn quoted(&mut self, s: &str) -> &mut Self {
        self.str("\"");
        let mut from = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\t' => "\\t",
                _ => continue,
            };
            self.str(&s[from..i]).str(escape);
            from = i + 1;
        }
        self.str(&s[from..]).str("\"")
    }

    /// `N unit`.
    fn quantity(&mut self, q: Quantity) -> &mut Self {
        self.int(q.value).str(" ").str(q.unit.keyword())
    }

    /// `[a, b, c]`, each item written `{prefix}{n}`.
    fn list(&mut self, prefix: &str, items: &[u64]) -> &mut Self {
        self.str("[");
        for (i, &n) in items.iter().enumerate() {
            if i > 0 {
                self.str(", ");
            }
            self.str(prefix).int(n);
        }
        self.str("]")
    }

    /// `  key = ` — the start of a key line.
    fn key(&mut self, key: &str) -> &mut Self {
        self.str("  ").str(key).str(" = ")
    }

    fn word_key(&mut self, key: &str, value: Option<&str>) {
        if let Some(v) = value {
            self.key(key).str(v).str("\n");
        }
    }

    fn int_key(&mut self, key: &str, value: Option<&Spanned<u64>>) {
        if let Some(v) = value {
            self.key(key).int(v.value).str("\n");
        }
    }

    fn bool_key(&mut self, key: &str, value: Option<&Spanned<bool>>) {
        self.word_key(key, value.map(|v| if v.value { "true" } else { "false" }));
    }

    fn quantity_key(&mut self, key: &str, value: Option<&Spanned<Quantity>>) {
        if let Some(v) = value {
            self.key(key).quantity(v.value).str("\n");
        }
    }

    fn list_key(&mut self, key: &str, value: Option<&Spanned<Vec<u64>>>) {
        if let Some(v) = value {
            self.key(key).list("", &v.value).str("\n");
        }
    }
}

fn print_topology(out: &mut Out<'_, impl Sink>, t: &Topology) {
    out.str("topology {\n");
    out.word_key("kind", Some(t.kind.value.keyword()));
    out.list_key("dims", t.dims.as_ref());
    out.quantity_key("vcs", t.vcs.as_ref());
    out.int_key("nodes", t.nodes.as_ref());
    out.word_key("direction", t.direction.as_ref().map(|d| d.value.keyword()));
    out.int_key("groups", t.groups.as_ref());
    out.int_key("routers", t.routers.as_ref());
    out.list_key("local_lanes", t.local_lanes.as_ref());
    out.list_key("global_lanes", t.global_lanes.as_ref());
    out.bool_key("valiant", t.valiant.as_ref());
    out.int_key("k", t.k.as_ref());
    out.int_key("dim", t.dim.as_ref());
    for decl in &t.decls {
        match decl {
            Decl::Node(n) => {
                out.str("  node ").quoted(&n.name.value).str("\n");
            }
            Decl::Channel(c) => {
                out.str("  channel ")
                    .quoted(&c.src.value)
                    .str(" -> ")
                    .quoted(&c.dst.value);
                // Defaults (lane 0, cap 1 flits) are elided: written and
                // omitted defaults already parse to the same AST, so the
                // canonical form is the short one.
                if c.lane.value != 0 {
                    out.str(" lane ").int(c.lane.value);
                }
                if c.cap.value != Quantity::new(1, Unit::Flits) {
                    out.str(" cap ").quantity(c.cap.value);
                }
                if let Some(l) = &c.label {
                    out.str(" label ").quoted(&l.value);
                }
                out.str("\n");
            }
        }
    }
    out.str("}\n");
}

fn print_routing(out: &mut Out<'_, impl Sink>, r: &Routing) {
    out.str("routing {\n");
    out.word_key("engine", Some(&r.engine.value));
    for p in r.paths() {
        out.str("  path ")
            .quoted(p.src.value)
            .str(" -> ")
            .quoted(p.dst.value)
            .str(" = ")
            .list("c", p.channels.value)
            .str("\n");
    }
    out.str("}\n");
}

fn print_traffic(out: &mut Out<'_, impl Sink>, t: &Traffic) {
    out.str("traffic {\n");
    out.word_key("pattern", Some(t.pattern.value.keyword()));
    out.word_key("rate", t.rate.as_ref().map(|r| r.value.0.as_str()));
    out.quantity_key("horizon", t.horizon.as_ref());
    out.quantity_key("length", t.length.as_ref());
    out.quantity_key("max_length", t.max_length.as_ref());
    out.int_key("seed", t.seed.as_ref());
    if let Some(h) = &t.hotspot {
        out.key("hotspot").quoted(&h.value).str("\n");
    }
    for m in &t.messages {
        out.str("  message ")
            .quoted(&m.src.value)
            .str(" -> ")
            .quoted(&m.dst.value)
            .str(" length ")
            .quantity(m.length.value);
        if let Some(at) = &m.at {
            out.str(" at ").quantity(at.value);
        }
        out.str("\n");
    }
    for p in &t.pauses {
        out.str("  pause ")
            .quoted(&p.node.value)
            .str(" period ")
            .quantity(p.period.value)
            .str(" offset ")
            .quantity(p.offset.value)
            .str("\n");
    }
    out.str("}\n");
}

fn print_faults(out: &mut Out<'_, impl Sink>, f: &Faults) {
    out.str("faults {\n");
    for e in &f.events {
        match e {
            FaultDecl::Down { channel, at } => {
                out.str("  down c")
                    .int(channel.value)
                    .str(" @ ")
                    .quantity(at.value);
            }
            FaultDecl::Up { channel, at } => {
                out.str("  up c")
                    .int(channel.value)
                    .str(" @ ")
                    .quantity(at.value);
            }
            FaultDecl::Outage {
                channel,
                from,
                until,
            } => {
                out.str("  outage c")
                    .int(channel.value)
                    .str(" @ ")
                    .int(from.value)
                    .str("..")
                    .int(until.value)
                    .str(" cycles");
            }
            FaultDecl::Stall { node, at, dur } => {
                out.str("  stall ")
                    .quoted(&node.value)
                    .str(" @ ")
                    .quantity(at.value)
                    .str(" for ")
                    .quantity(dur.value);
            }
            FaultDecl::Drop { msg, at } => {
                out.str("  drop m")
                    .int(msg.value)
                    .str(" @ ")
                    .quantity(at.value);
            }
            FaultDecl::Corrupt { msg, at } => {
                out.str("  corrupt m")
                    .int(msg.value)
                    .str(" @ ")
                    .quantity(at.value);
            }
            FaultDecl::Delay { msg, by } => {
                out.str("  delay m")
                    .int(msg.value)
                    .str(" by ")
                    .quantity(by.value);
            }
        }
        out.str("\n");
    }
    if let Some(r) = &f.random {
        out.str("  random(seed = ")
            .int(r.seed.value)
            .str(", outages = ")
            .int(r.outages.value)
            .str(", stalls = ")
            .int(r.stalls.value)
            .str(", horizon = ")
            .quantity(r.horizon.value)
            .str(")\n");
    }
    out.str("}\n");
}

fn print_verify(out: &mut Out<'_, impl Sink>, v: &Verify) {
    out.str("verify {\n");
    out.word_key("engine", v.engine.as_ref().map(|e| e.value.keyword()));
    out.int_key("max_cycles", v.max_cycles.as_ref());
    out.int_key("max_candidates", v.max_candidates.as_ref());
    out.int_key("max_states", v.max_states.as_ref());
    out.quantity_key("stall_budget", v.stall_budget.as_ref());
    out.bool_key("model_exact", v.model_exact.as_ref());
    out.bool_key("deny_warnings", v.deny_warnings.as_ref());
    out.quantity_key("capacity", v.capacity.as_ref());
    out.quantity_key("horizon", v.horizon.as_ref());
    if !v.lint.is_empty() {
        out.str("  lint {\n");
        for o in &v.lint {
            out.str("    ")
                .str(&o.code.value)
                .str(" = ")
                .str(o.severity.value.keyword())
                .str("\n");
        }
        out.str("  }\n");
    }
    out.str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn print_parse_is_identity_on_a_kitchen_sink_spec() {
        let src = "wormspec/1\n\
             # comment noise\n\
             topology {\n\
               kind = explicit\n\
               node \"A\"   node \"B\"\n\
               channel \"A\" -> \"B\" lane 1 cap 2 flits label \"cs\"\n\
               channel \"B\" -> \"A\" lane 0 cap 1 flits\n\
             }\n\
             routing { engine = table path \"A\" -> \"B\" = [c0] }\n\
             traffic {\n\
               pattern = uniform rate = 0.500 horizon = 100 cycles\n\
               length = 2 flits max_length = 8 flits seed = 7\n\
               message \"A\" -> \"B\" length 3 flits at 1 cycles\n\
               pause \"B\" period 4 cycles offset 1 cycles\n\
             }\n\
             faults {\n\
               down c0 @ 10 cycles\n\
               outage c1 @ 5..9 cycles\n\
               stall \"A\" @ 3 cycles for 2 cycles\n\
               delay m0 by 4 cycles\n\
               random(seed = 9, outages = 1, stalls = 1, horizon = 50 cycles)\n\
             }\n\
             verify {\n\
               engine = full max_states = 1000\n\
               model_exact = true lint { W101 = allow W004 = deny }\n\
             }\n";
        let ast = parse(src).unwrap();
        let printed = to_spec(&ast);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(reparsed, ast);
        // Printing is idempotent: canonical text reprints byte-identically.
        assert_eq!(to_spec(&reparsed), printed);
    }

    #[test]
    fn defaults_are_elided() {
        let ast = parse(
            "wormspec/1\n\
             topology { kind = explicit node \"A\" node \"B\" channel \"A\" -> \"B\" lane 0 cap 1 flits }\n\
             routing { engine = table }\n",
        )
        .unwrap();
        let printed = to_spec(&ast);
        assert!(printed.contains("  channel \"A\" -> \"B\"\n"), "{printed}");
    }

    #[test]
    fn strings_round_trip_through_escapes() {
        let ast = parse(
            "wormspec/1\n\
             topology { kind = explicit node \"a\\\"b\\\\c\" node \"d\\te\\nf\" }\n\
             routing { engine = table }\n",
        )
        .unwrap();
        let printed = to_spec(&ast);
        assert!(
            printed.contains("  node \"a\\\"b\\\\c\"\n  node \"d\\te\\nf\"\n"),
            "{printed}"
        );
        assert_eq!(parse(&printed).unwrap(), ast);
    }

    #[test]
    fn lint_overrides_print_sorted() {
        let ast = parse(
            "wormspec/1\n\
             topology { kind = mesh dims = [2, 2] }\n\
             routing { engine = dimension_order }\n\
             verify { lint { W207 = deny W003 = allow W101 = warn } }\n",
        )
        .unwrap();
        let printed = to_spec(&ast);
        let w003 = printed.find("W003").unwrap();
        let w101 = printed.find("W101").unwrap();
        let w207 = printed.find("W207").unwrap();
        assert!(w003 < w101 && w101 < w207, "{printed}");
    }
}

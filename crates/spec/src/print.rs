//! The `to_spec` pretty-printer.
//!
//! The printer's output **is** the canonical form of a spec: one fixed
//! section order, one fixed key order inside each section, two-space
//! indentation, defaults elided. Because the parser discards comments,
//! whitespace, and key order, `print(parse(text))` maps every
//! formatting of a spec to the same bytes — and the content hash
//! ([`crate::canon`]) is defined over exactly those bytes.
//!
//! The inverse guarantee, `parse(print(ast)) == ast`, holds for every
//! AST the parser can produce (spans are ignored by AST equality) and
//! is enforced by proptests in the workspace test suite.

use crate::ast::*;

/// Render a spec in canonical `wormspec/1` form.
pub fn to_spec(spec: &Spec) -> String {
    let mut out = String::from("wormspec/1\n");
    print_topology(&mut out, &spec.topology);
    print_routing(&mut out, &spec.routing);
    if let Some(t) = &spec.traffic {
        print_traffic(&mut out, t);
    }
    if let Some(f) = &spec.faults {
        print_faults(&mut out, f);
    }
    if let Some(v) = &spec.verify {
        print_verify(&mut out, v);
    }
    out
}

/// Quote a string with the lexer's escape set.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

fn quantity(q: &Quantity) -> String {
    format!("{} {}", q.value, q.unit.keyword())
}

fn int_list(items: &[u64]) -> String {
    let body: Vec<String> = items.iter().map(|n| n.to_string()).collect();
    format!("[{}]", body.join(", "))
}

fn channel_list(items: &[u64]) -> String {
    let body: Vec<String> = items.iter().map(|n| format!("c{n}")).collect();
    format!("[{}]", body.join(", "))
}

fn print_topology(out: &mut String, t: &Topology) {
    out.push_str("topology {\n");
    out.push_str(&format!("  kind = {}\n", t.kind.value.keyword()));
    if let Some(d) = &t.dims {
        out.push_str(&format!("  dims = {}\n", int_list(&d.value)));
    }
    if let Some(v) = &t.vcs {
        out.push_str(&format!("  vcs = {}\n", quantity(&v.value)));
    }
    if let Some(n) = &t.nodes {
        out.push_str(&format!("  nodes = {}\n", n.value));
    }
    if let Some(d) = &t.direction {
        out.push_str(&format!("  direction = {}\n", d.value.keyword()));
    }
    if let Some(g) = &t.groups {
        out.push_str(&format!("  groups = {}\n", g.value));
    }
    if let Some(r) = &t.routers {
        out.push_str(&format!("  routers = {}\n", r.value));
    }
    if let Some(l) = &t.local_lanes {
        out.push_str(&format!("  local_lanes = {}\n", int_list(&l.value)));
    }
    if let Some(g) = &t.global_lanes {
        out.push_str(&format!("  global_lanes = {}\n", int_list(&g.value)));
    }
    if let Some(v) = &t.valiant {
        out.push_str(&format!("  valiant = {}\n", v.value));
    }
    if let Some(k) = &t.k {
        out.push_str(&format!("  k = {}\n", k.value));
    }
    if let Some(d) = &t.dim {
        out.push_str(&format!("  dim = {}\n", d.value));
    }
    for decl in &t.decls {
        match decl {
            Decl::Node(n) => {
                out.push_str(&format!("  node {}\n", quoted(&n.name.value)));
            }
            Decl::Channel(c) => {
                out.push_str(&format!(
                    "  channel {} -> {}",
                    quoted(&c.src.value),
                    quoted(&c.dst.value)
                ));
                // Defaults (lane 0, cap 1 flits) are elided: written and
                // omitted defaults already parse to the same AST, so the
                // canonical form is the short one.
                if c.lane.value != 0 {
                    out.push_str(&format!(" lane {}", c.lane.value));
                }
                if c.cap.value != Quantity::new(1, Unit::Flits) {
                    out.push_str(&format!(" cap {}", quantity(&c.cap.value)));
                }
                if let Some(l) = &c.label {
                    out.push_str(&format!(" label {}", quoted(&l.value)));
                }
                out.push('\n');
            }
        }
    }
    out.push_str("}\n");
}

fn print_routing(out: &mut String, r: &Routing) {
    out.push_str("routing {\n");
    out.push_str(&format!("  engine = {}\n", r.engine.value));
    for p in &r.paths {
        out.push_str(&format!(
            "  path {} -> {} = {}\n",
            quoted(&p.src.value),
            quoted(&p.dst.value),
            channel_list(&p.channels.value)
        ));
    }
    out.push_str("}\n");
}

fn print_traffic(out: &mut String, t: &Traffic) {
    out.push_str("traffic {\n");
    out.push_str(&format!("  pattern = {}\n", t.pattern.value.keyword()));
    if let Some(r) = &t.rate {
        out.push_str(&format!("  rate = {}\n", r.value.0));
    }
    if let Some(h) = &t.horizon {
        out.push_str(&format!("  horizon = {}\n", quantity(&h.value)));
    }
    if let Some(l) = &t.length {
        out.push_str(&format!("  length = {}\n", quantity(&l.value)));
    }
    if let Some(m) = &t.max_length {
        out.push_str(&format!("  max_length = {}\n", quantity(&m.value)));
    }
    if let Some(s) = &t.seed {
        out.push_str(&format!("  seed = {}\n", s.value));
    }
    if let Some(h) = &t.hotspot {
        out.push_str(&format!("  hotspot = {}\n", quoted(&h.value)));
    }
    for m in &t.messages {
        out.push_str(&format!(
            "  message {} -> {} length {}",
            quoted(&m.src.value),
            quoted(&m.dst.value),
            quantity(&m.length.value)
        ));
        if let Some(at) = &m.at {
            out.push_str(&format!(" at {}", quantity(&at.value)));
        }
        out.push('\n');
    }
    for p in &t.pauses {
        out.push_str(&format!(
            "  pause {} period {} offset {}\n",
            quoted(&p.node.value),
            quantity(&p.period.value),
            quantity(&p.offset.value)
        ));
    }
    out.push_str("}\n");
}

fn print_faults(out: &mut String, f: &Faults) {
    out.push_str("faults {\n");
    for e in &f.events {
        match e {
            FaultDecl::Down { channel, at } => {
                out.push_str(&format!(
                    "  down c{} @ {}\n",
                    channel.value,
                    quantity(&at.value)
                ));
            }
            FaultDecl::Up { channel, at } => {
                out.push_str(&format!(
                    "  up c{} @ {}\n",
                    channel.value,
                    quantity(&at.value)
                ));
            }
            FaultDecl::Outage {
                channel,
                from,
                until,
            } => {
                out.push_str(&format!(
                    "  outage c{} @ {}..{} cycles\n",
                    channel.value, from.value, until.value
                ));
            }
            FaultDecl::Stall { node, at, dur } => {
                out.push_str(&format!(
                    "  stall {} @ {} for {}\n",
                    quoted(&node.value),
                    quantity(&at.value),
                    quantity(&dur.value)
                ));
            }
            FaultDecl::Drop { msg, at } => {
                out.push_str(&format!(
                    "  drop m{} @ {}\n",
                    msg.value,
                    quantity(&at.value)
                ));
            }
            FaultDecl::Corrupt { msg, at } => {
                out.push_str(&format!(
                    "  corrupt m{} @ {}\n",
                    msg.value,
                    quantity(&at.value)
                ));
            }
            FaultDecl::Delay { msg, by } => {
                out.push_str(&format!(
                    "  delay m{} by {}\n",
                    msg.value,
                    quantity(&by.value)
                ));
            }
        }
    }
    if let Some(r) = &f.random {
        out.push_str(&format!(
            "  random(seed = {}, outages = {}, stalls = {}, horizon = {})\n",
            r.seed.value,
            r.outages.value,
            r.stalls.value,
            quantity(&r.horizon.value)
        ));
    }
    out.push_str("}\n");
}

fn print_verify(out: &mut String, v: &Verify) {
    out.push_str("verify {\n");
    if let Some(e) = &v.engine {
        out.push_str(&format!("  engine = {}\n", e.value.keyword()));
    }
    if let Some(n) = &v.max_cycles {
        out.push_str(&format!("  max_cycles = {}\n", n.value));
    }
    if let Some(n) = &v.max_candidates {
        out.push_str(&format!("  max_candidates = {}\n", n.value));
    }
    if let Some(n) = &v.max_states {
        out.push_str(&format!("  max_states = {}\n", n.value));
    }
    if let Some(n) = &v.threads {
        out.push_str(&format!("  threads = {}\n", n.value));
    }
    if let Some(q) = &v.stall_budget {
        out.push_str(&format!("  stall_budget = {}\n", quantity(&q.value)));
    }
    if let Some(b) = &v.model_exact {
        out.push_str(&format!("  model_exact = {}\n", b.value));
    }
    if let Some(b) = &v.deny_warnings {
        out.push_str(&format!("  deny_warnings = {}\n", b.value));
    }
    if let Some(q) = &v.capacity {
        out.push_str(&format!("  capacity = {}\n", quantity(&q.value)));
    }
    if let Some(q) = &v.horizon {
        out.push_str(&format!("  horizon = {}\n", quantity(&q.value)));
    }
    if !v.lint.is_empty() {
        out.push_str("  lint {\n");
        for o in &v.lint {
            out.push_str(&format!(
                "    {} = {}\n",
                o.code.value,
                o.severity.value.keyword()
            ));
        }
        out.push_str("  }\n");
    }
    out.push_str("}\n");
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
             topology { kind = explicit node \"a\\\"b\\\\c\" }\n\
             routing { engine = table }\n",
        )
        .unwrap();
        let printed = to_spec(&ast);
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

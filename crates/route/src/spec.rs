//! Build a routing table from a parsed `wormspec/1` routing section.
//!
//! The `engine` key either names one of the algorithms in
//! [`crate::algorithms`] — in which case the engine must match the
//! built topology's kind (a `dimension_order` engine on a ring is an
//! `E013` conflict, not a panic) — or is the literal `table`, which
//! replays the explicit `path` declarations.

use wormnet::spec::BuiltTopology;
use wormnet::{ChannelId, Network};
use wormspec::ast::{PathRef, Routing};
use wormspec::diag::{codes, Span, SpecError};

use crate::algorithms;
use crate::{Duplicate, Path, RouteError, TableBuilder, TableRouting};

fn err(code: &'static str, msg: impl Into<String>, span: Span) -> SpecError {
    SpecError::new(code, msg, span)
}

fn route_err(e: RouteError, span: Span) -> SpecError {
    err(
        codes::RESOLVE,
        format!("routing resolution failed: {e}"),
        span,
    )
}

fn kind_mismatch(engine: &str, needs: &str, topo: &BuiltTopology, span: Span) -> SpecError {
    err(
        codes::CONFLICT,
        format!(
            "engine `{engine}` needs `kind = {needs}`, but the topology is `{}`",
            topo.kind_keyword()
        ),
        span,
    )
}

/// Resolve the routing section against a built topology.
///
/// Engine names are the `wormroute::algorithms` function names; the
/// special name `table` replays explicit `path` declarations.
pub fn table_from_spec(routing: &Routing, topo: &BuiltTopology) -> Result<TableRouting, SpecError> {
    let engine = routing.engine.value.as_str();
    let at = routing.engine.span;
    if engine != "table" {
        if let Some(p) = routing.paths().next() {
            return Err(err(
                codes::CONFLICT,
                format!(
                    "explicit `path` declarations need `engine = table`, not `engine = {engine}`"
                ),
                p.src.span,
            ));
        }
    }
    match engine {
        "table" => explicit_table(routing, topo),
        "dimension_order" | "xy_mesh" | "west_first" | "negative_first" | "valiant_mesh" => {
            let BuiltTopology::Mesh(mesh) = topo else {
                return Err(kind_mismatch(engine, "mesh", topo, at));
            };
            let run = match engine {
                "dimension_order" => algorithms::dimension_order,
                "xy_mesh" => algorithms::xy_mesh,
                "west_first" => algorithms::west_first,
                "negative_first" => algorithms::negative_first,
                _ => algorithms::valiant_mesh,
            };
            if (engine == "xy_mesh" || engine == "west_first")
                && mesh.dims().len() != 2 {
                    return Err(err(
                        codes::CONFLICT,
                        format!("engine `{engine}` needs a 2-D mesh"),
                        at,
                    ));
                }
            if engine == "valiant_mesh" && mesh.vcs() < 2 {
                return Err(err(
                    codes::CONFLICT,
                    "engine `valiant_mesh` needs `vcs = 2 lanes` or more",
                    at,
                ));
            }
            run(mesh).map_err(|e| route_err(e, at))
        }
        "dateline_torus" => {
            let BuiltTopology::Torus(torus) = topo else {
                return Err(kind_mismatch(engine, "torus", topo, at));
            };
            algorithms::dateline_torus(torus).map_err(|e| route_err(e, at))
        }
        "ecube" => {
            let BuiltTopology::Hypercube(cube) = topo else {
                return Err(kind_mismatch(engine, "hypercube", topo, at));
            };
            algorithms::ecube(cube).map_err(|e| route_err(e, at))
        }
        "dragonfly_minimal" | "dragonfly_valiant" => {
            let BuiltTopology::Dragonfly(df) = topo else {
                return Err(kind_mismatch(engine, "dragonfly", topo, at));
            };
            let run = if engine == "dragonfly_minimal" {
                algorithms::dragonfly_minimal
            } else {
                algorithms::dragonfly_valiant
            };
            if engine == "dragonfly_valiant" && df.groups() < 3 {
                return Err(err(
                    codes::CONFLICT,
                    "engine `dragonfly_valiant` needs at least three groups",
                    at,
                ));
            }
            run(df).map_err(|e| route_err(e, at))
        }
        "fattree_updown" => {
            let BuiltTopology::FatTree(ft) = topo else {
                return Err(kind_mismatch(engine, "fattree", topo, at));
            };
            algorithms::fattree_updown(ft).map_err(|e| route_err(e, at))
        }
        "clockwise_ring" | "dateline_ring" => {
            let BuiltTopology::Ring { net, nodes } = topo else {
                return Err(kind_mismatch(engine, "ring", topo, at));
            };
            if engine == "dateline_ring" {
                // Dateline needs a second lane on every link.
                let max_vc = net.channels().map(|c| c.vc()).max().unwrap_or(0);
                if max_vc < 1 {
                    return Err(err(
                        codes::CONFLICT,
                        "engine `dateline_ring` needs `vcs = 2 lanes` or more",
                        at,
                    ));
                }
                algorithms::dateline_ring(net, nodes).map_err(|e| route_err(e, at))
            } else {
                algorithms::clockwise_ring(net, nodes).map_err(|e| route_err(e, at))
            }
        }
        "fullmesh_direct" | "fullmesh_vcfree" | "fullmesh_ring_detour" => {
            let BuiltTopology::Complete { net, nodes } = topo else {
                return Err(kind_mismatch(engine, "complete", topo, at));
            };
            match engine {
                "fullmesh_direct" => algorithms::fullmesh_direct(net),
                "fullmesh_vcfree" => algorithms::fullmesh_vcfree(net, nodes),
                _ => algorithms::fullmesh_ring_detour(net, nodes),
            }
            .map_err(|e| route_err(e, at))
        }
        "shortest_path" => {
            algorithms::shortest_path_table(topo.network()).map_err(|e| route_err(e, at))
        }
        other => Err(err(
            codes::ENUM,
            format!(
                "unknown routing engine `{other}` (see `wormroute::algorithms`; use `table` for explicit paths)"
            ),
            at,
        )),
    }
}

/// Replay explicit `path` declarations into a [`TableRouting`].
///
/// Errors are reported in declaration order: a pair declared twice is
/// reported at its second declaration, unless an earlier declaration
/// fails for another reason.
fn explicit_table(routing: &Routing, topo: &BuiltTopology) -> Result<TableRouting, SpecError> {
    let net = topo.network();
    let mut table = TableBuilder::new(net);
    let duplicate = |d: Duplicate| {
        let p = routing.path(d.index);
        route_err(d.into(), p.src.span.to(p.dst.span))
    };
    for p in routing.paths() {
        if let Err(e) = declare(net, &mut table, p) {
            return Err(table.finish().err().map_or(e, duplicate));
        }
    }
    table.finish().map_err(duplicate)
}

/// Resolve one `path` declaration and register it in `table`.
fn declare(net: &Network, table: &mut TableBuilder<'_>, p: PathRef<'_>) -> Result<(), SpecError> {
    let src = net.node_by_name(p.src.value).ok_or_else(|| {
        err(
            codes::RESOLVE,
            format!("unknown node \"{}\"", p.src.value),
            p.src.span,
        )
    })?;
    let dst = net.node_by_name(p.dst.value).ok_or_else(|| {
        err(
            codes::RESOLVE,
            format!("unknown node \"{}\"", p.dst.value),
            p.dst.span,
        )
    })?;
    let mut channels = Vec::with_capacity(p.channels.value.len());
    for &c in p.channels.value {
        let idx = usize::try_from(c)
            .map_err(|_| err(codes::RANGE, "channel index out of range", p.channels.span))?;
        if idx >= net.channel_count() {
            return Err(err(
                codes::RESOLVE,
                format!(
                    "channel c{idx} does not exist (the topology has {} channels)",
                    net.channel_count()
                ),
                p.channels.span,
            ));
        }
        channels.push(ChannelId::from_index(idx));
    }
    let path = Path::from_channels(net, channels).map_err(|e| route_err(e, p.channels.span))?;
    table
        .insert(src, dst, path)
        .map_err(|e| route_err(e, p.src.span.to(p.dst.span)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormnet::spec::build_topology;
    use wormspec::parse;

    fn resolve(src: &str) -> Result<TableRouting, SpecError> {
        let spec = parse(src).expect("spec parses");
        let topo = build_topology(&spec.topology)?;
        table_from_spec(&spec.routing, &topo)
    }

    #[test]
    fn named_engines_resolve_against_matching_kinds() {
        let t = resolve(
            "wormspec/1\ntopology { kind = mesh dims = [3, 3] }\nrouting { engine = dimension_order }\n",
        )
        .unwrap();
        assert_eq!(t.len(), 9 * 8);
        let t = resolve(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n",
        )
        .unwrap();
        assert_eq!(t.len(), 4 * 3);
        let t = resolve(
            "wormspec/1\ntopology { kind = ring nodes = 8 vcs = 2 lanes }\nrouting { engine = dateline_ring }\n",
        )
        .unwrap();
        assert_eq!(t.len(), 8 * 7);
    }

    #[test]
    fn engine_kind_mismatch_is_a_conflict() {
        let e = resolve(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = dimension_order }\n",
        )
        .unwrap_err();
        assert_eq!(e.code, codes::CONFLICT);
        let e = resolve(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = dateline_ring }\n",
        )
        .unwrap_err();
        assert_eq!(e.code, codes::CONFLICT);
    }

    #[test]
    fn unknown_engine_is_an_enum_error() {
        let e = resolve(
            "wormspec/1\ntopology { kind = mesh dims = [2, 2] }\nrouting { engine = wibble }\n",
        )
        .unwrap_err();
        assert_eq!(e.code, codes::ENUM);
    }

    #[test]
    fn explicit_tables_replay_and_validate() {
        let t = resolve(
            "wormspec/1\n\
             topology { kind = explicit node \"A\" node \"B\" channel \"A\" -> \"B\" channel \"B\" -> \"A\" }\n\
             routing { engine = table path \"A\" -> \"B\" = [c0] path \"B\" -> \"A\" = [c1] }\n",
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        let e = resolve(
            "wormspec/1\n\
             topology { kind = explicit node \"A\" node \"B\" channel \"A\" -> \"B\" }\n\
             routing { engine = table path \"A\" -> \"B\" = [c7] }\n",
        )
        .unwrap_err();
        assert_eq!(e.code, codes::RESOLVE);
        let e = resolve(
            "wormspec/1\n\
             topology { kind = explicit node \"A\" node \"B\" channel \"A\" -> \"B\" }\n\
             routing { engine = dimension_order path \"A\" -> \"B\" = [c0] }\n",
        )
        .unwrap_err();
        assert_eq!(e.code, codes::CONFLICT);
    }
}

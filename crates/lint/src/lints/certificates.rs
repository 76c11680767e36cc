//! `W208`–`W209`: positive acyclic-numbering certificates.
//!
//! `FreeAcyclic` says *that* the CDG is acyclic; these lints say *why*,
//! by recognising the two orderings production engines are built
//! around. Each certificate names a concrete strictly-increasing
//! channel numbering — exactly what Theorem 1 (Dally–Seitz) asks for —
//! so a reviewer can audit the freedom argument without re-deriving
//! it from the dependency graph:
//!
//! * **W208** (`vc-monotone-path-certificate`): every multi-hop path
//!   climbs strictly through virtual-channel lanes, so numbering
//!   channels lexicographically by `(lane, id)` orders the CDG. This
//!   is the ordered-VC discipline of dragonfly minimal/valiant
//!   engines and InfiniBand-style SL-to-VL maps.
//! * **W209** (`down-up-path-certificate`): every path's node indices
//!   strictly descend and then strictly ascend, so no dependency ever
//!   leads from an ascending channel back to a descending one —
//!   up*/down* fat-tree routing and the VC-free full-mesh scheme.
//!
//! Both fire only when the CDG really is acyclic and at least one
//! multi-hop path exists (a table of single hops has no dependencies
//! and needs no certificate).

use crate::diagnostic::{Diagnostic, Severity};
use crate::lint::{Finding, Lint};
use crate::lints::spec_if;
use crate::LintContext;

/// `W208`: strictly increasing virtual-channel lanes along every path.
pub struct VcMonotoneCertificate;

impl Lint for VcMonotoneCertificate {
    fn code(&self) -> &'static str {
        "W208"
    }
    fn name(&self) -> &'static str {
        "vc-monotone-path-certificate"
    }
    fn description(&self) -> &'static str {
        "every multi-hop path climbs strictly through VC lanes: numbering channels by (lane, id) is a Dally-Seitz certificate, so the algorithm is deadlock-free by construction"
    }
    fn paper_anchor(&self) -> &'static str {
        "Theorem 1 (Dally-Seitz acyclic numbering)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Allow
    }
    /// `Measure(lane)`: the highest lane the climbing paths reach.
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        if !ctx.is_acyclic() || ctx.properties.multi_hop_paths == 0 {
            return Vec::new();
        }
        let mut max_lane = 0u8;
        for (_, path) in ctx.table.iter() {
            for w in path.channels().windows(2) {
                let (a, b) = (ctx.net.channel(w[0]).vc(), ctx.net.channel(w[1]).vc());
                if a >= b {
                    return Vec::new();
                }
                max_lane = max_lane.max(b);
            }
        }
        vec![Finding::Measure(usize::from(max_lane))]
    }
    fn render(
        &self,
        ctx: &LintContext<'_>,
        finding: &Finding<'_>,
        severity: Severity,
    ) -> Diagnostic {
        let &Finding::Measure(max_lane) = finding else {
            unreachable!("W208 selects the top lane")
        };
        let multi_hop = ctx.properties.multi_hop_paths;
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "deadlock-free by VC ordering: all {multi_hop} multi-hop path(s) use strictly increasing lanes (numbering channels by (lane, id) is acyclic)",
            ),
        )
        .fact("multi_hop_paths", multi_hop)
        .fact("max_lane", max_lane)
        .fact("numbering", "(vc lane, channel id), lexicographic")
    }
}

/// `W209`: node indices strictly descend then strictly ascend on every
/// path.
pub struct DownUpCertificate;

impl Lint for DownUpCertificate {
    fn code(&self) -> &'static str {
        "W209"
    }
    fn name(&self) -> &'static str {
        "down-up-path-certificate"
    }
    fn description(&self) -> &'static str {
        "every path's node indices strictly descend then strictly ascend (up*/down* form): descending channels numbered before ascending ones is a Dally-Seitz certificate"
    }
    fn paper_anchor(&self) -> &'static str {
        "Theorem 1 (Dally-Seitz acyclic numbering)"
    }
    fn default_severity(&self) -> Severity {
        Severity::Allow
    }
    fn findings<'c>(&self, ctx: &'c LintContext<'_>) -> Vec<Finding<'c>> {
        spec_if(ctx.is_acyclic() && ctx.properties.down_up && ctx.properties.multi_hop_paths > 0)
    }
    fn render(&self, ctx: &LintContext<'_>, _: &Finding<'_>, severity: Severity) -> Diagnostic {
        let multi_hop = ctx.properties.multi_hop_paths;
        Diagnostic::new(
            self.code(),
            self.name(),
            severity,
            format!(
                "deadlock-free by down/up ordering: all {multi_hop} multi-hop path(s) descend then ascend in node index, so no ascending channel ever waits on a descending one",
            ),
        )
        .fact("multi_hop_paths", multi_hop)
        .fact(
            "numbering",
            "descending channels by falling source index, then ascending channels by rising source index",
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{LintConfig, Registry, StaticVerdict};
    use wormnet::topology::{complete, ring_unidirectional, Dragonfly, FatTree, Mesh};
    use wormroute::algorithms::{
        clockwise_ring, dragonfly_minimal, dragonfly_valiant, fattree_updown, fullmesh_vcfree,
        xy_mesh,
    };

    fn codes(net: &wormnet::Network, table: &wormroute::TableRouting) -> Vec<&'static str> {
        Registry::with_default_lints()
            .run(net, table, &LintConfig::default())
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn dragonfly_engines_earn_the_vc_certificate() {
        // Minimal needs 3 lanes ([0,2] local, [1] global); valiant
        // needs the 5-lane layout of `new_valiant`.
        let cases = [
            (
                Dragonfly::new(5, 4),
                dragonfly_minimal as fn(&Dragonfly) -> _,
            ),
            (Dragonfly::new_valiant(5, 4), dragonfly_valiant),
        ];
        for (df, engine) in &cases {
            let table = engine(df).unwrap();
            let report =
                Registry::with_default_lints().run(df.network(), &table, &LintConfig::default());
            assert_eq!(report.verdict, StaticVerdict::FreeAcyclic);
            let c = codes(df.network(), &table);
            assert!(c.contains(&"W208"), "{c:?}");
            assert!(!c.contains(&"W209"), "{c:?}");
        }
    }

    #[test]
    fn fattree_and_fullmesh_earn_the_down_up_certificate() {
        let ft = FatTree::new(4);
        let table = fattree_updown(&ft).unwrap();
        let c = codes(ft.network(), &table);
        assert!(c.contains(&"W209"), "{c:?}");
        assert!(!c.contains(&"W208"), "{c:?}");

        let (net, nodes) = complete(9);
        let table = fullmesh_vcfree(&net, &nodes).unwrap();
        let c = codes(&net, &table);
        assert!(c.contains(&"W209"), "{c:?}");
        assert!(!c.contains(&"W208"), "{c:?}");
    }

    #[test]
    fn no_certificate_on_cyclic_or_unordered_specs() {
        let (net, nodes) = ring_unidirectional(4);
        let c = codes(&net, &clockwise_ring(&net, &nodes).unwrap());
        assert!(!c.contains(&"W208") && !c.contains(&"W209"), "{c:?}");

        // XY on the mesh is free but neither lane-ordered (one lane)
        // nor down/up (a +x then -y path ascends before descending).
        let mesh = Mesh::new(&[3, 3]);
        let c = codes(mesh.network(), &xy_mesh(&mesh).unwrap());
        assert!(!c.contains(&"W208") && !c.contains(&"W209"), "{c:?}");
    }
}

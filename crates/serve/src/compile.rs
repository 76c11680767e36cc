//! Compile a `wormspec/1` source into a runnable verification job.
//!
//! Compilation has two steps, so that a cache hit pays only for the
//! first:
//!
//! 1. [`key`] parses the source and hashes its canonical text as it is
//!    printed. The [`SpecKey`] is everything a cache lookup needs.
//! 2. [`resolve`] chains the per-crate resolution seams in dependency
//!    order — topology, routing, traffic, faults, then the verify
//!    configuration objects — so a [`CompiledJob`] holds everything the
//!    verdict engines need and no spec-shaped data survives past this
//!    point.
//!
//! [`compile`] runs both. The server looks the key up between them and
//! resolves only on a miss.

use worm_core::classify::ClassifyOptions;
use wormexist::ExistOptions;
use wormfault::FaultPlan;
use wormlint::LintConfig;
use wormnet::spec::BuiltTopology;
use wormroute::TableRouting;
use wormsearch::SearchConfig;
use wormsim::skew::SkewModel;
use wormsim::MessageSpec;
use wormspec::ast::{Spec, VerifyEngine};
use wormspec::diag::{codes, SpecError};

/// Simulation budget when the spec does not set `horizon` in
/// `verify { ... }`.
pub const DEFAULT_HORIZON: u64 = 10_000;

/// A parsed spec and its cache key.
#[derive(Debug)]
pub struct SpecKey {
    /// The parsed (canonical-by-construction) AST.
    pub spec: Spec,
    /// The 16-hex-digit content hash of the canonical text.
    pub hash: String,
}

/// A fully resolved job: the parsed spec plus every engine input.
pub struct CompiledJob {
    /// The parsed (canonical-by-construction) AST.
    pub spec: Spec,
    /// The 16-hex-digit content hash of the canonical text.
    pub hash: String,
    /// The built topology (keeps the typed builder alive for engines
    /// that need coordinates).
    pub topology: BuiltTopology,
    /// The resolved routing relation.
    pub table: TableRouting,
    /// The resolved message list (pattern messages first, explicit
    /// `message` declarations appended).
    pub messages: Vec<MessageSpec>,
    /// The resolved clock-skew model (no-op when the spec has none).
    pub skew: SkewModel,
    /// The resolved fault plan (empty when the spec has no faults).
    pub plan: FaultPlan,
    /// Lint registry configuration.
    pub lint_config: LintConfig,
    /// Classifier options (search fallback, budgets).
    pub classify_options: ClassifyOptions,
    /// Existence-engine budgets (the two-sided routability verdict).
    pub exist_options: ExistOptions,
    /// Exhaustive-search budgets.
    pub search_config: SearchConfig,
    /// `verify { capacity = N flits }` buffer override for the
    /// simulator and search.
    pub capacity: Option<usize>,
    /// `verify { horizon = N cycles }` simulation budget.
    pub horizon: u64,
    /// Which verdict engines to run.
    pub engine: VerifyEngine,
}

impl std::fmt::Debug for CompiledJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledJob")
            .field("hash", &self.hash)
            .field("topology", &self.topology)
            .field("messages", &self.messages.len())
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl CompiledJob {
    /// The network under analysis.
    pub fn network(&self) -> &wormnet::Network {
        self.topology.network()
    }
}

/// Parse and resolve `source` into a [`CompiledJob`]: [`key`], then
/// [`resolve`].
///
/// Every failure is a [`SpecError`] with a span into `source`, whether
/// it came from the parser or from a downstream resolution seam.
pub fn compile(source: &str) -> Result<CompiledJob, SpecError> {
    resolve(key(source)?)
}

/// Parse `source` and hash its canonical text as it is printed (no
/// text is kept).
pub fn key(source: &str) -> Result<SpecKey, SpecError> {
    let spec = wormspec::parse(source)?;
    let hash = wormspec::content_hash_hex(&spec);
    Ok(SpecKey { spec, hash })
}

/// Resolve a parsed spec through every resolution seam into a
/// [`CompiledJob`]. Errors carry spans into the source `key` parsed.
pub fn resolve(key: SpecKey) -> Result<CompiledJob, SpecError> {
    let SpecKey { spec, hash } = key;
    let topology = wormnet::spec::build_topology(&spec.topology)?;
    let table = wormroute::spec::table_from_spec(&spec.routing, &topology)?;
    let (messages, skew) = match &spec.traffic {
        Some(t) => (
            wormsim::spec::messages_from_spec(t, &topology, &table)?,
            wormsim::spec::skew_from_spec(t, &topology)?,
        ),
        None => (Vec::new(), SkewModel::none(topology.network())),
    };
    let plan = match &spec.faults {
        Some(f) => wormfault::spec::plan_from_spec(f, topology.network(), messages.len())?,
        None => FaultPlan::new(),
    };
    let verify = spec.verify.as_ref();
    let lint_config = wormlint::spec::config_from_spec(verify)?;
    let classify_options = worm_core::spec::options_from_spec(verify)?;
    let exist_options = wormexist::spec::options_from_spec(verify)?;
    let search_config = wormsearch::spec::config_from_spec(verify)?;
    let capacity = match verify.and_then(|v| v.capacity.as_ref()) {
        Some(c) => {
            let cap = usize::try_from(c.value.value)
                .map_err(|_| SpecError::new(codes::RANGE, "`capacity` out of range", c.span))?;
            if cap == 0 {
                return Err(SpecError::new(
                    codes::RANGE,
                    "`capacity` must be at least 1 flit",
                    c.span,
                ));
            }
            Some(cap)
        }
        None => None,
    };
    let horizon = verify
        .and_then(|v| v.horizon.as_ref())
        .map(|h| h.value.value)
        .unwrap_or(DEFAULT_HORIZON);
    let engine = verify
        .and_then(|v| v.engine.as_ref().map(|e| e.value))
        .unwrap_or_default();
    Ok(CompiledJob {
        spec,
        hash,
        topology,
        table,
        messages,
        skew,
        plan,
        lint_config,
        classify_options,
        exist_options,
        search_config,
        capacity,
        horizon,
        engine,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_minimal_spec_compiles_end_to_end() {
        let job = compile(
            "wormspec/1\n\
             topology { kind = ring nodes = 4 }\n\
             routing { engine = clockwise_ring }\n",
        )
        .unwrap();
        assert_eq!(job.network().node_count(), 4);
        assert!(job.messages.is_empty());
        assert_eq!(job.plan.len(), 0);
        assert_eq!(job.horizon, DEFAULT_HORIZON);
        assert_eq!(job.engine, VerifyEngine::Static);
        assert_eq!(job.hash.len(), 16);
    }

    #[test]
    fn the_hash_tracks_canonical_text_not_surface_syntax() {
        let a = compile(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n",
        )
        .unwrap();
        let b = compile(
            "wormspec/1\n# a comment\ntopology {\n  nodes = 4\n  kind = ring\n}\nrouting { engine = clockwise_ring }\n",
        )
        .unwrap();
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.hash, wormspec::content_hash_hex(&b.spec));
    }

    #[test]
    fn the_key_is_the_compiled_hash_and_errors_split_by_step() {
        let ring =
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\n";
        assert_eq!(key(ring).unwrap().hash, compile(ring).unwrap().hash);

        // A parse error stops at the key; a resolution error only shows
        // in `resolve`, after a key was computed.
        assert_eq!(
            key("wormspec/1\nnope { }\n").unwrap_err().code,
            codes::UNKNOWN_SECTION
        );
        let unresolvable = "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = table path \"r0\" -> \"r99\" = [c0] }\n";
        let k = key(unresolvable).unwrap();
        assert_eq!(k.hash.len(), 16);
        assert_eq!(resolve(k).unwrap_err().code, codes::RESOLVE);
    }

    #[test]
    fn verify_settings_reach_the_engine_inputs() {
        let job = compile(
            "wormspec/1\n\
             topology { kind = ring nodes = 4 }\n\
             routing { engine = clockwise_ring }\n\
             traffic { pattern = explicit message \"r0\" -> \"r2\" length 2 flits }\n\
             verify { engine = full capacity = 2 flits horizon = 500 cycles }\n",
        )
        .unwrap();
        assert_eq!(job.engine, VerifyEngine::Full);
        assert_eq!(job.capacity, Some(2));
        assert_eq!(job.horizon, 500);
        assert_eq!(job.messages.len(), 1);
    }

    #[test]
    fn downstream_resolution_errors_surface_with_spans() {
        let e = compile(
            "wormspec/1\ntopology { kind = ring nodes = 4 }\nrouting { engine = clockwise_ring }\nverify { capacity = 0 flits }\n",
        )
        .unwrap_err();
        assert_eq!(e.code, codes::RANGE);
    }
}

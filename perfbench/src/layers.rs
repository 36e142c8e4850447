//! Per-layer attribution for the traced run.
//!
//! Each traced operation runs the supervised driver once, then replays
//! the layers it is made of through their public functions, each inside
//! a recorder span: the greedy optimizer as a whole, its SID graph build,
//! cover and forest stages, Hartley CSE on the SEED vector, and the
//! driver's accept gates. Passes come in pairs, the second with the
//! recorder off, so the recorder's own cost shows as the difference.

use std::collections::BTreeMap;
use std::time::Instant;

use mrp_arch::AdderGraph;
use mrp_core::{
    build_forest, select_colors, CoeffSet, ColorGraph, MrpConfig, MrpOptimizer, SeedOptimizer,
    SidEdge,
};
use mrp_numrep::nonzero_digits;
use mrp_ptest::Rng;
use mrp_resilience::SynthConfig;

use crate::calib;
use crate::report::RunResult;
use crate::stats::median;
use crate::trace::Recorder;

/// The tree-walk witnesses of the driver's equivalence gate.
const VERIFY_SAMPLES: [i64; 7] = [-3, -1, 0, 1, 2, 7, 100];

/// Work counts one traced pass gathers beside its spans.
#[derive(Default)]
pub struct PassCounts {
    /// Colors the SID graph builds materialized.
    pub graph_colors: usize,
    /// SID edges the graph builds materialized.
    pub graph_edges: usize,
    /// Colors the covers selected.
    pub cover_colors: usize,
    /// Branch-and-bound nodes expanded.
    pub exact_nodes: usize,
    /// Searches that beat the greedy incumbent.
    pub exact_improved: usize,
    /// Driver outcomes that degraded below their start rung.
    pub degraded: usize,
}

/// Replays the greedy optimizer, its stages, CSE and the accept gates of
/// the driver on `coeffs`, each in its own span; returns the greedy
/// optimizer's adder count.
pub fn replay_layers(
    coeffs: &[i64],
    config: &SynthConfig,
    accepted: &AdderGraph,
    rec: &mut Recorder,
    counts: &mut PassCounts,
) -> Result<usize, String> {
    let mrp = MrpConfig {
        seed_optimizer: SeedOptimizer::Cse,
        exact_node_budget: config.budget.exact_nodes,
        ..config.base
    };
    let optimized = rec
        .span("core.optimize", || MrpOptimizer::new(mrp).optimize(coeffs))
        .map_err(|e| e.to_string())?;
    let set = CoeffSet::new(coeffs).map_err(|e| e.to_string())?;
    let primaries = set.primaries();
    if primaries.len() >= 2 {
        // The optimizer's own shift bound for these primaries.
        let max_shift = mrp.max_shift.unwrap_or_else(|| {
            let max = primaries.iter().copied().max().unwrap_or(1);
            (64 - (max as u64).leading_zeros() + 1).clamp(4, 26)
        });
        let graph = rec.span("core.graph", || {
            ColorGraph::build(primaries, max_shift, mrp.repr)
        });
        counts.graph_colors += graph.color_count();
        counts.graph_edges += (0..graph.color_count())
            .map(|ci| graph.edges_of(ci).len())
            .sum::<usize>();
        let cover = rec.span("core.cover", || select_colors(&graph, primaries, mrp.beta));
        counts.cover_colors += cover.colors.len();
        let cover_edges: Vec<SidEdge> = cover
            .class_indices
            .iter()
            .flat_map(|&ci| graph.edges_of(ci).to_vec())
            .collect();
        let max_depth = mrp.max_depth.unwrap_or(u32::MAX);
        rec.span("core.forest", || {
            build_forest(primaries.len(), &cover_edges, &cover, max_depth, |v| {
                nonzero_digits(primaries[v], mrp.repr)
            })
        });
    }
    let mut seed: Vec<i64> = optimized.seed_roots.clone();
    seed.extend(&optimized.seed_colors);
    seed.sort_unstable();
    seed.dedup();
    rec.span("cse.hartley", || mrp_cse::hartley_cse(&seed));
    let lint = rec.span("lint.gate", || mrp_lint::lint_graph(accepted, &config.lint));
    if lint.has_errors() {
        return Err("accepted netlist fails lint".into());
    }
    let stream = verify_stream();
    let tree = rec.span("arch.verify", || accepted.verify_outputs(&VERIFY_SAMPLES));
    let compiled = rec.span("exec.verify", || {
        mrp_exec::verify_block_compiled(accepted, &stream)
    });
    if tree.is_some() || compiled.is_some() {
        return Err("accepted netlist fails re-simulation".into());
    }
    Ok(optimized.graph.adder_count())
}

/// The driver's 256-sample compiled re-simulation stream.
fn verify_stream() -> Vec<i64> {
    let mut stream = VERIFY_SAMPLES.to_vec();
    let mut rng = Rng::new(0x5EED_51D0);
    while stream.len() < 256 {
        stream.push(rng.i64_in(-1000, 1000));
    }
    stream
}

/// What the traced passes of a run gathered.
pub struct Traced {
    /// Every recorded span.
    pub rec: Recorder,
    /// Per recorded pass: total milliseconds per span name, scaled.
    pub per_pass: Vec<BTreeMap<&'static str, f64>>,
    /// Work counts of the first recorded pass.
    pub counts: PassCounts,
    /// Scaled seconds of each recorded pass.
    pub on_s: Vec<f64>,
    /// Scaled seconds of each unrecorded pass.
    pub off_s: Vec<f64>,
}

impl Traced {
    /// Median over recorded passes of the milliseconds spent in `name`.
    pub fn layer_ms(&self, name: &str) -> f64 {
        let values: Vec<f64> = self
            .per_pass
            .iter()
            .map(|m| *m.get(name).unwrap_or(&0.0))
            .collect();
        median(&values).unwrap_or(0.0)
    }
}

/// Runs passes in pairs, recorded then unrecorded, until `seconds` have
/// passed and at least two pairs ran. `pass` runs one pass, adding to the
/// counts and pushing one reference slice per operation; its flag says
/// whether the pass is recorded (the first of a pair).
pub fn traced_passes(
    seconds: f64,
    mut pass: impl FnMut(&mut Recorder, &mut PassCounts, &mut Vec<f64>, bool),
) -> Traced {
    let mut traced = Traced {
        rec: Recorder::new(true),
        per_pass: Vec::new(),
        counts: PassCounts::default(),
        on_s: Vec::new(),
        off_s: Vec::new(),
    };
    let start = Instant::now();
    while traced.on_s.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        for recording in [true, false] {
            traced.rec.set_enabled(recording);
            let mut counts = PassCounts::default();
            let mut slices = Vec::new();
            let pass_start = Instant::now();
            let root = traced.rec.begin("pass");
            pass(&mut traced.rec, &mut counts, &mut slices, recording);
            traced.rec.end(root);
            let wall = pass_start.elapsed().as_secs_f64() - slices.iter().sum::<f64>();
            let scaled = calib::scale_by(wall, &slices);
            match root {
                Some(root) => {
                    traced.on_s.push(scaled);
                    let totals = traced.rec.totals(Some(root));
                    traced.per_pass.push(
                        totals
                            .into_iter()
                            .map(|(name, t)| {
                                (name, calib::scale_by(t.total_ns as f64 / 1e6, &slices))
                            })
                            .collect(),
                    );
                    if traced.per_pass.len() == 1 {
                        traced.counts = counts;
                    }
                }
                None => traced.off_s.push(scaled),
            }
        }
    }
    traced
}

/// Pushes the synthesis-side per-layer metrics and the recorder's cost.
pub fn push_layer_metrics(result: &mut RunResult, t: &Traced) {
    let c = &t.counts;
    result.push("core.graph_ms", t.layer_ms("core.graph"), "ms");
    result.push("core.graph_colors", c.graph_colors as f64, "count");
    result.push("core.graph_edges", c.graph_edges as f64, "count");
    result.push("core.cover_ms", t.layer_ms("core.cover"), "ms");
    result.push("core.cover_colors", c.cover_colors as f64, "count");
    result.push("core.forest_ms", t.layer_ms("core.forest"), "ms");
    result.push("core.optimize_ms", t.layer_ms("core.optimize"), "ms");
    result.push("cse.hartley_ms", t.layer_ms("cse.hartley"), "ms");
    result.push("lint.gate_ms", t.layer_ms("lint.gate"), "ms");
    result.push("arch.verify_ms", t.layer_ms("arch.verify"), "ms");
    result.push("exec.verify_ms", t.layer_ms("exec.verify"), "ms");
    let overhead: Vec<f64> = t
        .per_pass
        .iter()
        .map(|m| {
            let get = |n: &str| *m.get(n).unwrap_or(&0.0);
            get("resilience.synth")
                - get("core.optimize")
                - get("exact.mcm")
                - get("lint.gate")
                - get("arch.verify")
                - get("exec.verify")
        })
        .collect();
    result.push("resilience.synth_ms", t.layer_ms("resilience.synth"), "ms");
    result.push(
        "resilience.overhead_ms",
        median(&overhead).unwrap_or(0.0),
        "ms",
    );
    result.push("resilience.degraded", c.degraded as f64, "count");
    let mcm_ms = t.layer_ms("exact.mcm");
    result.push("exact.mcm_ms", mcm_ms, "ms");
    result.push("exact.nodes", c.exact_nodes as f64, "count");
    let per_node = if c.exact_nodes == 0 {
        0.0
    } else {
        mcm_ms * 1e3 / c.exact_nodes as f64
    };
    result.push("exact.us_per_node", per_node, "us");
    result.push("exact.improved", c.exact_improved as f64, "count");
    result.push(
        "obs.trace_overhead_ms",
        (median(&t.on_s).unwrap_or(0.0) - median(&t.off_s).unwrap_or(0.0)) * 1e3,
        "ms",
    );
}

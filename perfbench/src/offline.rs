//! The offline workloads: `grid-greedy` and `exact-w12`.
//!
//! Both synthesize on one thread, cold, in whole passes over their cells
//! (a seeded order per pass), until the run's time is spent. The
//! untraced run times each `synthesize` call; the traced run also
//! replays the stage functions on each cell inside recorder spans.

use std::time::Instant;

use mrp_core::{realize_cse, realize_simple};
use mrp_exact::{solve_mcm, McmConfig, McmProblem};
use mrp_numrep::Repr;
use mrp_ptest::Rng;
use mrp_resilience::{synthesize, Rung, SynthConfig, SynthOutcome};

use crate::calib;
use crate::grid::{paper_grid, Cell, WORDLENGTHS};
use crate::layers::{push_layer_metrics, replay_layers, traced_passes, PassCounts};
use crate::oracle::{check_exact, check_greedy, check_netlist, root_lower_bound};
use crate::report::{peak_rss_mb, RunResult};
use crate::stats::{group_quantile, median};
use crate::trace::Recorder;
use crate::zipf::shuffle;
use crate::{time_setup, Options};

/// Node cap of the exact workload's branch-and-bound (the summary bench's).
pub const EXACT_NODE_CAP: usize = 4_000;

/// Which offline workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offline {
    /// 96 grid cells through the default driver.
    GridGreedy,
    /// The 24 W = 12 cells through the exact rung.
    ExactW12,
}

impl Offline {
    fn wordlengths(self) -> &'static [u32] {
        match self {
            Offline::GridGreedy => &WORDLENGTHS,
            Offline::ExactW12 => &[12],
        }
    }

    /// The supervised-driver configuration of the workload: no deadline,
    /// so every outcome is deterministic.
    pub fn config(self) -> SynthConfig {
        let mut config = SynthConfig::default();
        if self == Offline::ExactW12 {
            config.start_rung = Rung::Exact;
            config.budget.mcm_nodes = EXACT_NODE_CAP;
        }
        config
    }
}

/// Per-cell facts the checks compare against, computed before timing.
struct Reference {
    /// Flat CSE adders (greedy) or greedy MRP+CSE adders (exact).
    cse_or_greedy: usize,
    /// Flat SPT adders (greedy workload only).
    simple: usize,
    /// Root lower bound of the MCM search.
    lower_bound: usize,
}

fn reference(workload: Offline, cell: &Cell) -> Result<Reference, String> {
    let coeffs = &cell.coeffs;
    let name = cell.name();
    let lower_bound = root_lower_bound(coeffs).map_err(|e| format!("{name}: {e}"))?;
    Ok(match workload {
        Offline::GridGreedy => Reference {
            cse_or_greedy: realize_cse(coeffs)
                .map_err(|e| format!("{name}: {e}"))?
                .adder_count(),
            simple: realize_simple(coeffs, Repr::Spt)
                .map_err(|e| format!("{name}: {e}"))?
                .adder_count(),
            lower_bound,
        },
        Offline::ExactW12 => Reference {
            cse_or_greedy: synthesize(coeffs, &SynthConfig::default())
                .map_err(|e| format!("{name}: {e}"))?
                .adders(),
            simple: 0,
            lower_bound,
        },
    })
}

/// What one synthesized cell contributes to a pass.
struct CellResult {
    adders: usize,
    proven: bool,
}

/// Checks one outcome against the oracle and the method's properties.
fn check_outcome(
    workload: Offline,
    cell: &Cell,
    reference: &Reference,
    outcome: &Result<SynthOutcome, mrp_resilience::PipelineError>,
) -> Result<CellResult, String> {
    let out = outcome
        .as_ref()
        .map_err(|e| format!("synthesis failed: {e}"))?;
    check_netlist(&out.graph, &cell.coeffs)?;
    let adders = out.adders();
    if out.graph.adder_count() != adders {
        return Err("outcome adders disagree with its netlist".into());
    }
    match workload {
        Offline::GridGreedy => {
            check_greedy(
                out.rung.name(),
                adders,
                reference.cse_or_greedy,
                reference.simple,
            )?;
            Ok(CellResult {
                adders,
                proven: adders <= reference.lower_bound,
            })
        }
        Offline::ExactW12 => {
            let stats = out
                .attempts
                .last()
                .and_then(|a| a.exact)
                .ok_or("exact rung reported no search statistics")?;
            check_exact(
                out.rung.name(),
                adders,
                stats.lower_bound,
                reference.cse_or_greedy,
            )?;
            Ok(CellResult {
                adders,
                proven: stats.proven_optimal,
            })
        }
    }
}

/// Runs an offline workload.
pub fn run(workload: Offline, opts: &Options) -> Result<RunResult, String> {
    let (setup_s, cells) = time_setup(|| paper_grid(workload.wordlengths()))?;
    let references: Vec<Reference> = cells
        .iter()
        .map(|c| reference(workload, c))
        .collect::<Result<_, _>>()?;
    let config = workload.config();
    let mut result = RunResult::default();
    let mut rng = Rng::new(opts.seed);
    // Whole passes; enough of them that the p90 has ten samples beyond it.
    let min_passes = 110usize.div_ceil(cells.len()).max(2);
    if opts.trace {
        traced(
            workload,
            opts,
            &cells,
            &references,
            &config,
            &mut rng,
            &mut result,
        )?;
        return Ok(result);
    }
    let mut order: Vec<usize> = (0..cells.len()).collect();
    // Per synthesize call, in run order: its cell, its wall time and the
    // reference slice that ran right after it.
    let (mut call_cell, mut call_s, mut slices) = (Vec::new(), Vec::new(), Vec::new());
    let mut pass_totals: Vec<(usize, usize)> = Vec::new();
    let start = Instant::now();
    while pass_totals.len() < min_passes || start.elapsed().as_secs_f64() < opts.seconds {
        shuffle(&mut order, &mut rng);
        let (mut adders, mut proven) = (0, 0);
        for &i in &order {
            let cell = &cells[i];
            let t = Instant::now();
            let outcome = synthesize(&cell.coeffs, &config);
            call_s.push(t.elapsed().as_secs_f64());
            call_cell.push(i);
            let verdict = check_outcome(workload, cell, &references[i], &outcome);
            if let Ok(r) = &verdict {
                adders += r.adders;
                proven += usize::from(r.proven);
            }
            result.check(&cell.name(), verdict.map(|_| ()));
            slices.push(calib::slice());
        }
        pass_totals.push((adders, proven));
    }
    let (adders, proven) = pass_totals[0];
    if pass_totals.iter().any(|&t| t != (adders, proven)) {
        return Err(format!("passes disagree on their totals: {pass_totals:?}"));
    }
    let scaled_ms: Vec<f64> = calib::scale(&call_s, &slices)
        .iter()
        .map(|s| s * 1e3)
        .collect();
    let pass_ms = |ms: &[f64]| -> f64 {
        let sums: Vec<f64> = ms.chunks(cells.len()).map(|c| c.iter().sum()).collect();
        median(&sums).expect("at least one pass")
    };
    let raw_ms: Vec<f64> = call_s.iter().map(|s| s * 1e3).collect();
    let by_cell = |ms: &[f64]| -> Vec<Vec<f64>> {
        let mut groups = vec![Vec::new(); cells.len()];
        for (&cell, &v) in call_cell.iter().zip(ms) {
            groups[cell].push(v);
        }
        groups
    };
    let (scaled_cells, raw_cells) = (by_cell(&scaled_ms), by_cell(&raw_ms));
    result.push("setup_s", setup_s, "s");
    result.push(
        "filters_per_s",
        cells.len() as f64 * 1e3 / pass_ms(&scaled_ms),
        "1/s",
    );
    // `min_passes` makes both percentiles formable; a missing one must
    // not read as a fast one.
    let percentile = |groups: &[Vec<f64>], q: f64| {
        group_quantile(groups, q)
            .ok_or_else(|| format!("too few samples to form the p{}", q * 100.0))
    };
    result.push("latency_p50_ms", percentile(&scaled_cells, 0.5)?, "ms");
    result.push("latency_p90_ms", percentile(&scaled_cells, 0.9)?, "ms");
    result.push("adders_total", adders as f64, "count");
    result.push("proven_optimal", proven as f64, "count");
    result.notes.push(format!(
        "{} passes over {} cells; median slice {:.3} ms; raw wall: pass {:.3} s, \
         {:.1} filters/s, p50 {:.3} ms, p90 {:.3} ms",
        pass_totals.len(),
        cells.len(),
        median(&slices).unwrap_or(0.0) * 1e3,
        pass_ms(&raw_ms) / 1e3,
        cells.len() as f64 * 1e3 / pass_ms(&raw_ms),
        percentile(&raw_cells, 0.5)?,
        percentile(&raw_cells, 0.9)?,
    ));
    Ok(result)
}

/// Synthesizes one cell and replays its stages inside spans.
fn replay_cell(
    workload: Offline,
    cell: &Cell,
    reference: &Reference,
    config: &SynthConfig,
    rec: &mut Recorder,
    counts: &mut PassCounts,
) -> Result<(), String> {
    let outcome = rec.span("resilience.synth", || synthesize(&cell.coeffs, config));
    check_outcome(workload, cell, reference, &outcome)?;
    let out = outcome.map_err(|e| e.to_string())?;
    counts.degraded += usize::from(out.degraded());
    let incumbent = replay_layers(&cell.coeffs, config, &out.graph, rec, counts)?;
    if workload == Offline::ExactW12 {
        let problem = McmProblem::from_coeffs(&cell.coeffs).map_err(|e| e.to_string())?;
        let mcm = McmConfig {
            node_cap: config.budget.mcm_nodes,
            incumbent: Some(incumbent),
            ..McmConfig::default()
        };
        let found = rec.span("exact.mcm", || solve_mcm(&problem, &mcm));
        counts.exact_nodes += found.nodes_expanded;
        counts.exact_improved += usize::from(found.solution.is_some());
    }
    Ok(())
}

/// The traced run: per-layer figures from recorded passes over the cells.
fn traced(
    workload: Offline,
    opts: &Options,
    cells: &[Cell],
    references: &[Reference],
    config: &SynthConfig,
    rng: &mut Rng,
    result: &mut RunResult,
) -> Result<(), String> {
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let traced = traced_passes(opts.seconds, |rec, counts, slices, recording| {
        if recording {
            shuffle(&mut order, rng);
        }
        for &i in &order {
            let verdict = replay_cell(workload, &cells[i], &references[i], config, rec, counts);
            result.check(&cells[i].name(), verdict);
            slices.push(calib::slice());
        }
    });
    push_layer_metrics(result, &traced);
    result.push("mem.peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MiB");
    crate::serve::push_absent_serve_metrics(result);
    result.notes.push(format!(
        "{} recorded + {} unrecorded passes over {} cells; per-layer figures are per pass",
        traced.on_s.len(),
        traced.off_s.len(),
        cells.len()
    ));
    result.notes.push(traced.rec.render_table());
    crate::write_trace(opts, &traced.rec)
}

//! Correctness checks made apart from the program under test.
//!
//! A shift-add block computes `c·x` for every output, integer-linearly in
//! `x`. Evaluating its nodes once at `x = 1` in `i128` therefore yields
//! every output's constant exactly, and comparing those constants with
//! the requested coefficients proves the block correct for every input.
//! A zero tap is the one exception: the netlist IR declares it with an
//! output whose `expected` is 0, which every evaluator and the Verilog
//! emitter tie to constant 0 whatever its placeholder term reads.

use mrp_arch::{AdderGraph, Node, Term};
use mrp_exact::{solve_mcm, McmConfig, McmProblem};

/// Node values of `graph` at `x = 1`, in `i128`.
pub fn node_values(graph: &AdderGraph) -> Result<Vec<i128>, String> {
    let mut values: Vec<i128> = Vec::with_capacity(graph.nodes().len());
    for (i, node) in graph.nodes().iter().enumerate() {
        let value = match *node {
            Node::Input => 1,
            Node::Add { lhs, rhs } => {
                let a = term_value(&values, lhs).ok_or(format!("node {i}: bad left operand"))?;
                let b = term_value(&values, rhs).ok_or(format!("node {i}: bad right operand"))?;
                a.checked_add(b).ok_or(format!("node {i} overflows i128"))?
            }
        };
        values.push(value);
    }
    Ok(values)
}

/// The value a term reads from earlier nodes, or `None` when it points
/// forward or overflows.
fn term_value(values: &[i128], term: Term) -> Option<i128> {
    let base = *values.get(term.node.index())?;
    let shifted = base.checked_mul(1i128.checked_shl(term.shift).filter(|&m| m > 0)?)?;
    Some(if term.negate { -shifted } else { shifted })
}

/// Proves that `graph`'s outputs, in order, multiply `x` by exactly
/// `coeffs`.
pub fn check_netlist(graph: &AdderGraph, coeffs: &[i64]) -> Result<(), String> {
    let values = node_values(graph)?;
    let outputs = graph.outputs();
    if outputs.len() != coeffs.len() {
        return Err(format!(
            "{} outputs for {} coefficients",
            outputs.len(),
            coeffs.len()
        ));
    }
    for (i, (output, &want)) in outputs.iter().zip(coeffs).enumerate() {
        if output.expected != want {
            return Err(format!(
                "output {i} is declared {}·x, want {want}·x",
                output.expected
            ));
        }
        if want == 0 {
            continue;
        }
        let got = term_value(&values, output.term).ok_or(format!("output {i}: bad term"))?;
        if got != i128::from(want) {
            return Err(format!("output {i} computes {got}·x, want {want}·x"));
        }
    }
    Ok(())
}

/// The MCM search's admissible root lower bound on the adders of any
/// block for `coeffs`: a result that meets it is proven optimal.
pub fn root_lower_bound(coeffs: &[i64]) -> Result<usize, String> {
    let problem = McmProblem::from_coeffs(coeffs).map_err(|e| e.to_string())?;
    let root = McmConfig {
        node_cap: 1,
        ..McmConfig::default()
    };
    Ok(solve_mcm(&problem, &root).lower_bound)
}

/// The §4 profitability guard in numbers: a greedy MRP+CSE result never
/// costs more adders than either flat realization of the same taps.
pub fn check_greedy(rung: &str, adders: usize, cse: usize, simple: usize) -> Result<(), String> {
    if rung != "mrp+cse" {
        return Err(format!("landed on rung `{rung}`, want `mrp+cse`"));
    }
    if adders > cse || adders > simple {
        return Err(format!(
            "{adders} adders, more than CSE ({cse}) or SPT ({simple})"
        ));
    }
    Ok(())
}

/// The exact rung brackets its answer: `lower_bound ≤ adders ≤ greedy`.
pub fn check_exact(
    rung: &str,
    adders: usize,
    lower_bound: usize,
    greedy: usize,
) -> Result<(), String> {
    if rung != "exact" {
        return Err(format!("landed on rung `{rung}`, want `exact`"));
    }
    if lower_bound > adders || adders > greedy {
        return Err(format!(
            "{adders} adders outside [lower bound {lower_bound}, greedy {greedy}]"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_resilience::{synthesize, SynthConfig};

    const PAPER: [i64; 8] = [70, 66, 17, 9, 27, 41, 56, 11];

    #[test]
    fn accepts_the_synthesized_block() {
        let out = synthesize(&PAPER, &SynthConfig::default()).unwrap();
        assert_eq!(check_netlist(&out.graph, &PAPER), Ok(()));
    }

    #[test]
    fn rejects_a_netlist_checked_against_the_wrong_coefficients() {
        let out = synthesize(&PAPER, &SynthConfig::default()).unwrap();
        let mut wrong = PAPER;
        wrong[3] += 2;
        let err = check_netlist(&out.graph, &wrong).unwrap_err();
        assert!(err.contains("output 3"), "{err}");
        assert!(check_netlist(&out.graph, &PAPER[..7]).is_err());
    }

    #[test]
    fn evaluates_shifts_negations_and_zero_taps() {
        let mut g = AdderGraph::new();
        let x = g.input();
        let seven = g.add(Term::shifted(x, 3), Term::negated(x)).unwrap();
        let wide = g.add(Term::shifted(seven, 60), Term::of(x)).unwrap();
        let values = node_values(&g).unwrap();
        assert_eq!(values[seven.index()], 7);
        assert_eq!(values[wide.index()], (7i128 << 60) + 1);
        g.push_output("c0", Term::negated_shifted(seven, 2), -28);
        g.push_output("c1", Term::of(x), 0);
        assert_eq!(check_netlist(&g, &[-28, 0]), Ok(()));
        assert!(
            check_netlist(&g, &[-28, 1]).is_err(),
            "a zero tap never reads x"
        );
        assert!(check_netlist(&g, &[28, 0]).is_err());
        // Declared right, wired wrong: only the evaluation can tell.
        g.push_output("c2", Term::of(seven), 9);
        let err = check_netlist(&g, &[-28, 0, 9]).unwrap_err();
        assert!(err.contains("computes 7"), "{err}");
    }

    #[test]
    fn greedy_properties_fire_on_a_doctored_outcome() {
        assert_eq!(check_greedy("mrp+cse", 10, 12, 15), Ok(()));
        assert!(check_greedy("mrp", 10, 12, 15).is_err());
        assert!(check_greedy("mrp+cse", 13, 12, 15).is_err());
        assert!(check_greedy("mrp+cse", 16, 20, 15).is_err());
    }

    #[test]
    fn exact_properties_fire_on_a_doctored_outcome() {
        assert_eq!(check_exact("exact", 9, 8, 10), Ok(()));
        assert!(check_exact("mrp+cse", 9, 8, 10).is_err());
        assert!(check_exact("exact", 7, 8, 10).is_err());
        assert!(check_exact("exact", 11, 8, 10).is_err());
    }
}

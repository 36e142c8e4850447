//! The paper's experiment grid: the 12 Table 1 filters, quantized at
//! W ∈ {8, 12, 16, 20} under uniform and maximal scaling (Figs. 6–8).

use mrp_filters::example_filters;
use mrp_numrep::{quantize, Scaling};

/// Every wordlength the paper sweeps.
pub const WORDLENGTHS: [u32; 4] = [8, 12, 16, 20];

/// One quantized coefficient set of the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// 1-based Table 1 example number.
    pub example: usize,
    /// Coefficient wordlength.
    pub wordlength: u32,
    /// Scaling policy.
    pub scaling: Scaling,
    /// Quantized integer taps.
    pub coeffs: Vec<i64>,
}

impl Cell {
    /// Stable name such as `ex7-w12-maximal`.
    pub fn name(&self) -> String {
        let scaling = match self.scaling {
            Scaling::Uniform => "uniform",
            Scaling::Maximal => "maximal",
        };
        format!("ex{}-w{}-{scaling}", self.example, self.wordlength)
    }
}

/// Designs the 12 filters and quantizes each at every wordlength in
/// `wordlengths` under both scalings, example-major.
pub fn paper_grid(wordlengths: &[u32]) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for filter in example_filters() {
        let taps = filter
            .design()
            .map_err(|e| format!("example {} does not design: {e}", filter.index))?;
        for &wordlength in wordlengths {
            for scaling in [Scaling::Uniform, Scaling::Maximal] {
                let coeffs = quantize(&taps, wordlength, scaling)
                    .map_err(|e| format!("example {} does not quantize: {e}", filter.index))?
                    .values;
                cells.push(Cell {
                    example: filter.index,
                    wordlength,
                    scaling,
                    coeffs,
                });
            }
        }
    }
    Ok(cells)
}

/// The coefficient sets of `cells` as a batch spec document.
pub fn spec_document(cells: &[&Cell]) -> String {
    let filters: Vec<String> = cells
        .iter()
        .map(|c| {
            let coeffs: Vec<String> = c.coeffs.iter().map(i64::to_string).collect();
            format!(
                "{{\"name\":\"{}\",\"coeffs\":[{}]}}",
                c.name(),
                coeffs.join(",")
            )
        })
        .collect();
    format!("{{\"filters\":[{}]}}", filters.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_paper_sweep() {
        let grid = paper_grid(&WORDLENGTHS).unwrap();
        assert_eq!(grid.len(), 96);
        let taps: Vec<usize> = grid.iter().map(|c| c.coeffs.len()).collect();
        assert_eq!(taps.iter().min(), Some(&17));
        assert_eq!(taps.iter().max(), Some(&151));
        let names: std::collections::BTreeSet<String> = grid.iter().map(Cell::name).collect();
        assert_eq!(names.len(), 96);
        let doc = spec_document(&[&grid[0]]);
        assert_eq!(
            mrp_batch::parse_specs(&doc).unwrap()[0].coeffs,
            grid[0].coeffs
        );
    }
}

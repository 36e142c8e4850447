//! Host-speed calibration.
//!
//! On a shared VM the same single-thread pass over the grid takes
//! 1.6–2.5 s from minute to minute: a busy neighbour on the same physical
//! core slows every instruction, and thread CPU time tracks wall time, so
//! no clock can tell the program's cost from the host's state. The
//! benchmark therefore runs a short fixed reference computation (a
//! *slice*) right after every timed operation, on the same thread, and
//! scales each operation's time by how long the slices around it took
//! against [`REFERENCE_SLICE_S`]. A time so scaled reads as the wall time
//! the operation would have taken on a host where one slice takes 0.5 ms;
//! raw wall times are printed beside the result for comparison.

use std::collections::HashMap;
use std::time::Instant;

use crate::stats::median;

/// The slice time that scaled figures are expressed at.
pub const REFERENCE_SLICE_S: f64 = 0.5e-3;

/// Slices on each side of an operation whose median sets its scale.
const WINDOW: usize = 8;

/// One slice of the reference computation: the shift-inclusive
/// differences of a fixed odd vector grouped in a hash map, the same kind
/// of work as the SID graph build. Returns its wall time in seconds.
pub fn slice() -> f64 {
    let start = Instant::now();
    let values: Vec<i64> = (0..24).map(|i| 2 * (i * i * 37 % 1021) + 1).collect();
    let mut groups: HashMap<i64, Vec<(usize, usize)>> = HashMap::new();
    for (i, &a) in values.iter().enumerate() {
        for (j, &b) in values.iter().enumerate() {
            if i == j {
                continue;
            }
            for l in 0..12 {
                let d = b - (a << l);
                let odd = d >> d.trailing_zeros().min(62);
                groups.entry(odd).or_default().push((i, j));
            }
        }
    }
    std::hint::black_box(groups.len());
    start.elapsed().as_secs_f64()
}

/// Scales `values[i]` by `REFERENCE_SLICE_S / m`, where `m` is the median
/// of the slices within [`WINDOW`] places of `i` (`slices[i]` ran right
/// after `values[i]`).
pub fn scale(values: &[f64], slices: &[f64]) -> Vec<f64> {
    assert_eq!(values.len(), slices.len(), "one slice per value");
    (0..values.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(slices.len());
            let m = median(&slices[lo..hi]).expect("window holds value i");
            values[i] * REFERENCE_SLICE_S / m
        })
        .collect()
}

/// Scales one value by the median of `slices`.
pub fn scale_by(value: f64, slices: &[f64]) -> f64 {
    match median(slices) {
        Some(m) if m > 0.0 => value * REFERENCE_SLICE_S / m,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_tracks_the_slices_and_shrugs_off_one_outlier() {
        let values = vec![2.0; 40];
        let mut slices = vec![REFERENCE_SLICE_S; 40];
        assert_eq!(scale(&values, &slices), values);
        // A host at half speed: slices and values both take twice as long.
        let slow: Vec<f64> = slices.iter().map(|s| 2.0 * s).collect();
        let doubled: Vec<f64> = values.iter().map(|v| 2.0 * v).collect();
        assert_eq!(scale(&doubled, &slow), values);
        slices[20] *= 50.0;
        assert_eq!(scale(&values, &slices), values);
        assert_eq!(scale_by(3.0, &[REFERENCE_SLICE_S * 3.0]), 1.0);
    }

    #[test]
    fn a_slice_takes_measurable_time() {
        assert!(slice() > 0.0);
    }
}

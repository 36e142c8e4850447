//! `perfbench`: the end-to-end and per-layer benchmark of the mrpf
//! workspace. See `README.md` beside this crate for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! perfbench --workload grid-greedy|exact-w12|serve-zipf --seed N --seconds S
//!           --trace 0|1 [--mrpf PATH] [--out-dir DIR]
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Everything else goes
//! to standard error.

mod calib;
mod grid;
mod http;
mod layers;
mod load;
mod offline;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;
mod zipf;

use std::process::ExitCode;
use std::time::Instant;

use offline::Offline;
use report::RunResult;

/// How many times a run repeats its set-up; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Reference slices after each set-up repetition, to scale its time.
const SETUP_SLICES: usize = 9;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of every input drawn at random.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The `mrpf` binary `serve-zipf` starts.
    pub mrpf: String,
    /// Where the traced run writes its spans.
    pub out_dir: String,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        mrpf: "mrpf".to_string(),
        out_dir: ".bench_out".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--mrpf" => opts.mrpf = value,
            "--out-dir" => opts.out_dir = value,
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(opts)
}

/// Runs `setup` [`SETUP_REPS`] times; returns the median time in seconds,
/// each repetition scaled by the reference slices run after it, and the
/// last repetition's value.
pub fn time_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let value = setup()?;
        let wall = start.elapsed().as_secs_f64();
        let slices: Vec<f64> = (0..SETUP_SLICES).map(|_| calib::slice()).collect();
        seconds.push(calib::scale_by(wall, &slices));
        last = Some(value);
    }
    let median = stats::median(&seconds).expect("at least one repetition");
    Ok((median, last.expect("at least one repetition")))
}

/// Writes the traced run's spans as a Chrome trace into the output
/// directory.
pub fn write_trace(opts: &Options, rec: &trace::Recorder) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("{}: {e}", opts.out_dir))?;
    let path = format!("{}/trace-{}.json", opts.out_dir, opts.workload);
    std::fs::write(&path, rec.render_chrome()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("perfbench: {} spans written to {path}", rec.spans().len());
    Ok(())
}

fn run(opts: &Options) -> Result<RunResult, String> {
    match opts.workload.as_str() {
        "grid-greedy" => offline::run(Offline::GridGreedy, opts),
        "exact-w12" => offline::run(Offline::ExactW12, opts),
        "serve-zipf" => serve::run(opts),
        other => Err(format!(
            "unknown workload `{other}` (grid-greedy, exact-w12, serve-zipf)"
        )),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(result) => {
            for note in &result.notes {
                eprintln!("{}", note.trim_end());
            }
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_driver_command_line() {
        let args: Vec<String> = "--workload exact-w12 --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let opts = parse_args(&args).unwrap();
        assert_eq!(opts.workload, "exact-w12");
        assert_eq!(opts.seed, 7);
        assert!(opts.trace);
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into()]).is_err());
    }
}

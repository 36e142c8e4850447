//! The `serve-zipf` workload: a live `mrpf serve` driven over HTTP.
//!
//! Set-up designs the grid, starts the server (memory tier, one pool
//! worker, a deadline far above any grid cell's synthesis time) and
//! probes `/healthz`. Before timing, an offline `run_batch_on` over the
//! grid gives the oracle, and every cell goes once through `/batch`, one
//! request at a time, whose bytes must match it; these first sights fill
//! the memo cache, so every later `/batch` of a cell is a hit. Phase 1 is
//! an open loop at a fixed rate below saturation, phase 2 a closed loop
//! with one connection per core. Keys are Zipf rounds over the grid's
//! cells.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrp_batch::{
    parse_json, run_batch_on, BatchCell, BatchOptions, BatchSpec, JsonValue, MemoCache, ThreadPool,
};
use mrp_ptest::Rng;
use mrp_resilience::{synthesize, SynthConfig};

use crate::calib;
use crate::grid::{paper_grid, spec_document, Cell, WORDLENGTHS};
use crate::http::{request, Response};
use crate::layers::{push_layer_metrics, replay_layers, traced_passes};
use crate::load::{closed_loop, open_loop, schedule, Route};
use crate::oracle::{check_netlist, root_lower_bound};
use crate::report::{peak_rss_mb, RunResult};
use crate::stats::{beyond, median, quantile, tail_quantile};
use crate::zipf::Zipf;
use crate::{time_setup, write_trace, Options};

/// Per-request deadline of the server: generous, so nothing degrades.
pub const DEADLINE_MS: u64 = 30_000;
/// Zipf exponent of key popularity. An assumption: no request trace of
/// `mrpf serve` exists to measure it from, so this is the classic Zipf
/// law.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Seed of the rank shuffle. Fixed, so the same cells are popular in
/// every run and the seed only reorders the requests.
pub const RANK_SEED: u64 = 0x5EED_21FF;
/// Requests per round.
pub const ROUND_LEN: usize = 100;
/// `/synth` requests per round, the rest going to `/batch`: 70 %, the
/// route mix of `mrpf load` (its `--synth-pct` default).
pub const SYNTH_PER_ROUND: usize = 70;
/// Phase 1 arrival rate, requests per second: `mrpf load`'s `--rate`
/// default.
pub const RATE: f64 = 20.0;
/// Share of the run's seconds given to phase 1.
const OPEN_SHARE: f64 = 0.75;
/// Share of the run's seconds the traced run spends replaying layers.
const REPLAY_SHARE: f64 = 0.5;
/// Reference slices between two closed-loop rounds.
const ROUND_SLICES: usize = 9;

const TIMEOUT: Duration = Duration::from_secs(120);
/// How often a traced run reads the server's recent-request ring.
const RING_POLL: Duration = Duration::from_secs(1);

/// A running `mrpf serve`; dropping it kills the process and waits.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    fn start(mrpf: &str) -> Result<ServerProc, String> {
        let mut child = Command::new(mrpf)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
            .args(["--deadline-ms", &DEADLINE_MS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start `{mrpf} serve`: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("reading the server banner: {e}"))?;
        // "mrpf serve: listening on http://127.0.0.1:PORT (jobs 1, …"
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner `{}`", line.trim()))?;
        Ok(server)
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn get_json(addr: SocketAddr, path: &str) -> Result<JsonValue, String> {
    let r = request(addr, "GET", path, "", TIMEOUT)?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    parse_json(&r.body).map_err(|e| format!("GET {path}: {e}"))
}

/// The number at `path` inside `doc`, if there is one.
fn num_at(doc: &JsonValue, path: &[&str]) -> Option<f64> {
    let mut at = doc;
    for key in path {
        at = at.as_object()?.get(*key)?;
    }
    match at {
        JsonValue::Number(n) => Some(*n),
        _ => None,
    }
}

/// The number at `path` inside `doc`, or 0.
fn num(doc: &JsonValue, path: &[&str]) -> f64 {
    num_at(doc, path).unwrap_or(0.0)
}

/// The request path of a `/statusz` ring record.
fn path_of(record: &JsonValue) -> Option<&str> {
    record.as_object()?.get("path")?.as_str()
}

/// Collects `/statusz`'s ring of recent requests by ID, polling often
/// enough that the ring (64 records) cannot wrap between polls at the
/// phase-1 rate, until `done` is set; then polls once more.
fn poll_recent(addr: SocketAddr, done: &AtomicBool) -> BTreeMap<u64, JsonValue> {
    let mut records = BTreeMap::new();
    loop {
        let last = done.load(Ordering::SeqCst);
        let doc = get_json(addr, "/statusz").ok();
        let ring = doc
            .as_ref()
            .and_then(|d| d.as_object()?.get("recent")?.as_array());
        for record in ring.unwrap_or_default() {
            if let Some(id) = num_at(record, &["id"]) {
                records.insert(id as u64, record.clone());
            }
        }
        if last {
            return records;
        }
        let next = Instant::now() + RING_POLL;
        while Instant::now() < next && !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// What the checks compare served responses with.
struct Oracle {
    /// Offline report bytes of each one-cell document.
    single: Vec<String>,
    /// Offline result per cell.
    cells: Vec<BatchCell>,
    /// Root lower bound of the MCM search per cell.
    lower_bounds: Vec<usize>,
}

fn oracle(cells: &[Cell], config: &SynthConfig) -> Result<Oracle, String> {
    let options = BatchOptions {
        jobs: 1,
        racing: false,
        synth: config.clone(),
    };
    let pool = Arc::new(ThreadPool::new(1));
    let memo = MemoCache::new();
    let spec = |c: &Cell| BatchSpec {
        name: c.name(),
        coeffs: c.coeffs.clone(),
    };
    let all: Vec<BatchSpec> = cells.iter().map(spec).collect();
    let full = run_batch_on(&all, &options, &pool, &memo);
    let results = full
        .rows
        .iter()
        .map(|row| row.result.clone().map_err(|e| format!("{}: {e}", row.name)))
        .collect::<Result<Vec<BatchCell>, String>>()?;
    // Each one-cell report comes from the same offline engine; the memo
    // already holds every cell, which by design leaves the bytes alone.
    let single = cells
        .iter()
        .map(|c| run_batch_on(&[spec(c)], &options, &pool, &memo).render_json())
        .collect();
    let lower_bounds = cells
        .iter()
        .map(|c| root_lower_bound(&c.coeffs))
        .collect::<Result<_, _>>()?;
    Ok(Oracle {
        single,
        cells: results,
        lower_bounds,
    })
}

/// Checks status and request ID, then the body against the oracle.
fn check_response(
    route: Route,
    key: usize,
    r: &Result<Response, String>,
    oracle: &Oracle,
) -> Result<(), String> {
    let r = r.as_ref().map_err(|e| e.clone())?;
    if r.status != 200 {
        return Err(format!("status {}: {}", r.status, r.body.trim()));
    }
    if r.header("X-Request-Id").is_none() {
        return Err("no X-Request-Id".into());
    }
    match route {
        Route::Batch => {
            if r.body != oracle.single[key] {
                return Err("served /batch bytes differ from offline run_batch".into());
            }
        }
        Route::Synth => {
            let doc = parse_json(&r.body).map_err(|e| format!("/synth body: {e}"))?;
            let map = doc.as_object().ok_or("/synth body is not an object")?;
            let rung = map.get("rung").and_then(JsonValue::as_str);
            let adders = map.get("adders").and_then(JsonValue::as_i64);
            let want = &oracle.cells[key];
            if rung != Some(want.rung.as_str()) || adders != Some(want.adders as i64) {
                return Err(format!(
                    "/synth gave {rung:?}/{adders:?}, oracle {}/{}",
                    want.rung, want.adders
                ));
            }
        }
    }
    Ok(())
}

/// The adders of the one row of a served `/batch` body.
fn served_adders(served: &Result<Response, String>) -> Result<usize, String> {
    let body = &served.as_ref().map_err(|e| e.clone())?.body;
    let doc = parse_json(body).map_err(|e| format!("/batch body: {e}"))?;
    doc.as_object()
        .and_then(|d| {
            d.get("results")?
                .as_array()?
                .first()?
                .as_object()?
                .get("adders")
        })
        .and_then(JsonValue::as_i64)
        .and_then(|a| usize::try_from(a).ok())
        .ok_or_else(|| "/batch body has no row with adders".to_string())
}

/// A percentile of an end-to-end or per-layer metric, or an error when
/// too few samples were collected to form it: a missing percentile must
/// not read as a fast one.
fn formed(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("too few samples to form {what}"))
}

/// Runs `serve-zipf`.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let (setup_s, (cells, server)) = time_setup(|| {
        let cells = paper_grid(&WORDLENGTHS)?;
        let server = ServerProc::start(&opts.mrpf)?;
        get_json(server.addr, "/healthz")?;
        Ok((cells, server))
    })?;
    let addr = server.addr;
    let mut config = SynthConfig::default();
    config.budget.deadline_ms = Some(DEADLINE_MS);
    let oracle = oracle(&cells, &config)?;
    let mut result = RunResult::default();

    // Every cell once through `/batch`, one request at a time: the served
    // bytes must equal the offline report, and each first sight fills the
    // memo cache. The quality metrics read the served rows' adders.
    let (mut adders_total, mut proven) = (0, 0);
    for (key, cell) in cells.iter().enumerate() {
        let served = request(addr, "POST", "/batch", &spec_document(&[cell]), TIMEOUT);
        let verdict = check_response(Route::Batch, key, &served, &oracle)
            .and_then(|()| served_adders(&served));
        if let Ok(adders) = verdict {
            adders_total += adders;
            proven += usize::from(adders <= oracle.lower_bounds[key]);
        }
        result.check(&cell.name(), verdict.map(|_| ()));
    }

    let rss_after_warm = server.peak_rss_mb().unwrap_or(0.0);
    let zipf = Zipf::new(cells.len(), ZIPF_EXPONENT, RANK_SEED);
    let quotas = zipf.quotas(SYNTH_PER_ROUND);
    let top: Vec<String> = (1..=5)
        .map(|r| zipf.key_of_rank(r))
        .map(|k| format!("{} x{}", cells[k].name(), quotas[k]))
        .collect();
    result
        .notes
        .push(format!("/synth per round, top keys: {}", top.join(", ")));
    let mut rng = Rng::new(opts.seed);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let render = |route: Route, key: usize| match route {
        Route::Synth => {
            let coeffs: Vec<String> = cells[key].coeffs.iter().map(i64::to_string).collect();
            ("/synth", format!("{{\"coeffs\":[{}]}}", coeffs.join(",")))
        }
        Route::Batch => ("/batch", spec_document(&[&cells[key]])),
    };

    // Phase 1: open loop, at least enough rounds that each route's p90
    // has ten samples beyond it.
    let min_rounds = [SYNTH_PER_ROUND, ROUND_LEN - SYNTH_PER_ROUND]
        .iter()
        .map(|&per_round| {
            (1..)
                .find(|r| beyond(r * per_round, 0.9) >= 10)
                .expect("finite")
        })
        .max()
        .expect("two routes");
    let rounds = ((opts.seconds * OPEN_SHARE * RATE / ROUND_LEN as f64) as usize).max(min_rounds);
    let arrivals = schedule(&zipf, RATE, rounds, ROUND_LEN, SYNTH_PER_ROUND, &mut rng);
    let open_s = rounds as f64 * ROUND_LEN as f64 / RATE;
    // A traced run also polls the server's ring of recent requests, so
    // its server-side figures cover phase 1 alone.
    let done = AtomicBool::new(false);
    let (open, ring) = std::thread::scope(|scope| {
        let poller = opts.trace.then(|| scope.spawn(|| poll_recent(addr, &done)));
        let open = open_loop(addr, &arrivals, threads, &render);
        done.store(true, Ordering::SeqCst);
        let ring = poller.map_or_else(BTreeMap::new, |p| p.join().expect("ring poller"));
        (open, ring)
    });
    for s in &open {
        result.check(
            "phase 1",
            check_response(s.arrival.route, s.arrival.key, &s.response, &oracle),
        );
    }
    let rss_after_open = server.peak_rss_mb().unwrap_or(0.0);

    // Phase 2: closed loop, whole rounds, the host's speed sampled
    // between rounds while the server is idle.
    let closed_s = opts.seconds - open_s;
    let (mut closed, mut raw_round_rps, mut round_rps) = (Vec::new(), Vec::new(), Vec::new());
    let phase2 = Instant::now();
    while closed.is_empty() || phase2.elapsed().as_secs_f64() < closed_s {
        let round = schedule(&zipf, 1.0, 1, ROUND_LEN, SYNTH_PER_ROUND, &mut rng);
        let (samples, elapsed) = closed_loop(addr, &round, threads, &render);
        let slices: Vec<f64> = (0..ROUND_SLICES).map(|_| calib::slice()).collect();
        let rps = samples.len() as f64 / elapsed.as_secs_f64();
        raw_round_rps.push(rps);
        // A rate scales inversely to a time: each round's by its own slices.
        round_rps.push(1.0 / calib::scale_by(1.0 / rps, &slices));
        closed.extend(samples);
    }
    for s in &closed {
        result.check(
            "phase 2",
            check_response(s.arrival.route, s.arrival.key, &s.response, &oracle),
        );
    }
    let status_end = get_json(addr, "/statusz")?;
    let metrics_end = get_json(addr, "/metricsz")?;
    let server_rss = server.peak_rss_mb().unwrap_or(0.0);
    result.notes.push(format!(
        "server peak RSS: {rss_after_warm:.1} MiB after every cell's first /batch, \
         {rss_after_open:.1} after phase 1, {server_rss:.1} at the end"
    ));
    drop(server);

    // One host speed for phase 1: the *mean* of the slices the senders
    // ran after each response. The host's steal pauses land on a slice
    // now and then and on most multi-millisecond requests; a median of
    // slices would discard them, a mean counts them at their rate.
    let raw: Vec<f64> = open.iter().map(|s| s.latency_ms).collect();
    let slices: Vec<f64> = open.iter().map(|s| s.slice_s).collect();
    let speed = slices.iter().sum::<f64>() / slices.len() as f64;
    let factor = calib::REFERENCE_SLICE_S / speed;
    let scaled: Vec<f64> = raw.iter().map(|v| v * factor).collect();
    let route_of = |route: Route, values: &[f64]| -> Vec<f64> {
        open.iter()
            .zip(values)
            .filter(|(s, _)| s.arrival.route == route)
            .map(|(_, v)| *v)
            .collect()
    };
    let synth = route_of(Route::Synth, &scaled);
    let batch = route_of(Route::Batch, &scaled);
    let raw_rps = median(&raw_round_rps).unwrap_or(0.0);
    let saturated_rps = median(&round_rps).unwrap_or(0.0);
    result.notes.push(format!(
        "phase 1: {} requests over {:.1} s; mean slice {:.3} ms; scaled synth p50/p90/p99 {}, \
         batch {}; raw synth {}, batch {}",
        open.len(),
        arrivals.last().map_or(0.0, |a| a.at_s),
        speed * 1e3,
        triple(&synth),
        triple(&batch),
        triple(&route_of(Route::Synth, &raw)),
        triple(&route_of(Route::Batch, &raw)),
    ));
    result.notes.push(format!(
        "phase 2: {} requests in {} rounds; median round {saturated_rps:.1} rps scaled, \
         {raw_rps:.1} rps raw",
        closed.len(),
        closed.len() / ROUND_LEN,
    ));

    if !opts.trace {
        result.push("setup_s", setup_s, "s");
        result.push("filters_per_s", saturated_rps, "1/s");
        result.push(
            "latency_p50_ms",
            formed(quantile(&synth, 0.5), "the /synth p50")?,
            "ms",
        );
        result.push(
            "latency_p90_ms",
            formed(tail_quantile(&synth, 0.9), "the /synth p90")?,
            "ms",
        );
        result.push("adders_total", adders_total as f64, "count");
        result.push("proven_optimal", proven as f64, "count");
        return Ok(result);
    }

    // Traced run: synthesis layers from replaying one round's `/synth`
    // keys in-process under the server's configuration (so the driver
    // runs each rung on its own thread, as served), then the serve
    // layers from the client samples and the server's own telemetry.
    let keys: Vec<usize> = arrivals
        .iter()
        .take(ROUND_LEN)
        .filter(|a| a.route == Route::Synth)
        .map(|a| a.key)
        .collect();
    let traced = traced_passes(opts.seconds * REPLAY_SHARE, |rec, counts, slices, _| {
        for &key in &keys {
            let cell = &cells[key];
            let outcome = rec.span("resilience.synth", || synthesize(&cell.coeffs, &config));
            let verdict = outcome.map_err(|e| e.to_string()).and_then(|out| {
                counts.degraded += usize::from(out.degraded());
                check_netlist(&out.graph, &cell.coeffs)?;
                replay_layers(&cell.coeffs, &config, &out.graph, rec, counts).map(|_| ())
            });
            result.check(&cell.name(), verdict);
            slices.push(calib::slice());
        }
    });
    push_layer_metrics(&mut result, &traced);
    result.push("mem.peak_rss_mb", server_rss, "MiB");
    // Server-side figures: phase 1's records from the `/statusz` ring,
    // joined on `X-Request-Id` and scaled by the client's factor, so the
    // gap between them compares like with like.
    let ids: BTreeSet<u64> = open
        .iter()
        .filter_map(|s| {
            s.response
                .as_ref()
                .ok()?
                .header("X-Request-Id")?
                .parse()
                .ok()
        })
        .collect();
    let records: Vec<&JsonValue> = ring
        .iter()
        .filter(|(id, _)| ids.contains(id))
        .map(|(_, r)| r)
        .collect();
    let server = |route: Option<&str>, field: &[&str]| -> Vec<f64> {
        records
            .iter()
            .filter(|r| route.is_none_or(|p| path_of(r) == Some(p)))
            .filter_map(|r| num_at(r, field))
            .map(|v| v * factor)
            .collect()
    };
    let server_batch_p50 = formed(
        median(&server(Some("/batch"), &["total_ms"])),
        "the server's /batch p50",
    )?;
    let client_batch_p50 = formed(quantile(&batch, 0.5), "the /batch p50")?;
    let connect: Vec<f64> = open
        .iter()
        .filter_map(|s| s.response.as_ref().ok())
        .map(|r| r.connect.as_secs_f64() * 1e3)
        .collect();
    let lag: Vec<f64> = open.iter().map(|s| s.lag_ms).collect();
    let phase = |route: Option<&str>, name: &str| server(route, &["phases", name]);
    result.push(
        "batch.cache_hits",
        num(&metrics_end, &["server", "cache", "hits"]),
        "count",
    );
    result.push(
        "batch.cache_misses",
        num(&metrics_end, &["server", "cache", "misses"]),
        "count",
    );
    result.push("serve.batch_p50_ms", client_batch_p50, "ms");
    result.push(
        "serve.batch_p90_ms",
        formed(tail_quantile(&batch, 0.9), "the /batch p90")?,
        "ms",
    );
    result.push(
        "serve.connect_ms",
        formed(median(&connect), "the connect p50")?,
        "ms",
    );
    result.push(
        "serve.server_synth_p50_ms",
        formed(
            median(&server(Some("/synth"), &["total_ms"])),
            "the server's /synth p50",
        )?,
        "ms",
    );
    result.push("serve.server_batch_p50_ms", server_batch_p50, "ms");
    result.push(
        "serve.gap_batch_p50_ms",
        client_batch_p50 - server_batch_p50,
        "ms",
    );
    let p50 = |values: Vec<f64>| formed(median(&values), "a server phase p50");
    result.push(
        "serve.phase.admission_p50_ms",
        p50(phase(None, "admission_ms"))?,
        "ms",
    );
    result.push(
        "serve.phase.read_p50_ms",
        p50(phase(None, "read_ms"))?,
        "ms",
    );
    result.push(
        "serve.phase.write_p50_ms",
        p50(phase(None, "write_ms"))?,
        "ms",
    );
    result.push(
        "serve.phase.queue_p90_ms",
        formed(
            tail_quantile(&phase(Some("/synth"), "queue_ms"), 0.9),
            "the server's /synth queue p90",
        )?,
        "ms",
    );
    result.push(
        "serve.phase.synth_p50_ms",
        p50(phase(Some("/synth"), "synth_ms"))?,
        "ms",
    );
    result.push(
        "serve.coalesced",
        num(&status_end, &["requests", "coalesced"]),
        "count",
    );
    result.push(
        "serve.rejected",
        num(&status_end, &["requests", "rejected"]),
        "count",
    );
    result.push(
        "serve.generator_lag_p50_ms",
        formed(median(&lag), "the generator lag p50")?,
        "ms",
    );
    result.push(
        "serve.generator_lag_max_ms",
        lag.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    result.notes.push(format!(
        "{} of {} phase-1 requests found in the server's recent-request ring",
        records.len(),
        open.len()
    ));
    result.notes.push(format!(
        "{} recorded + {} unrecorded replays of {} /synth keys",
        traced.on_s.len(),
        traced.off_s.len(),
        keys.len()
    ));
    result.notes.push(traced.rec.render_table());
    write_trace(opts, &traced.rec)?;
    Ok(result)
}

/// Per-layer serve and batch metrics of a workload that runs no server.
pub fn push_absent_serve_metrics(result: &mut RunResult) {
    for (name, unit) in [
        ("batch.cache_hits", "count"),
        ("batch.cache_misses", "count"),
        ("serve.batch_p50_ms", "ms"),
        ("serve.batch_p90_ms", "ms"),
        ("serve.connect_ms", "ms"),
        ("serve.server_synth_p50_ms", "ms"),
        ("serve.server_batch_p50_ms", "ms"),
        ("serve.gap_batch_p50_ms", "ms"),
        ("serve.phase.admission_p50_ms", "ms"),
        ("serve.phase.read_p50_ms", "ms"),
        ("serve.phase.write_p50_ms", "ms"),
        ("serve.phase.queue_p90_ms", "ms"),
        ("serve.phase.synth_p50_ms", "ms"),
        ("serve.coalesced", "count"),
        ("serve.rejected", "count"),
        ("serve.generator_lag_p50_ms", "ms"),
        ("serve.generator_lag_max_ms", "ms"),
    ] {
        result.push(name, 0.0, unit);
    }
}

/// `p50/p90/p99 ms` of `samples`, `n/a` where too few samples lie beyond.
fn triple(samples: &[f64]) -> String {
    let show = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.2}"));
    format!(
        "{}/{}/{} ms",
        show(quantile(samples, 0.5)),
        show(tail_quantile(samples, 0.9)),
        show(tail_quantile(samples, 0.99))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(body: &str) -> Result<Response, String> {
        Ok(Response {
            status: 200,
            headers: Vec::new(),
            body: body.to_string(),
            connect: Duration::ZERO,
        })
    }

    #[test]
    fn adders_come_from_the_served_row() {
        let body = "{\"batch\":{\"specs\":1,\"unique\":1,\"cache_hits\":0,\"failed\":0},\
                    \"results\":[{\"name\":\"a\",\"taps\":3,\"cache\":\"miss\",\
                    \"rung\":\"mrp+cse\",\"adders\":7,\"critical_path\":3,\
                    \"degradations\":0,\"lint_warnings\":0}]}";
        assert_eq!(served_adders(&served(body)), Ok(7));
        // A doctored body without the row's adders is a failed operation.
        assert!(served_adders(&served("{\"results\":[{\"error\":\"x\"}]}")).is_err());
        assert!(served_adders(&Err("refused".into())).is_err());
    }

    #[test]
    fn a_missing_percentile_is_an_error_not_a_zero() {
        assert_eq!(formed(Some(2.5), "p50"), Ok(2.5));
        assert!(formed(tail_quantile(&[1.0; 99], 0.9), "p90").is_err());
    }
}

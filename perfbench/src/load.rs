//! A bounded load generator.
//!
//! The open loop draws its whole schedule up front from the seed: request
//! `i` is due at `i / rate`. At most `threads` senders (one connection
//! each) take due requests in order; a request's latency runs from its
//! *scheduled* instant, so a slow server cannot hide its stalls by
//! slowing the generator, and how late each send left is reported as the
//! generator's lag. The closed loop keeps `threads` connections busy back
//! to back over one round of requests. After each response its sender
//! runs one reference slice ([`crate::calib`]) to sample the host's speed.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mrp_ptest::Rng;

use crate::http::{request, Response};
use crate::zipf::Zipf;

/// Request timeout: far above any synthesis the workloads ask for.
const TIMEOUT: Duration = Duration::from_secs(60);

/// The two synthesis routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /synth`: one coefficient vector through the driver.
    Synth,
    /// `POST /batch`: a one-spec document through the memo cache.
    Batch,
}

/// One request of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Scheduled send time after the phase starts, in seconds.
    pub at_s: f64,
    /// Route.
    pub route: Route,
    /// Grid cell index.
    pub key: usize,
}

/// `rounds` rounds of `round_len` requests, `synth` of them to `/synth`
/// and the rest to `/batch`, each route's keys one Zipf round per round,
/// due every `1/rate` seconds. The routes interleave in the same fixed
/// pattern in every round (request `i` goes to `/synth` when
/// `⌊(i+1)·synth/round_len⌋` steps up), so only the keys depend on the
/// seed.
pub fn schedule(
    zipf: &Zipf,
    rate: f64,
    rounds: usize,
    round_len: usize,
    synth: usize,
    rng: &mut Rng,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity(rounds * round_len);
    for _ in 0..rounds {
        let mut synth_keys = zipf.round(synth, rng).into_iter();
        let mut batch_keys = zipf.round(round_len - synth, rng).into_iter();
        for i in 0..round_len {
            let to_synth = (i + 1) * synth / round_len > i * synth / round_len;
            let (route, key) = if to_synth {
                (Route::Synth, synth_keys.next())
            } else {
                (Route::Batch, batch_keys.next())
            };
            out.push(Arrival {
                at_s: out.len() as f64 / rate,
                route,
                key: key.expect("a round holds its route's quota"),
            });
        }
    }
    out
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The request.
    pub arrival: Arrival,
    /// Scheduled instant (open loop) or send instant (closed loop) to
    /// the end of the response, in milliseconds.
    pub latency_ms: f64,
    /// How late the send left against its schedule, in milliseconds.
    pub lag_ms: f64,
    /// The reference slice the sender ran after the response, in seconds.
    pub slice_s: f64,
    /// The response, or the transport error.
    pub response: Result<Response, String>,
}

/// The path and body of a request.
pub type Render<'a> = &'a (dyn Fn(Route, usize) -> (&'static str, String) + Sync);

/// Runs `arrivals` open-loop with at most `threads` senders.
pub fn open_loop(
    addr: SocketAddr,
    arrivals: &[Arrival],
    threads: usize,
    render: Render<'_>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&arrival) = arrivals.get(i) else {
                    break;
                };
                let due = start + Duration::from_secs_f64(arrival.at_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let (path, body) = render(arrival.route, arrival.key);
                let response = request(addr, "POST", path, &body, TIMEOUT);
                let done = Instant::now();
                let sample = Sample {
                    arrival,
                    latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                    lag_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                    slice_s: crate::calib::slice(),
                    response,
                };
                samples.lock().expect("sample lock").push(sample);
            });
        }
    });
    samples.into_inner().expect("sample lock")
}

/// Runs `requests` closed-loop on `threads` connections, each taking the
/// next request as soon as its last one is answered. Returns the samples
/// and the elapsed time.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Arrival],
    threads: usize,
    render: Render<'_>,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(requests.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&arrival) = requests.get(i) else {
                    break;
                };
                let sent = Instant::now();
                let (path, body) = render(arrival.route, arrival.key);
                let response = request(addr, "POST", path, &body, TIMEOUT);
                let sample = Sample {
                    arrival,
                    latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                    lag_ms: 0.0,
                    slice_s: 0.0,
                    response,
                };
                samples.lock().expect("sample lock").push(sample);
            });
        }
    });
    let elapsed = start.elapsed();
    (samples.into_inner().expect("sample lock"), elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_its_seed() {
        let z = Zipf::new(96, 1.0, 7);
        let a = schedule(&z, 20.0, 2, 100, 70, &mut Rng::new(3));
        let b = schedule(&z, 20.0, 2, 100, 70, &mut Rng::new(3));
        let c = schedule(&z, 20.0, 2, 100, 70, &mut Rng::new(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 200);
        assert!((a[199].at_s - 199.0 / 20.0).abs() < 1e-12);
        let routes = |s: &[Arrival]| s.iter().map(|x| x.route).collect::<Vec<_>>();
        assert_eq!(routes(&a), routes(&c), "the seed never moves the routes");
        assert_eq!(routes(&a[..100]), routes(&a[100..]));
        for round in a.chunks(100) {
            let synth = round.iter().filter(|x| x.route == Route::Synth).count();
            assert_eq!(synth, 70);
            // Never more than one /batch in a row at a 70 % share.
            assert!(round
                .windows(2)
                .all(|w| w[0].route == Route::Synth || w[1].route == Route::Synth));
        }
    }
}

//! The closed-loop load generator: each connection waits for its answer
//! before sending again.

use crate::conn::Client;
use crate::stats::Rng;
use pasco_simrank::{QueryError, QueryRequest, QueryResponse};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The request mix: 3 `SinglePair` : 1 `SingleSourceTopK{k: 10}`, every
/// node uniform over `sources`.
#[derive(Clone, Debug)]
pub struct Mix {
    pub sources: Vec<u32>,
}

impl Mix {
    /// Request `q` of a stream.
    pub fn next(&self, rng: &mut Rng, q: u64) -> QueryRequest {
        let pool = &self.sources;
        let mut pick = || pool[rng.below(pool.len())];
        let i = pick();
        if q % 4 == 3 {
            return QueryRequest::SingleSourceTopK { i, k: 10 };
        }
        let mut j = pick();
        while j == i {
            j = pick();
        }
        QueryRequest::SinglePair { i, j }
    }
}

/// Answers kept per load thread for verification (a seeded reservoir,
/// so memory stays flat however many requests a run completes).
const KEEP: usize = 128;

/// An answer kept for verification, with the request that produced it.
#[derive(Clone, Debug)]
pub struct Kept {
    pub req: QueryRequest,
    pub result: Result<QueryResponse, QueryError>,
}

/// What a load pass observed, at a few bytes per request.
#[derive(Clone, Debug)]
pub struct Tally {
    /// Client-observed microseconds of answered `SinglePair` requests.
    pub pair_us: Vec<f32>,
    /// The same for `SingleSourceTopK` requests.
    pub topk_us: Vec<f32>,
    /// Requests answered with an error.
    pub errors: u64,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub kept: Vec<Kept>,
    seen: u64,
    keep_rng: Rng,
}

impl Tally {
    pub fn new(seed: u64, stream: u64) -> Self {
        Tally {
            pair_us: Vec::with_capacity(1 << 14),
            topk_us: Vec::with_capacity(1 << 12),
            errors: 0,
            req_bytes: 0,
            resp_bytes: 0,
            kept: Vec::with_capacity(KEEP),
            seen: 0,
            keep_rng: Rng::new(seed, stream.wrapping_add(0x4ee9)),
        }
    }

    /// Requests completed (answered or failed).
    pub fn completed(&self) -> u64 {
        (self.pair_us.len() + self.topk_us.len()) as u64 + self.errors
    }

    fn record(
        &mut self,
        req: QueryRequest,
        result: Result<QueryResponse, QueryError>,
        lat_us: f64,
        bytes: (usize, usize),
    ) {
        match (&result, matches!(req, QueryRequest::SinglePair { .. })) {
            (Err(_), _) => self.errors += 1,
            (Ok(_), true) => self.pair_us.push(lat_us as f32),
            (Ok(_), false) => self.topk_us.push(lat_us as f32),
        }
        self.req_bytes += bytes.0 as u64;
        self.resp_bytes += bytes.1 as u64;
        self.seen += 1;
        let kept = Kept { req, result };
        if self.kept.len() < KEEP {
            self.kept.push(kept);
        } else {
            let slot = self.keep_rng.below(self.seen as usize);
            if slot < KEEP {
                self.kept[slot] = kept;
            }
        }
    }

    /// Folds another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.pair_us.extend(other.pair_us);
        self.topk_us.extend(other.topk_us);
        self.errors += other.errors;
        self.req_bytes += other.req_bytes;
        self.resp_bytes += other.resp_bytes;
        self.kept.extend(other.kept);
        self.seen += other.seen;
    }

    /// Every measured latency of one kind (or of both), ascending.
    pub fn sorted(&self, pair: Option<bool>) -> Vec<f64> {
        let parts: Vec<&Vec<f32>> = match pair {
            Some(true) => vec![&self.pair_us],
            Some(false) => vec![&self.topk_us],
            None => vec![&self.pair_us, &self.topk_us],
        };
        let mut v: Vec<f64> = parts.into_iter().flatten().map(|&x| f64::from(x)).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Closed loop: `conns` connections (one load thread each) for `dur`.
/// Thread `t` draws its requests from stream `(seed, stream_base + t)`.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    dur: Duration,
    mix: &Mix,
    seed: u64,
    stream_base: u64,
) -> Result<Tally, String> {
    let per_thread: Vec<Result<Tally, String>> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..conns)
            .map(|t| {
                s.spawn(move || {
                    let mut conn = Client::dial(addr)?;
                    let stream = stream_base + t as u64;
                    let mut rng = Rng::new(seed, stream);
                    let mut out = Tally::new(seed, stream);
                    let end = Instant::now() + dur;
                    let mut q = 0u64;
                    while Instant::now() < end {
                        let req = mix.next(&mut rng, q);
                        q += 1;
                        let t0 = Instant::now();
                        let req_bytes = conn.send_request(q, &req)?;
                        let ans = conn.recv()?;
                        if ans.id != q {
                            return Err(format!("answer id {} for request {q}", ans.id));
                        }
                        let lat_us = (ans.at - t0).as_secs_f64() * 1e6;
                        out.record(req, ans.result, lat_us, (req_bytes, ans.bytes));
                    }
                    Ok(out)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or_else(|_| Err("load thread panicked".into())))
            .collect()
    });
    let mut all = Tally::new(seed, u64::MAX);
    for r in per_thread {
        all.merge(r?);
    }
    Ok(all)
}

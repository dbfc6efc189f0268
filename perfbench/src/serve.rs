//! The wire side: an in-process `Server` driven by an open-loop generator.
//!
//! The generator owns one connection and a schedule of due times (even gaps
//! at the offered rate, over sessions in a seeded order). A request is
//! sent when it falls due — or, if its session's `OpenSession` reply has
//! not arrived yet, as soon as it does — and its latency is timed from when
//! it was due, so a stall counts against every request queued behind it.
//! A session whose open fails is not continued: its remaining requests
//! count as unanswered.
//! Frames go through the library's public codec (`encode_request`,
//! `peek_header`, `decode_reply`) over a plain `TcpStream`.

use crate::gen::{wire_window, Op, Rng};
use crate::stats::median_of_groups;
use dance::market::wire::{
    decode_reply, encode_request, peek_header, table_digest, Reply, Response, StatsSnapshot,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use dance::market::{
    BacklogPolicy, Marketplace, ProjectionQuery, Server, ServerConfig, SessionConfig,
    SessionManager, SessionManagerConfig,
};
use dance::relation::Table;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest a generator goes without any reply before it gives up.
const STALL: Duration = Duration::from_secs(20);

/// A running server over its own marketplace.
pub struct Service {
    /// The server.
    pub server: Server,
    /// The marketplace it sells from (for the revenue check).
    pub market: Arc<Marketplace>,
}

/// Start a server with `workers` workers over `tables`.
pub fn start(tables: Vec<Table>, workers: usize) -> std::io::Result<Service> {
    let market = Arc::new(Marketplace::new(tables, Default::default()));
    let mgr = Arc::new(SessionManager::new(
        Arc::clone(&market),
        SessionManagerConfig {
            max_sessions: 4096,
            ..SessionManagerConfig::default()
        },
    ));
    let server = Server::start(
        mgr,
        ServerConfig {
            workers,
            on_full: BacklogPolicy::Queue,
            ..ServerConfig::default()
        },
    )?;
    Ok(Service { server, market })
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Done {
    /// Session index within the connection's schedule.
    pub session: usize,
    /// Op index within the session.
    pub op: usize,
    /// When the request fell due, seconds after the schedule start.
    pub due_s: f64,
    /// Latency from due time, ms.
    pub lat_ms: f64,
    /// How late the request was sent after it fell due, ms.
    pub lag_ms: f64,
    /// Encode time, ns.
    pub encode_ns: f64,
    /// Decode time, ns.
    pub decode_ns: f64,
    /// Request frame size, bytes.
    pub frame_bytes: usize,
    /// The reply (`None` if none arrived).
    pub reply: Option<Reply>,
}

/// What one connection saw over one schedule.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Per-request outcomes.
    pub done: Vec<Done>,
    /// Server session id per schedule session (0 if the open failed).
    pub session_ids: Vec<u64>,
    /// Time from the last due time to the last reply, ms.
    pub drain_ms: f64,
    /// Last reply, seconds after the schedule start.
    pub last_reply_s: f64,
    /// Requests never answered (including those never sent because their
    /// session did not open).
    pub unanswered: usize,
}

/// Where a session of the schedule stands.
#[derive(Debug, Clone, Copy)]
enum Opened {
    /// Its `OpenSession` has not been answered yet.
    Waiting,
    /// Open, with this server session id.
    Id(u64),
    /// The open was refused or its reply did not decode.
    Failed,
}

/// One generator connection.
pub struct Conn {
    stream: TcpStream,
    recv: Vec<u8>,
    send: Vec<u8>,
    next_id: u64,
    shopper: u64,
}

impl Conn {
    /// Connect as `shopper`.
    pub fn connect(addr: SocketAddr, shopper: u64) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            recv: Vec::with_capacity(64 * 1024),
            send: Vec::with_capacity(4096),
            next_id: 1,
            shopper,
        })
    }

    /// Run `sessions` on the schedule `due` (seconds after `t0`, one entry
    /// per op in session order).
    pub fn run(&mut self, sessions: &[Vec<Op>], due: &[f64], t0: Instant) -> ConnRun {
        let flat: Vec<(usize, usize)> = sessions
            .iter()
            .enumerate()
            .flat_map(|(s, ops)| (0..ops.len()).map(move |j| (s, j)))
            .collect();
        assert_eq!(flat.len(), due.len(), "one due time per op");
        let mut out = ConnRun {
            session_ids: vec![0; sessions.len()],
            ..ConnRun::default()
        };
        let mut opened = vec![Opened::Waiting; sessions.len()];
        let mut skipped = 0usize;
        // request id -> index into `out.done`
        let mut pending: HashMap<u64, usize> = HashMap::new();
        let mut next = 0usize;
        let mut last_progress = Instant::now();
        let mut last_reply = t0;
        let mut scratch = vec![0u8; 64 * 1024];
        while next < flat.len() || !pending.is_empty() {
            if last_progress.elapsed() > STALL {
                break;
            }
            let now = t0.elapsed().as_secs_f64();
            // Send everything due whose session is open.
            let mut blocked = false;
            while next < flat.len() && due[next] <= now {
                let (s, j) = flat[next];
                let op = &sessions[s][j];
                let session = match (op, opened[s]) {
                    (Op::Open { .. }, _) => 0,
                    (_, Opened::Id(id)) => id,
                    (_, Opened::Failed) => {
                        skipped += 1;
                        next += 1;
                        continue;
                    }
                    (_, Opened::Waiting) => {
                        blocked = true;
                        break;
                    }
                };
                let req = op.request(self.shopper, session);
                let id = self.next_id;
                self.next_id += 1;
                let before = self.send.len();
                let e0 = Instant::now();
                encode_request(&mut self.send, id, &req);
                let encode_ns = e0.elapsed().as_nanos() as f64;
                pending.insert(id, out.done.len());
                out.done.push(Done {
                    session: s,
                    op: j,
                    due_s: due[next],
                    lat_ms: f64::NAN,
                    lag_ms: (t0.elapsed().as_secs_f64() - due[next]) * 1e3,
                    encode_ns,
                    decode_ns: 0.0,
                    frame_bytes: self.send.len() - before,
                    reply: None,
                });
                next += 1;
            }
            if !self.send.is_empty() {
                if self.stream.write_all(&self.send).is_err() {
                    break;
                }
                self.send.clear();
            }
            // Wait for replies until the next request falls due (or, while
            // a session waits for its open reply, a while longer).
            let wait = match due.get(next) {
                Some(&d) if !blocked => (d - t0.elapsed().as_secs_f64()).max(0.0),
                _ => 0.05,
            };
            if pending.is_empty() {
                // Nothing in flight, so the server is idle: spin until the
                // next request falls due rather than sleep, so it is sent on
                // time instead of when the host next wakes an idle CPU.
                let until =
                    due.get(next).copied().unwrap_or(0.0) + 0.05 * f64::from(u8::from(blocked));
                while t0.elapsed().as_secs_f64() < until {
                    std::hint::spin_loop();
                }
                continue;
            }
            let _ = self
                .stream
                .set_read_timeout(Some(Duration::from_secs_f64(wait.max(50e-6))));
            match self.stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => self.recv.extend_from_slice(&scratch[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(_) => break,
            }
            let arrived = t0.elapsed().as_secs_f64();
            let mut at = 0usize;
            while let Ok(Some(h)) = peek_header(&self.recv[at..], DEFAULT_MAX_PAYLOAD) {
                let len = HEADER_LEN + h.payload_len as usize;
                if self.recv.len() - at < len {
                    break;
                }
                let d0 = Instant::now();
                let reply = decode_reply(h.opcode, &self.recv[at + HEADER_LEN..at + len]);
                let decode_ns = d0.elapsed().as_nanos() as f64;
                at += len;
                let Some(idx) = pending.remove(&h.request_id) else {
                    continue;
                };
                let d = &mut out.done[idx];
                let s = d.session;
                d.lat_ms = (arrived - d.due_s) * 1e3;
                d.decode_ns = decode_ns;
                if let Op::Open { .. } = sessions[s][d.op] {
                    opened[s] = match &reply {
                        Ok(Reply::Ok(Response::OpenSession { session, .. })) => {
                            out.session_ids[s] = *session;
                            Opened::Id(*session)
                        }
                        _ => Opened::Failed,
                    };
                }
                d.reply = reply.ok();
                last_progress = Instant::now();
                last_reply = Instant::now();
            }
            self.recv.drain(..at);
        }
        out.unanswered = pending.len() + (flat.len() - next) + skipped;
        let last_due = due.last().copied().unwrap_or(0.0);
        out.last_reply_s = (last_reply - t0).as_secs_f64();
        out.drain_ms = (out.last_reply_s - last_due).max(0.0) * 1e3;
        out
    }
}

/// The op schedule of one connection: `windows` windows of the session
/// `pool` (see [`wire_window`]), falling due at even gaps at `rate`
/// requests/s — a constant-rate open loop, so a request queues only behind
/// slow requests, not behind chance bursts of arrivals.
pub fn schedule(
    pool: &[Vec<Op>],
    windows: usize,
    rate: f64,
    rng: &mut Rng,
) -> (Vec<Vec<Op>>, Vec<f64>) {
    let sessions: Vec<Vec<Op>> = (0..windows).flat_map(|_| wire_window(pool, rng)).collect();
    let total: usize = sessions.iter().map(Vec::len).sum();
    let due = (1..=total).map(|k| k as f64 / rate).collect();
    (sessions, due)
}

/// Expected replies of `sessions` replayed in process on `market`, and the
/// time each `Session` call took (µs, per op kind).
pub struct Replay {
    /// Per session, per op: the reply the wire must match (`None` for
    /// `OpenSession`, whose ids differ).
    pub expect: Vec<Vec<Option<Response>>>,
    /// Per session, per op: the call's time, µs.
    pub us: Vec<Vec<f64>>,
}

/// Replay `sessions` through `Session` on a marketplace of its own.
pub fn replay(tables: Vec<Table>, sessions: &[Vec<Op>]) -> Replay {
    let market = Arc::new(Marketplace::new(tables, Default::default()));
    let mgr = SessionManager::new(market, SessionManagerConfig::default());
    let mut us = Vec::with_capacity(sessions.len());
    let mut expect = Vec::with_capacity(sessions.len());
    for ops in sessions {
        let mut sess = None;
        let mut exp = Vec::with_capacity(ops.len());
        let mut took = Vec::with_capacity(ops.len());
        for op in ops {
            let t0 = Instant::now();
            let r: Option<Response> = match op {
                Op::Open { seed } => {
                    sess = mgr
                        .open(SessionConfig {
                            budget: f64::INFINITY,
                            seed: *seed,
                        })
                        .ok();
                    None
                }
                Op::Quote(d, a) => sess
                    .as_ref()
                    .and_then(|s| s.quote(*d, a).ok())
                    .map(|price| Response::Quote { price }),
                Op::QuoteBatch(items) => sess
                    .as_ref()
                    .and_then(|s| s.quote_batch(items).ok())
                    .map(|prices| Response::QuoteBatch { prices }),
                Op::BuySample(d, key, rate) => sess
                    .as_mut()
                    .and_then(|s| s.buy_sample(*d, key, *rate).ok())
                    .map(|(t, price)| Response::BuySample {
                        price,
                        rows: t.num_rows() as u64,
                        digest: table_digest(&t),
                    }),
                Op::Execute(d, a) => sess.as_mut().and_then(|s| {
                    let name = s.meta(*d).ok()?.name.clone();
                    let (t, price) = s
                        .execute(&ProjectionQuery {
                            dataset: *d,
                            dataset_name: name,
                            attrs: a.clone(),
                        })
                        .ok()?;
                    Some(Response::Execute {
                        price,
                        rows: t.num_rows() as u64,
                        digest: table_digest(&t),
                    })
                }),
                Op::Close => sess.take().map(|s| {
                    let rep = mgr.close(s);
                    Response::CloseSession {
                        seed: rep.seed,
                        version: rep.catalog_version,
                        purchases: rep.purchases.len() as u32,
                        spent: rep.spent,
                        remaining: rep.remaining,
                    }
                }),
            };
            took.push(t0.elapsed().as_secs_f64() * 1e6);
            exp.push(r);
        }
        expect.push(exp);
        us.push(took);
    }
    Replay { expect, us }
}

/// Bitwise equality of two responses (floats compared by bits).
pub fn same_response(a: &Response, b: &Response) -> bool {
    use Response as R;
    let fb = |x: f64, y: f64| x.to_bits() == y.to_bits();
    match (a, b) {
        (R::Quote { price: x }, R::Quote { price: y }) => fb(*x, *y),
        (R::QuoteBatch { prices: x }, R::QuoteBatch { prices: y }) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| fb(*p, *q))
        }
        (
            R::BuySample {
                price: p,
                rows: r,
                digest: d,
            },
            R::BuySample {
                price: q,
                rows: s,
                digest: e,
            },
        )
        | (
            R::Execute {
                price: p,
                rows: r,
                digest: d,
            },
            R::Execute {
                price: q,
                rows: s,
                digest: e,
            },
        ) => fb(*p, *q) && r == s && d == e,
        (
            R::CloseSession {
                seed: a1,
                version: v1,
                purchases: n1,
                spent: s1,
                remaining: r1,
            },
            R::CloseSession {
                seed: a2,
                version: v2,
                purchases: n2,
                spent: s2,
                remaining: r2,
            },
        ) => a1 == a2 && v1 == v2 && n1 == n2 && fb(*s1, *s2) && fb(*r1, *r2),
        _ => false,
    }
}

/// Outcome of one rung of the rate ladder.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Offered rate, requests/s.
    pub rate: f64,
    /// Answered requests per second, from the first due time to the last
    /// reply.
    pub achieved: f64,
    /// p99 latency from due time, ms (infinite when any request failed).
    pub p99_ms: f64,
    /// Time from the last due time to the last reply, ms: the backlog left
    /// when the rung ends.
    pub drain_ms: f64,
    /// Requests attempted.
    pub attempted: usize,
    /// Failed or unanswered requests.
    pub failed: usize,
}

impl Rung {
    /// The rung's latency figure: its p99, or the backlog it ends with if
    /// that is longer (a backlog that grows through the rung takes longer
    /// to drain than almost every request waited).
    pub fn figure_ms(&self) -> f64 {
        self.p99_ms.max(self.drain_ms)
    }

    /// Meets the latency limit without failures or a growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && self.figure_ms() <= limit_ms
    }
}

/// The highest rate meeting `limit_ms` without failures or a growing
/// backlog: the highest passing rung, moved towards the next rung to where
/// the rungs' figure ([`Rung::figure_ms`], log scale) crosses the limit
/// between the two. The top rung's rate if it passes; the first rung's
/// sustained rate if none does.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    let Some(best) = rungs.iter().rposition(|r| r.passes(limit_ms)) else {
        return rungs.first().map_or(0.0, |r| r.achieved.min(r.rate));
    };
    let lo = &rungs[best];
    let Some(hi) = rungs.get(best + 1) else {
        return lo.rate;
    };
    if hi.failed > 0 {
        return lo.rate;
    }
    let lo_ms = lo.figure_ms().max(1e-3);
    let f = (limit_ms.ln() - lo_ms.ln()) / (hi.figure_ms().ln() - lo_ms.ln());
    lo.rate + (hi.rate - lo.rate) * f.clamp(0.0, 1.0)
}

/// Split `(due time, latency)` samples into `windows` consecutive slices
/// of the schedule with equal sample counts.
pub fn windows(samples: &[(f64, f64)], windows: usize) -> Vec<Vec<f64>> {
    let mut by_due = samples.to_vec();
    by_due.sort_by(|a, b| a.0.total_cmp(&b.0));
    let per = by_due.len().div_ceil(windows.max(1)).max(1);
    by_due
        .chunks(per)
        .map(|c| c.iter().map(|&(_, lat)| lat).collect())
        .collect()
}

/// Summarize one rung (`windows` slices) from its run.
pub fn rung_of(rate: f64, run: &ConnRun, windows: usize) -> Rung {
    let mut lat = Vec::new();
    let mut failed = run.unanswered;
    let mut first_due = f64::INFINITY;
    for d in &run.done {
        first_due = first_due.min(d.due_s);
        match &d.reply {
            Some(Reply::Ok(_)) => lat.push((d.due_s, d.lat_ms)),
            _ => failed += 1,
        }
    }
    let p99 = if failed > 0 {
        f64::INFINITY
    } else {
        median_of_groups(&self::windows(&lat, windows), 0.99).unwrap_or(f64::INFINITY)
    };
    Rung {
        rate,
        achieved: lat.len() as f64 / (run.last_reply_s - first_due).max(1e-9),
        p99_ms: p99,
        drain_ms: run.drain_ms,
        attempted: run.done.len() + run.unanswered,
        failed,
    }
}

/// Final server counters.
pub fn stop(svc: Service) -> (StatsSnapshot, Arc<Marketplace>) {
    let stats = svc.server.shutdown();
    (stats, svc.market)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, p99_ms: f64, drain_ms: f64) -> Rung {
        Rung {
            rate,
            achieved: rate,
            p99_ms,
            drain_ms,
            attempted: 100,
            failed: 0,
        }
    }

    #[test]
    fn max_rate_interpolates_where_the_figure_crosses_the_limit() {
        // p99 10 ms at 4000/s, 100 ms at 5000/s: 50 ms lies at
        // ln(5)/ln(10) of the way in log scale.
        let rungs = [rung(4000.0, 10.0, 0.0), rung(5000.0, 100.0, 0.0)];
        let want = 4000.0 + 1000.0 * 5f64.ln() / 10f64.ln();
        assert!((max_rate(&rungs, 50.0) - want).abs() < 1e-9);
        // A backlog longer than the p99 is the rung's figure.
        let rungs = [rung(4000.0, 10.0, 0.0), rung(5000.0, 20.0, 100.0)];
        assert!((max_rate(&rungs, 50.0) - want).abs() < 1e-9);
        let drained = rung(4000.0, 10.0, 60.0);
        assert!(!drained.passes(50.0));
    }

    #[test]
    fn max_rate_edges() {
        assert_eq!(max_rate(&[rung(4000.0, 10.0, 0.0)], 50.0), 4000.0);
        let mut failed = rung(5000.0, f64::INFINITY, 0.0);
        failed.failed = 1;
        assert_eq!(max_rate(&[rung(4000.0, 10.0, 0.0), failed], 50.0), 4000.0);
        let mut slow = rung(4000.0, 80.0, 0.0);
        slow.achieved = 3000.0;
        assert_eq!(max_rate(&[slow], 50.0), 3000.0);
    }

    #[test]
    fn schedules_are_even_and_windows_repeat_the_pool() {
        let pool = vec![vec![Op::Open { seed: 0 }, Op::Close]; 3];
        let (sessions, due) = schedule(&pool, 2, 100.0, &mut Rng::new(1, 1));
        assert_eq!((sessions.len(), due.len()), (6, 12));
        assert!(due.windows(2).all(|w| (w[1] - w[0] - 0.01).abs() < 1e-12));
        assert!(sessions.iter().all(|s| s[1] == Op::Close));
    }
}

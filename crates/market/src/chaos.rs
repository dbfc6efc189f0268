//! `market::chaos` — a deterministic, seeded fault-injecting transport.
//!
//! Wraps any `Read + Write` stream in a [`ChaosStream`] that injects the
//! four failure classes a hostile network produces, on a schedule that is a
//! pure function of a `u64` seed and the I/O-operation sequence:
//!
//! | fault            | where   | what the peer experiences                  |
//! |------------------|---------|--------------------------------------------|
//! | connection reset | any op  | `ConnectionReset`; the stream is dead       |
//! | read truncation  | reads   | a prefix of the bytes, then the stream dies |
//! | short write      | writes  | frames arrive fragmented mid-header/payload |
//! | injected delay   | any op  | latency spikes (driving client timeouts)    |
//!
//! Every I/O operation consumes a fixed number of draws from a
//! [`splitmix64`]-based stream, so the fault schedule for operation `k` is
//! independent of which faults fired before it — two runs over the same
//! operation sequence inject identical faults, which is what makes every
//! failure mode of the serving layer reproducible from a seed (see
//! `tests/chaos_sweep.rs`).
//!
//! Poll timeouts (`WouldBlock`/`TimedOut` from a non-blocking read) are
//! passed through **without** consuming randomness: an idle connection that
//! ticks its read timeout thousands of times does not advance the schedule.
//!
//! The [`Transport`] trait is the small socket-option surface the client
//! and server need beyond `Read + Write`; it is implemented for
//! `TcpStream` and forwarded by `ChaosStream`, so chaos can be spliced in
//! on either side of a connection (client-side via
//! `WireClientBuilder::chaos`, server-side via `ServerConfig::chaos`).

use dance_relation::hash::{derive_seed, splitmix64, GOLDEN};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The socket-option surface the serving layer needs from a stream, beyond
/// `Read + Write`. Implemented by `TcpStream` and forwarded by
/// [`ChaosStream`], so servers and clients are generic over real and
/// fault-injected transports.
pub trait Transport: Read + Write + Send {
    /// Set the blocking-read timeout (`None` blocks forever).
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
    /// Set the blocking-write timeout (`None` blocks forever).
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, dur)
    }
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, dur)
    }
}

/// Per-stream fault rates and the seed that schedules them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Probability per I/O operation of a connection reset.
    pub reset_rate: f64,
    /// Probability per delivering read of a mid-frame truncation (a strict
    /// prefix of the bytes is delivered, then the stream dies).
    pub truncate_rate: f64,
    /// Probability per write of a short write (a strict prefix is written;
    /// the stream stays alive, so the peer sees fragmented frames).
    pub short_write_rate: f64,
    /// Probability per I/O operation of an injected delay.
    pub delay_rate: f64,
    /// Injected delays are uniform in `1..=max_delay_ms` milliseconds.
    pub max_delay_ms: u64,
}

impl ChaosConfig {
    /// No faults at all — the identity transport (useful as a baseline).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            reset_rate: 0.0,
            truncate_rate: 0.0,
            short_write_rate: 0.0,
            delay_rate: 0.0,
            max_delay_ms: 0,
        }
    }

    /// A hostile mix exercising every fault class: occasional resets and
    /// truncations, frequent fragmentation, small delays.
    pub fn hostile(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            reset_rate: 0.04,
            truncate_rate: 0.04,
            short_write_rate: 0.25,
            delay_rate: 0.05,
            max_delay_ms: 3,
        }
    }

    /// The same rates under a sub-seed — how per-connection schedules are
    /// derived from one master seed (`salt` is e.g. the connection index).
    pub fn derive(&self, salt: u64) -> ChaosConfig {
        ChaosConfig {
            seed: derive_seed(self.seed, salt),
            ..*self
        }
    }
}

/// One injected fault, recorded in the stream's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The connection was reset.
    Reset,
    /// A read delivered only `kept` of the bytes, then the stream died.
    TruncatedRead {
        /// Bytes actually delivered.
        kept: usize,
    },
    /// A write accepted only `kept` bytes (stream stays alive).
    ShortWrite {
        /// Bytes actually written.
        kept: usize,
    },
    /// An injected delay of `ms` milliseconds.
    Delay {
        /// Sleep length in milliseconds.
        ms: u64,
    },
}

/// Cap on the recorded fault trace (counters keep counting past it).
const TRACE_CAP: usize = 4096;

/// A fault-injecting wrapper around any stream. See the module docs for
/// the fault taxonomy and the determinism contract.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    cfg: ChaosConfig,
    state: u64,
    dead: bool,
    ops: u64,
    faults: u64,
    trace: Vec<InjectedFault>,
}

impl<S> ChaosStream<S> {
    /// Wrap `inner` with the fault schedule of `cfg`.
    pub fn new(inner: S, cfg: ChaosConfig) -> ChaosStream<S> {
        ChaosStream {
            inner,
            cfg,
            state: splitmix64(cfg.seed ^ 0xC4A0_5BAD),
            dead: false,
            ops: 0,
            faults: 0,
            trace: Vec::new(),
        }
    }

    /// The wrapped stream.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Whether an injected reset or truncation has killed the stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// I/O operations seen (reads that delivered data, plus writes).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total faults injected (delays included).
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// The injected-fault trace, in schedule order (capped at 4096 entries;
    /// [`ChaosStream::fault_count`] keeps counting past the cap).
    pub fn trace(&self) -> &[InjectedFault] {
        &self.trace
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        splitmix64(self.state)
    }

    /// One uniform draw in `[0, 1)`; always consumes exactly one step of
    /// the sequence so schedules stay aligned across rate settings.
    fn chance(&mut self, p: f64) -> bool {
        let draw = (self.next() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        draw < p
    }

    fn record(&mut self, fault: InjectedFault) {
        self.faults += 1;
        if self.trace.len() < TRACE_CAP {
            self.trace.push(fault);
        }
    }

    /// The fixed three draws every operation consumes: delay?, delay length,
    /// reset?. Returns `true` when the operation dies in a reset.
    fn pre_op(&mut self) -> bool {
        self.ops += 1;
        let delay = self.chance(self.cfg.delay_rate);
        let len_draw = self.next();
        if delay && self.cfg.max_delay_ms > 0 {
            let ms = 1 + len_draw % self.cfg.max_delay_ms;
            self.record(InjectedFault::Delay { ms });
            std::thread::sleep(Duration::from_millis(ms));
        }
        if self.chance(self.cfg.reset_rate) {
            self.dead = true;
            self.record(InjectedFault::Reset);
            return true;
        }
        false
    }
}

fn reset_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        "chaos: injected connection reset",
    )
}

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl<S: Read + Write> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(reset_err());
        }
        match self.inner.read(buf) {
            // Poll ticks pass through without advancing the schedule.
            Err(e) if is_poll_timeout(&e) => Err(e),
            Err(e) => Err(e),
            Ok(n) => {
                if self.pre_op() {
                    // The bytes are lost in the crash — exactly what a reset
                    // racing a delivery looks like from this side.
                    return Err(reset_err());
                }
                let truncate = self.chance(self.cfg.truncate_rate);
                let len_draw = self.next();
                if truncate && n > 1 {
                    let kept = 1 + (len_draw as usize) % (n - 1);
                    self.dead = true;
                    self.record(InjectedFault::TruncatedRead { kept });
                    return Ok(kept);
                }
                Ok(n)
            }
        }
    }
}

impl<S: Read + Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(reset_err());
        }
        if self.pre_op() {
            return Err(reset_err());
        }
        let short = self.chance(self.cfg.short_write_rate);
        let len_draw = self.next();
        if short && buf.len() > 1 {
            let kept = 1 + (len_draw as usize) % (buf.len() - 1);
            let n = self.inner.write(&buf[..kept])?;
            self.record(InjectedFault::ShortWrite { kept: n });
            return Ok(n);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(reset_err());
        }
        self.inner.flush()
    }
}

impl<S: Transport> Transport for ChaosStream<S> {
    fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(dur)
    }
    fn set_write_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(dur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory stream: reads drain a pre-filled buffer, writes append
    /// to an output buffer. Deterministic by construction, so chaos-schedule
    /// determinism is observable byte-for-byte.
    struct MemStream {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl MemStream {
        fn with_input(bytes: Vec<u8>) -> MemStream {
            MemStream {
                input: std::io::Cursor::new(bytes),
                output: Vec::new(),
            }
        }
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drive(seed: u64, cfg_of: fn(u64) -> ChaosConfig) -> (Vec<InjectedFault>, Vec<u8>, Vec<u8>) {
        let input: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let mut s = ChaosStream::new(MemStream::with_input(input), cfg_of(seed));
        let mut delivered = Vec::new();
        let mut scratch = [0u8; 32];
        // Interleave reads and writes until the stream dies or input drains.
        for round in 0..64 {
            match s.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => delivered.extend_from_slice(&scratch[..n]),
                Err(_) => break,
            }
            let chunk = [round as u8; 24];
            if s.write(&chunk).is_err() {
                break;
            }
        }
        let trace = s.trace().to_vec();
        let written = s.inner.output.clone();
        (trace, delivered, written)
    }

    fn hostile_no_delay(seed: u64) -> ChaosConfig {
        ChaosConfig {
            delay_rate: 0.0,
            ..ChaosConfig::hostile(seed)
        }
    }

    #[test]
    fn same_seed_same_schedule_bytes_and_trace() {
        for seed in [1u64, 7, 0xDA2CE, 0xFEED_BEEF] {
            let a = drive(seed, hostile_no_delay);
            let b = drive(seed, hostile_no_delay);
            assert_eq!(a.0, b.0, "seed {seed}: fault traces differ");
            assert_eq!(a.1, b.1, "seed {seed}: delivered bytes differ");
            assert_eq!(a.2, b.2, "seed {seed}: written bytes differ");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = drive(1, hostile_no_delay);
        let b = drive(2, hostile_no_delay);
        assert_ne!((a.0, a.1), (b.0, b.1));
    }

    #[test]
    fn quiet_config_is_the_identity_transport() {
        let (trace, delivered, written) = drive(9, ChaosConfig::quiet);
        assert!(trace.is_empty());
        let input: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(delivered, input);
        assert!(!written.is_empty());
    }

    #[test]
    fn dead_streams_stay_dead() {
        let cfg = ChaosConfig {
            reset_rate: 1.0,
            ..ChaosConfig::quiet(3)
        };
        let mut s = ChaosStream::new(MemStream::with_input(vec![1, 2, 3]), cfg);
        let mut buf = [0u8; 8];
        assert_eq!(
            s.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert!(s.is_dead());
        assert_eq!(
            s.write(&[1]).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
        assert_eq!(s.fault_count(), 1, "post-death ops inject nothing new");
    }

    #[test]
    fn truncation_delivers_a_strict_prefix_then_kills() {
        let cfg = ChaosConfig {
            truncate_rate: 1.0,
            ..ChaosConfig::quiet(5)
        };
        let mut s = ChaosStream::new(MemStream::with_input((0..64).collect()), cfg);
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).unwrap();
        assert!((1..64).contains(&n), "a strict prefix: got {n}");
        assert!(s.is_dead());
        assert!(matches!(s.trace()[0], InjectedFault::TruncatedRead { kept } if kept == n));
    }

    #[test]
    fn short_writes_fragment_but_do_not_kill() {
        let cfg = ChaosConfig {
            short_write_rate: 1.0,
            ..ChaosConfig::quiet(11)
        };
        let mut s = ChaosStream::new(MemStream::with_input(Vec::new()), cfg);
        let payload = [7u8; 100];
        let mut written = 0;
        while written < payload.len() {
            written += s.write(&payload[written..]).unwrap();
        }
        assert_eq!(s.inner().output, payload);
        assert!(s.fault_count() >= 1, "at least one short write fired");
        assert!(!s.is_dead());
    }

    #[test]
    fn derive_gives_distinct_per_connection_schedules() {
        let base = ChaosConfig::hostile(42);
        let a = base.derive(0);
        let b = base.derive(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.reset_rate, base.reset_rate);
        // Deriving is itself deterministic.
        assert_eq!(base.derive(7), base.derive(7));
    }
}

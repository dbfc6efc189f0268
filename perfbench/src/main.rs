//! DANCE benchmark: end-to-end metrics per workload, and a traced run that
//! splits them into per-layer numbers.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch_zipf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload runs the same pipeline over the same TPC-H inputs — set-up,
//! the offline phase, a closed loop of acquisition requests, seller updates
//! and an open-loop wire service with a rate ladder — so every end-to-end
//! metric is measured on every workload; ground truth for the distinct
//! requests' plans (`plan_corr_true`) only on `tpch_zipf`, -1 on `wire_open`
//! (see `perfbench/README.md`). The updates, the wire windows, the ladder
//! and repeated set-ups run in slices between acquisition requests, so each
//! metric samples the whole run, and everything runs pinned to one CPU.
//! Human-readable lines go
//! first; the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed correctness
//! check sets `correct` to false and the exit code to 1.

mod acquire;
mod gen;
mod serve;
mod stats;
mod trace;

use acquire::{
    cold_eval, dance_config, run_loop, sample_is_fresh, seller_update, traced_offline, LoopInput,
    LoopOut, Mode,
};
use dance::core::{AcquisitionRequest, Dance, DanceConfig};
use dance::datagen::tpch::{tpch_interned, TpchConfig};
use dance::market::wire::{Reply, Response};
use dance::market::Marketplace;
use dance::relation::hash::stable_hash64;
use dance::relation::{Executor, InternerRegistry, Table};
use gen::{Churn, Rng};
use serve::{Conn, ConnRun, Replay};
use stats::{median, median_of_groups, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use trace::Tracer;

/// One workload. Both run on the same catalog, request pool and wire
/// schedule; they differ in the search and in how a run's time is split.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    /// MCMC chains per walk.
    chains: usize,
    /// Share of `--seconds` that sizes the acquisition loop (its request
    /// count); the rest sizes the fixed-rate wire windows. The two run
    /// interleaved.
    acq_share: f64,
    /// Whether ground truth is computed for the distinct requests' plans;
    /// `false` reports `plan_corr_true` as -1 (see `perfbench/README.md`).
    truth: bool,
}

const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "tpch_zipf",
        chains: 1,
        acq_share: 0.5,
        truth: true,
    },
    Spec {
        name: "wire_open",
        chains: 2,
        acq_share: 0.25,
        truth: false,
    },
];

/// Scale of the TPC-H catalog (8 tables).
const SCALE: f64 = 4.0;
/// Distinct requests in the pool.
const POOL: usize = 64;
/// Zipf skew of the request stream over the pool.
const THETA: f64 = 0.8;
/// Requests per block of the stream (see [`gen::request_block`]).
const BLOCK: usize = 200;
/// Acquisition requests per shopper per second of loop time, measured on
/// one CPU of a 2-vCPU host: the loop issues a fixed number of requests (a
/// whole number of blocks) so that every run does the same work.
const ACQ_RATE: f64 = 30.0;
/// Fixed offered rate of the wire windows, requests/s: about a sixth of the
/// catalog's single-connection capacity, so a request rarely queues behind
/// another and the figures follow service time, not queueing.
const WIRE_RATE: f64 = 1000.0;
/// Datasets whose sellers publish updates (the largest ones).
const SELLERS: usize = 5;

/// Offered rates of the wire ladder, requests/s: the first rung, the rise
/// from one rung to the next and the number of rungs.
const LADDER: (f64, f64, usize) = (3000.0, 1.15, 16);
/// Passes over the ladder (`wire_max_rps` is the median of their
/// estimates). The first starts at the bottom rung, the others two rungs
/// below the first pass's highest passing rung.
const LADDER_PASSES: usize = 3;
/// p99 limit of the wire ladder (`wire_max_rps`), ms.
const WIRE_LIMIT_MS: f64 = 50.0;
/// Body ops per wire session (between open and close).
const SESSION_BODY: usize = 12;
/// Set-up and offline repetitions before the loop...
const REPEATS_BEFORE: usize = 5;
/// ...and one in each slice of the run's other work, which comes after
/// every this many requests of each block (medians reported).
const REPEAT_EVERY: usize = 40;
/// Offline phases timed per set-up: one takes a few milliseconds, and its
/// timings spread widely within a run, so the median needs many.
const OFFLINES_PER_SETUP: usize = 5;
/// Minimum acquisition requests per run (p95 needs 10 beyond it).
const MIN_REQUESTS: usize = 200;
/// Most stream blocks one run may issue.
const MAX_BLOCKS: usize = 64;
/// Seed of the request pool and of the wire windows' session pool.
const POOL_SEED: u64 = 1;
/// Seed of the generated catalogs and of the middleware (sampling, MCMC).
const WORKLOAD_SEED: u64 = 0xDA2CE;
/// Seller updates per run, spread over its slices.
const UPDATES: usize = 1000;
/// Samples needed for a p99 with 10 beyond it.
const P99_SAMPLES: f64 = 1000.0;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("{k}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn generate(seed: u64) -> Vec<Table> {
    tpch_interned(
        &InternerRegistry::new(),
        &TpchConfig {
            scale: SCALE,
            dirty_fraction: 0.3,
            seed,
        },
    )
    .expect("the generator accepts every scale and seed")
}

/// Metrics of one run, in report order.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let v = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Git revision of the checkout, read from `.git` without running git.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Machine-wide CPU time counters (`/proc/stat`, first line; the eighth is
/// time stolen by the hypervisor). Empty where unavailable.
fn cpu_times() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the calling thread, and so every thread it starts later (the
/// server's, the wire generator's, the executor's), to the highest CPU it
/// may run on. Returns that CPU, or `None` where pinning is unavailable.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write `size` bytes of a buffer owned here;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Inputs drawn from the seed.
struct Inputs {
    tables: Vec<Table>,
    pool: Vec<AcquisitionRequest>,
    stream: Vec<usize>,
    churn: Vec<Churn>,
}

fn inputs(seed: u64, tables: Vec<Table>) -> Inputs {
    // The pool (and its Zipf rank order) is part of the workload's
    // definition, drawn from a fixed seed; the run seed draws the request
    // order, the churn schedule and the wire sessions.
    let pool = gen::request_pool(&tables, POOL, &mut Rng::new(POOL_SEED, 1));
    let block = gen::request_block(pool.len(), THETA, BLOCK);
    let stream = gen::request_stream(&block, MAX_BLOCKS, &mut Rng::new(seed, 1));
    let churn = gen::churn_schedule(&tables, SELLERS, UPDATES, &mut Rng::new(seed, 2));
    Inputs {
        tables,
        pool,
        stream,
        churn,
    }
}

/// A fresh shopper: its own marketplace over `tables` and an offline phase.
fn shopper(tables: &[Table], cfg: &DanceConfig) -> (Marketplace, Dance, f64) {
    let market = Marketplace::new(tables.to_vec(), Default::default());
    let t0 = Instant::now();
    let dance = Dance::offline(&market, Vec::new(), cfg.clone()).expect("offline phase");
    let offline_ms = ms(t0.elapsed());
    (market, dance, offline_ms)
}

/// One timed set-up: data generation, then the server's marketplace build
/// and start.
fn setup_once(workers: usize) -> (f64, Vec<Table>, serve::Service) {
    let t0 = Instant::now();
    let tables = generate(WORKLOAD_SEED);
    let svc = serve::start(tables.clone(), workers).expect("server starts on loopback");
    (t0.elapsed().as_secs_f64(), tables, svc)
}

/// Set-up and offline timings, sampled before the loop and between its
/// blocks so their medians see the whole run rather than one moment of it.
struct Repeats<'a> {
    workers: usize,
    tables: &'a [Table],
    cfg: &'a DanceConfig,
    setup_s: Vec<f64>,
    offline_ms: Vec<f64>,
}

impl Repeats<'_> {
    fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let (s, _, svc) = setup_once(self.workers);
            self.setup_s.push(s);
            serve::stop(svc);
            for _ in 0..OFFLINES_PER_SETUP {
                self.offline_ms.push(shopper(self.tables, self.cfg).2);
            }
        }
    }
}

fn run(args: &Args, nproc: usize, cpu: Option<usize>) -> Report {
    let spec = args.workload;
    let mut rep = Report::default();
    let began = Instant::now();
    let phase = |name: &str| {
        println!(
            "phase {name} ended at {:.1} s",
            began.elapsed().as_secs_f64()
        )
    };
    println!(
        "provenance: workload={} seed={} seconds={} trace={} DANCE_THREADS={} executor_threads={} nproc={} pinned_cpu={} git_rev={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("DANCE_THREADS").unwrap_or_else(|_| "unset".into()),
        Executor::global().threads(),
        nproc,
        cpu.map_or_else(|| "none".into(), |c| c.to_string()),
        git_rev()
    );

    // Set-up: the catalog and the middleware's seeds are part of the
    // workload; `--seed` draws the request order, the update schedule and
    // the wire sessions.
    let (first_setup, tables, svc) = setup_once(nproc);
    let inp = inputs(args.seed, tables);
    let cfg = dance_config(WORKLOAD_SEED, spec.chains);
    let mut repeats = Repeats {
        workers: nproc,
        tables: &inp.tables,
        cfg: &cfg,
        setup_s: vec![first_setup],
        offline_ms: Vec::new(),
    };
    repeats.sample(REPEATS_BEFORE);

    // The timed closed loop: a whole number of stream blocks, about
    // `ACQ_RATE` requests per second of `--seconds` spent in it per shopper.
    // Two shoppers of their own run the same stream, taking turns a block at
    // a time: both are timed, so a run holds twice the samples, and their
    // plans must agree (the determinism check).
    let want = ACQ_RATE * args.seconds * spec.acq_share;
    let blocks = ((want / BLOCK as f64).round() as usize)
        .max(MIN_REQUESTS.div_ceil(BLOCK))
        .min(MAX_BLOCKS);
    let input = LoopInput {
        pool: &inp.pool,
        stream: &inp.stream[..blocks * BLOCK],
        cfg: &cfg,
    };
    let (market, mut dance, _) = shopper(&inp.tables, &cfg);
    let (market2, mut dance2, _) = shopper(&inp.tables, &cfg);
    let i_edges = dance.graph().i_edges().len();
    let mut quiet = Tracer::new(false);
    let mut tracer = Tracer::new(args.trace);
    let (mut out, mut second) = (LoopOut::default(), LoopOut::default());
    let mut blocks_lat: Vec<Vec<f64>> = Vec::with_capacity(2 * blocks);
    // The rest of the run's work goes in slices between acquisition
    // requests, so that every metric samples the whole run: a stretch of
    // host noise then moves a share of each metric's samples, not all of one
    // metric's. Slices come after every `REPEAT_EVERY` requests of each
    // block, and one after the loop.
    let mut updates = Updates::new(&inp.tables, &cfg, &inp.pool, &inp.churn);
    let mut wire = WireRun::new(&spec, args, &inp.tables, svc);
    let slots = (2 * blocks * ((BLOCK - 1) / REPEAT_EVERY) + 1) as f64;
    let mut slot = 0.0;
    let mut slice = |share: f64, tracer: &mut Tracer| {
        repeats.sample(1);
        updates.advance(share, tracer);
        wire.advance(share);
    };
    for block in input.stream.chunks(BLOCK) {
        let block_in = LoopInput {
            stream: block,
            ..input
        };
        for (m, d, o) in [
            (&market, &mut dance, &mut out),
            (&market2, &mut dance2, &mut second),
        ] {
            let before = o.lat_ms.len();
            run_loop(
                m,
                d,
                &block_in,
                Mode::Acquire,
                &mut quiet,
                REPEAT_EVERY,
                &mut || {
                    slot += 1.0;
                    slice(slot / slots, &mut tracer);
                },
                o,
            );
            blocks_lat.push(o.lat_ms[before..].to_vec());
        }
    }
    slice(1.0, &mut tracer);
    drop((market2, dance2));
    phase("loop");
    let n = out.lat_ms.len() + second.lat_ms.len();
    // Percentiles per block (every block issues the same requests), median
    // over blocks.
    let p50 = median_of_groups(&blocks_lat, 0.5).expect("at least one block");
    let p95 = median_of_groups(&blocks_lat, 0.95);
    rep.check(
        p95.is_some(),
        "acquire_ms_p95 has fewer than 10 samples beyond it in some block",
    );
    let lat = Summary::new([&out.lat_ms[..], &second.lat_ms[..]].concat());
    let tail = lat.tail().expect("p95 or lower has 10 samples beyond it");
    rep.put("setup_s", median(&repeats.setup_s), "s");
    rep.put("offline_ms", median(&repeats.offline_ms), "ms");
    rep.put("acquire_ms_p50", p50, "ms");
    rep.put("acquire_ms_p95", p95.unwrap_or(f64::NAN), "ms");
    let found = out.found + second.found;
    rep.put("plan_found_ratio", found as f64 / n as f64, "ratio");
    let bad_plans = out.bad_plans + second.bad_plans;
    rep.check(
        bad_plans == 0,
        format!("{bad_plans} plans violate their constraints"),
    );
    rep.attempted += n as u64;
    rep.failed += (out.errors + second.errors) as u64;
    println!(
        "acquire: {n} requests by two shoppers ({} distinct), {found} found, {} errors; median over {} blocks of p50 {:.3} ms and p95 {:.3} ms; over all {} samples: highest tail p{} {:.3} ms ({} beyond); \
         first shopper's sel cache {}/{} hits, proj cache {}/{} hits; working set: sel cache {} of {} entries, proj cache {} entries; \
         set-up {} samples, offline {} samples",
        out.first_plan.len(),
        out.errors + second.errors,
        blocks_lat.len(),
        p50,
        p95.unwrap_or(f64::NAN),
        lat.n(),
        tail.q * 100.0,
        tail.value,
        tail.beyond,
        out.sel.0,
        out.sel.0 + out.sel.1,
        out.proj.0,
        out.proj.0 + out.proj.1,
        dance.graph().sel_cache_len(),
        dance.graph().sel_cache_cap(),
        dance.graph().proj_cache_len(),
        repeats.setup_s.len(),
        repeats.offline_ms.len(),
    );

    // Determinism: the two shoppers' plans agree request by request, and
    // one digest over every request's plan lets separate runs with the same
    // seed be compared. Traced runs also check the decomposed search
    // against the same digests.
    rep.check(
        second.digests == out.digests,
        "plan digests differ between two shoppers running the same stream",
    );
    let run_digest = out.digests.iter().fold(0, stable_hash64);
    println!(
        "plan digest {run_digest:016x} over {} requests",
        out.digests.len()
    );
    let mut traced = None;
    if args.trace {
        traced = Some(traced_replay(
            &inp,
            &cfg,
            &input,
            &out,
            &mut tracer,
            &mut rep,
        ));
    }

    // Ground truth, once per distinct request, outside the timed loop.
    let mut truth = Vec::new();
    if spec.truth {
        for (&pi, plan) in &out.first_plan {
            tracer.set_req(pi as u64);
            let s = tracer.begin("core.dance.evaluate_true");
            let t = dance.evaluate_true(&market, &plan.graph, &inp.pool[pi]);
            tracer.end(s);
            match t {
                Ok(tg) => truth.push(tg.corr),
                Err(_) => rep.failed += 1,
            }
        }
        rep.attempted += out.first_plan.len() as u64;
    }
    // Not measured (reported as -1) where ground truth is out of reach.
    let corr_true = if spec.truth {
        truth.iter().sum::<f64>() / truth.len().max(1) as f64
    } else {
        -1.0
    };
    rep.put("plan_corr_true", corr_true, "corr");
    phase("truth");

    let update_ms = updates.finish(&mut rep);
    rep.put("update_ms_p50", update_ms, "ms");
    let wire = wire.finish(&mut rep);
    rep.put("wire_ms_p50", wire.p50, "ms");
    rep.put("wire_ms_p99", wire.p99, "ms");
    rep.put("wire_max_rps", wire.max_rps, "1/s");

    if let Some((t, d3, traced_p50)) = traced {
        per_layer(
            &mut rep,
            &tracer,
            &t,
            &d3,
            i_edges,
            lat.median().map_or(f64::NAN, |p| p.value),
            traced_p50,
            &wire,
        );
        let path = format!("perfbench/out/trace-{}-{}.jsonl", spec.name, args.seed);
        if std::fs::create_dir_all("perfbench/out").is_ok()
            && std::fs::write(&path, tracer.dump()).is_ok()
        {
            println!("spans written to {path}");
        }
    }
    rep
}

/// The seller side of a run: updates to the largest datasets, each folded
/// into a shopper's samples, advanced a slice at a time like [`WireRun`].
/// The shopper is one of its own, so the acquisition shoppers' plans stay
/// those of the unchanged catalog; it shops each pool request once first,
/// so that its folds patch the same warm caches theirs would.
struct Updates<'a> {
    market: Marketplace,
    dance: Dance,
    cfg: &'a DanceConfig,
    churn: &'a [Churn],
    done: usize,
    ms: BTreeMap<u32, Vec<f64>>,
    failed: usize,
}

impl<'a> Updates<'a> {
    fn new(
        tables: &[Table],
        cfg: &'a DanceConfig,
        pool: &[AcquisitionRequest],
        churn: &'a [Churn],
    ) -> Updates<'a> {
        let (market, mut dance, _) = shopper(tables, cfg);
        for req in pool {
            // Warm-up only: the acquisition loop checks the plans.
            let _ = dance.acquire(&market, req);
        }
        Updates {
            market,
            dance,
            cfg,
            churn,
            done: 0,
            ms: BTreeMap::new(),
            failed: 0,
        }
    }

    /// Apply the updates due by `share` of the run.
    fn advance(&mut self, share: f64, tr: &mut Tracer) {
        let due = ((self.churn.len() as f64 * share).round() as usize).min(self.churn.len());
        while self.done < due {
            let c = self.churn[self.done];
            tr.set_req(self.done as u64);
            self.done += 1;
            match seller_update(&self.market, &mut self.dance, self.cfg, c, tr) {
                Ok(t) => self.ms.entry(c.dataset).or_default().push(t),
                Err(_) => self.failed += 1,
            }
        }
    }

    /// Check every updated dataset's delta-maintained sample against a
    /// fresh one, and return `update_ms_p50`. Each dataset's updates take
    /// their own time, so the figure is the mean over datasets of each one's
    /// median: it does not depend on which dataset's timings the median
    /// falls in.
    fn finish(self, rep: &mut Report) -> f64 {
        rep.attempted += self.done as u64;
        rep.failed += self.failed as u64;
        let stale = self
            .ms
            .keys()
            .filter(|&&v| !sample_is_fresh(&self.market, &self.dance, self.cfg, v))
            .count();
        rep.check(
            stale == 0,
            format!("{stale} delta-maintained samples differ from fresh samples"),
        );
        let per_seller: Vec<f64> = self.ms.values().map(|v| median(v)).collect();
        per_seller.iter().sum::<f64>() / per_seller.len().max(1) as f64
    }
}

/// The traced replay: the offline phase and the same request loop on a
/// fresh shopper, decomposed into spans, then every distinct plan
/// re-evaluated cold through the kernels. Returns the traced loop, its
/// shopper and its median latency (the untraced median's counterpart).
fn traced_replay(
    inp: &Inputs,
    cfg: &DanceConfig,
    input: &LoopInput<'_>,
    untraced: &LoopOut,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> (LoopOut, Dance, f64) {
    let (m3, mut d3, _) = shopper(&inp.tables, cfg);
    let ok = traced_offline(&m3, cfg, d3.graph(), tracer).unwrap_or(false);
    rep.check(ok, "traced offline phase built a different join graph");
    let mut t = LoopOut::default();
    run_loop(
        &m3,
        &mut d3,
        input,
        Mode::Decomposed,
        tracer,
        usize::MAX,
        &mut || {},
        &mut t,
    );
    let p50 = Summary::new(t.lat_ms.clone())
        .median()
        .map_or(f64::NAN, |p| p.value);
    rep.check(
        t.digests == untraced.digests,
        "traced decomposition plans differ from Dance::acquire plans",
    );
    let mut mismatched = 0;
    for (&pi, plan) in &t.first_plan {
        tracer.set_req(pi as u64);
        tracer.count("core.dance.cold_eval.plans", 1.0);
        let s = tracer.begin("core.dance.cold_eval");
        let ok = cold_eval(&d3, cfg, plan, &inp.pool[pi], tracer).unwrap_or(false);
        tracer.end(s);
        mismatched += usize::from(!ok);
    }
    rep.check(
        mismatched == 0,
        format!("{mismatched} plans not reproduced by cold kernel re-evaluation"),
    );
    (t, d3, p50)
}

/// Wire-phase results.
struct Wire {
    p50: f64,
    p99: f64,
    max_rps: f64,
    lag_p99: Option<stats::Pct>,
    residual: Summary,
    encode_ns: Summary,
    decode_ns: Summary,
    frame_bytes: f64,
    replay_us: [Vec<f64>; 6],
    server: dance::market::StatsSnapshot,
}

/// Run one schedule on a fresh connection from a fresh generator thread,
/// starting a moment from now.
fn drive(addr: SocketAddr, sessions: &[Vec<gen::Op>], due: &[f64]) -> ConnRun {
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut conn = Conn::connect(addr, 1).expect("connect to loopback server");
            conn.run(sessions, due, Instant::now() + Duration::from_millis(5))
        })
        .join()
        .expect("generator thread")
    })
}

/// The wire side of a run: the fixed-rate windows and the rate ladder,
/// advanced a slice at a time between acquisition requests so that both
/// sample the whole run rather than one stretch of it.
struct WireRun<'a> {
    tables: &'a [Table],
    svc: serve::Service,
    rng: Rng,
    /// The sessions of one window; part of the workload, like the request
    /// pool.
    pool: Vec<Vec<gen::Op>>,
    /// Fixed-rate windows to run, and their latencies so far.
    windows: usize,
    per_window: Vec<Vec<f64>>,
    /// The ladder: the current pass's rungs, the rung later passes start
    /// at, and each finished pass's estimate.
    rungs: Vec<serve::Rung>,
    pass_start: usize,
    passes: Vec<f64>,
    replay_us: [Vec<f64>; 6],
    mismatches: usize,
    residual: Vec<f64>,
    enc: Vec<f64>,
    dec: Vec<f64>,
    lag: Vec<f64>,
    bytes: usize,
    closes: Vec<(u64, f64)>,
    unanswered: usize,
    failed: usize,
    attempted: usize,
}

impl<'a> WireRun<'a> {
    // One connection at a time, from one generator thread that shares the
    // benchmark's CPU with the worker serving it, so neither waits for the
    // host to wake another CPU (with the generator on a CPU of its own, the
    // ladder's capacity fell by a third in probes). It spins only while
    // nothing is in flight (see `serve::Conn::run`).
    fn new(spec: &Spec, args: &Args, tables: &'a [Table], svc: serve::Service) -> WireRun<'a> {
        // One window has enough requests for a p99 with 10 beyond it.
        let per_session = SESSION_BODY + 5; // open, batch, sample, execute, close
        let mut pool_rng = Rng::new(POOL_SEED, 4);
        let pool: Vec<Vec<gen::Op>> = (0..(P99_SAMPLES * 1.1 / per_session as f64).ceil() as usize)
            .map(|k| gen::session_ops(tables, SESSION_BODY, k, &mut pool_rng))
            .collect();
        let window_requests = (pool.len() * per_session) as f64;
        let wire_secs = args.seconds * (1.0 - spec.acq_share);
        let windows = ((wire_secs * WIRE_RATE / window_requests) as usize).max(3);
        WireRun {
            tables,
            svc,
            rng: Rng::new(args.seed, 3),
            pool,
            windows,
            per_window: Vec::with_capacity(windows),
            rungs: Vec::new(),
            pass_start: 0,
            passes: Vec::new(),
            replay_us: Default::default(),
            mismatches: 0,
            residual: Vec::new(),
            enc: Vec::new(),
            dec: Vec::new(),
            lag: Vec::new(),
            bytes: 0,
            closes: Vec::new(),
            unanswered: 0,
            failed: 0,
            attempted: 0,
        }
    }

    fn ladder_done(&self) -> bool {
        self.passes.len() >= LADDER_PASSES
    }

    /// Run the fixed-rate windows due by `share` of the run (all of them at
    /// 1), and the next rung of the ladder (all that remain at 1).
    fn advance(&mut self, share: f64) {
        let due = (self.windows as f64 * share).round() as usize;
        while self.per_window.len() < due.min(self.windows) {
            self.window();
        }
        self.rung();
        while share >= 1.0 && !self.ladder_done() {
            self.rung();
        }
    }

    /// One window at the fixed rate.
    fn window(&mut self) {
        let (sessions, due) = serve::schedule(&self.pool, 1, WIRE_RATE, &mut self.rng);
        let run = drive(self.svc.server.addr(), &sessions, &due);
        // Every reply must match an in-process Session replay of the ops.
        let Replay { expect, us } = serve::replay(self.tables.to_vec(), &sessions);
        for (ops, took) in sessions.iter().zip(&us) {
            for (op, &t) in ops.iter().zip(took) {
                self.replay_us[op.kind()].push(t);
            }
        }
        self.unanswered += run.unanswered;
        self.failed += run.unanswered;
        self.attempted += run.done.len() + run.unanswered;
        let mut lat = Vec::with_capacity(run.done.len());
        for d in &run.done {
            let Some(Reply::Ok(r)) = &d.reply else {
                self.failed += 1;
                continue;
            };
            lat.push(d.lat_ms);
            self.lag.push(d.lag_ms);
            self.enc.push(d.encode_ns);
            self.dec.push(d.decode_ns);
            self.bytes += d.frame_bytes;
            // Transport and queueing: the latency less the same op's time
            // in the in-process replay and the codec's.
            self.residual
                .push(d.lat_ms - us[d.session][d.op] / 1e3 - (d.encode_ns + d.decode_ns) / 1e6);
            if let Response::CloseSession { spent, .. } = r {
                self.closes.push((run.session_ids[d.session], *spent));
            }
            if let Some(e) = &expect[d.session][d.op] {
                self.mismatches += usize::from(!serve::same_response(r, e));
            }
        }
        self.per_window.push(lat);
    }

    /// The next rung of the ladder, three windows long, each window with its
    /// own p99. One failing rung does not end a pass; two in a row do.
    fn rung(&mut self) {
        if self.ladder_done() {
            return;
        }
        let (first, step, n) = LADDER;
        let k = self.pass_start + self.rungs.len();
        let rate = first * step.powi(k as i32);
        let (sessions, due) = serve::schedule(&self.pool, 3, rate, &mut self.rng);
        let run = drive(self.svc.server.addr(), &sessions, &due);
        self.unanswered += run.unanswered;
        for d in &run.done {
            if let Some(Reply::Ok(Response::CloseSession { spent, .. })) = &d.reply {
                self.closes.push((run.session_ids[d.session], *spent));
            }
        }
        let rung = serve::rung_of(rate, &run, 3);
        self.failed += rung.failed;
        self.attempted += rung.attempted;
        println!(
            "wire ladder pass {}: {rate:.0} req/s offered, {:.0} req/s answered, p99 {:.3} ms (median of 3 windows), drained {:.3} ms after the last due time, {} failed of {}",
            self.passes.len() + 1,
            rung.achieved,
            rung.p99_ms,
            rung.drain_ms,
            rung.failed,
            rung.attempted
        );
        self.rungs.push(rung);
        let two_fail = self.rungs.len() >= 2
            && self
                .rungs
                .iter()
                .rev()
                .take(2)
                .all(|r| !r.passes(WIRE_LIMIT_MS));
        if two_fail || k + 1 >= n {
            let estimate = serve::max_rate(&self.rungs, WIRE_LIMIT_MS);
            println!(
                "wire ladder pass {}: {estimate:.0} req/s",
                self.passes.len() + 1
            );
            if self.passes.is_empty() {
                let best = self.rungs.iter().rposition(|r| r.passes(WIRE_LIMIT_MS));
                self.pass_start = best.map_or(0, |b| b.saturating_sub(2));
            }
            self.passes.push(estimate);
            self.rungs.clear();
        }
    }

    /// Stop the server, run the wire checks and summarize.
    fn finish(self, rep: &mut Report) -> Wire {
        rep.check(
            self.mismatches == 0,
            format!(
                "{} wire replies differ from the in-process Session replay",
                self.mismatches
            ),
        );
        // The median over every window's requests; the p99 per window, and
        // the median of those, so one burst of host noise moves one window's
        // p99.
        let p50 = Summary::new(self.per_window.concat())
            .median()
            .map_or(f64::NAN, |p| p.value);
        let p99 = median_of_groups(&self.per_window, 0.99).unwrap_or(f64::INFINITY);
        rep.check(
            p99.is_finite(),
            "wire_ms_p99 has fewer than 10 samples beyond it",
        );
        let max_rps = median(&self.passes);
        let (server, market) = serve::stop(self.svc);

        // Σ session spends, folded in session-id order, equals revenue
        // bitwise.
        let mut closes = self.closes;
        closes.sort_by_key(|c| c.0);
        let total = closes.iter().fold(0.0f64, |acc, c| acc + c.1);
        rep.check(
            total.to_bits() == market.revenue().to_bits(),
            format!(
                "sum of session ledgers {total} != marketplace revenue {}",
                market.revenue()
            ),
        );
        rep.check(
            server.protocol_errors == 0,
            format!("{} protocol errors", server.protocol_errors),
        );
        rep.check(
            server.timeouts == 0,
            format!("{} server timeouts", server.timeouts),
        );
        rep.check(
            self.unanswered == 0,
            format!("{} wire requests were never answered", self.unanswered),
        );
        rep.attempted += self.attempted as u64;
        rep.failed += self.failed as u64;
        let frames = self.enc.len();
        println!(
            "wire: {frames} requests at {WIRE_RATE:.0} req/s, p50 {p50:.3} ms, p99 {p99:.3} ms (median of {} windows' p99); \
             max rate within {WIRE_LIMIT_MS} ms p99: {max_rps:.0} req/s (median of {} passes)",
            self.per_window.len(),
            self.passes.len()
        );
        Wire {
            p50,
            p99,
            max_rps,
            lag_p99: Summary::new(self.lag).pct(0.99),
            residual: Summary::new(self.residual),
            encode_ns: Summary::new(self.enc),
            decode_ns: Summary::new(self.dec),
            frame_bytes: self.bytes as f64 / frames.max(1) as f64,
            replay_us: self.replay_us,
            server,
        }
    }
}

/// Per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    rep: &mut Report,
    tr: &Tracer,
    t: &LoopOut,
    d: &Dance,
    i_edges: usize,
    untraced_p50: f64,
    traced_p50: f64,
    wire: &Wire,
) {
    let agg = tr.aggregate();
    let requests = t.lat_ms.len() as f64;
    let span = |name: &str| agg.get(name).copied().unwrap_or_default();
    // Mean self time per call of `name` (ms), with its call count.
    let per_call = |rep: &mut Report, metric: &str, name: &str| {
        let a = span(name);
        rep.put(
            metric,
            a.self_ns as f64 / 1e6 / (a.calls.max(1) as f64),
            "ms",
        );
        rep.put(format!("{metric}.n"), a.calls as f64, "count");
    };
    per_call(
        rep,
        "market.marketplace.buy_sample_ms",
        "market.marketplace.buy_sample",
    );
    per_call(rep, "core.join_graph.build_ms", "core.join_graph.build");
    rep.put("core.join_graph.i_edges", i_edges as f64, "count");
    // Search layers: self time per request, so the shares add up to the
    // traced request latency.
    for (metric, name) in [
        ("core.dance.covers_ms", "core.dance.covers"),
        ("core.landmark.build_ms", "core.landmark.build"),
        ("core.igraph.candidates_ms", "core.igraph.candidates"),
        ("core.mcmc.search_ms", "core.mcmc.search"),
    ] {
        let a = span(name);
        rep.put(metric, a.self_ns as f64 / 1e6 / requests.max(1.0), "ms");
        rep.put(format!("{metric}.n"), a.calls as f64, "count");
    }
    rep.put(
        "core.igraph.count",
        tr.counter("core.igraph.count") / requests.max(1.0),
        "count",
    );
    rep.put(
        "core.mcmc.walks",
        tr.counter("core.mcmc.walks") / requests.max(1.0),
        "count",
    );
    rep.put(
        "core.multichain.chains",
        tr.counter("core.multichain.chains") / tr.counter("core.mcmc.walks").max(1.0),
        "count",
    );
    let ratio = |(h, m): (u64, u64)| h as f64 / ((h + m).max(1)) as f64;
    rep.put("core.join_graph.sel_hit_ratio", ratio(t.sel), "ratio");
    rep.put(
        "core.join_graph.sel_hit_ratio.n",
        (t.sel.0 + t.sel.1) as f64,
        "count",
    );
    rep.put("core.join_graph.proj_hit_ratio", ratio(t.proj), "ratio");
    rep.put(
        "core.join_graph.proj_hit_ratio.n",
        (t.proj.0 + t.proj.1) as f64,
        "count",
    );
    rep.put(
        "core.join_graph.sel_cache_len",
        d.graph().sel_cache_len() as f64,
        "count",
    );
    rep.put(
        "core.join_graph.sel_cache_cap",
        d.graph().sel_cache_cap() as f64,
        "count",
    );
    rep.put(
        "core.join_graph.proj_cache_len",
        d.graph().proj_cache_len() as f64,
        "count",
    );
    rep.put("core.acquire.requests", requests, "count");

    // Cold kernel re-evaluation, per distinct plan (pair_sel per hop).
    let plans = tr.counter("core.dance.cold_eval.plans");
    per_call(rep, "relation.sel.pair_sel_ms", "relation.sel.pair_sel");
    for (metric, name) in [
        (
            "sampling.resample.join_tree_ms",
            "sampling.resample.join_tree",
        ),
        ("info.correlation.corr_ms", "info.correlation.corr"),
        ("quality.joint.quality_ms", "quality.joint.quality"),
        ("market.pricing.price_ms", "market.pricing.price"),
    ] {
        let a = span(name);
        rep.put(metric, a.self_ns as f64 / 1e6 / plans.max(1.0), "ms");
        rep.put(format!("{metric}.n"), a.calls as f64, "count");
    }
    for c in [
        "sampling.resample.join_rows",
        "sampling.resample.max_intermediate",
        "sampling.resample.resampled_steps",
    ] {
        rep.put(c, tr.counter(c) / plans.max(1.0), "count");
    }
    rep.put("core.dance.cold_eval.plans", plans, "count");

    // Updates.
    per_call(
        rep,
        "market.marketplace.apply_update_ms",
        "market.marketplace.apply_update",
    );
    per_call(
        rep,
        "core.delta.apply_sample_delta_ms",
        "core.delta.apply_sample_delta",
    );
    rep.put(
        "core.delta.delta_rows",
        tr.counter("core.delta.delta_rows") / tr.counter("core.delta.updates").max(1.0),
        "count",
    );
    per_call(
        rep,
        "core.dance.evaluate_true_ms",
        "core.dance.evaluate_true",
    );

    // Wire.
    for (k, name) in gen::OP_KINDS.iter().enumerate() {
        let s = Summary::new(wire.replay_us[k].clone());
        rep.put(format!("market.session.{name}_us"), s.mean(), "us");
        rep.put(format!("market.session.{name}_us.n"), s.n() as f64, "count");
    }
    rep.put("market.wire.encode_us", wire.encode_ns.mean() / 1e3, "us");
    rep.put("market.wire.decode_us", wire.decode_ns.mean() / 1e3, "us");
    rep.put("market.wire.frame_bytes", wire.frame_bytes, "bytes");
    rep.put("market.wire.frames.n", wire.encode_ns.n() as f64, "count");
    rep.put(
        "wire.residual_ms_p50",
        wire.residual.median().map_or(f64::NAN, |p| p.value),
        "ms",
    );
    rep.put("wire.residual_ms_p50.n", wire.residual.n() as f64, "count");
    rep.put(
        "wire.gen_lag_ms_p99",
        wire.lag_p99.map_or(f64::NAN, |p| p.value),
        "ms",
    );
    rep.put(
        "wire.gen_lag_ms_p99.n",
        wire.lag_p99.map_or(0, |p| p.n) as f64,
        "count",
    );
    let s = &wire.server;
    rep.put(
        "market.server.requests_served",
        s.requests_served as f64,
        "count",
    );
    rep.put("market.server.rate_limited", s.rate_limited as f64, "count");
    rep.put(
        "market.server.protocol_errors",
        s.protocol_errors as f64,
        "count",
    );
    rep.put("market.server.timeouts", s.timeouts as f64, "count");
    rep.put(
        "market.server.sessions_peak_open",
        s.sessions_peak_open as f64,
        "count",
    );

    // Tracing overhead: traced minus untraced acquisition median.
    rep.put("trace.acquire_ms_p50_untraced", untraced_p50, "ms");
    rep.put("trace.acquire_ms_p50_traced", traced_p50, "ms");
    rep.put("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    rep.put(
        "trace.overhead_pct",
        100.0 * (traced_p50 - untraced_p50) / untraced_p50,
        "%",
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <tpch_zipf|wire_open> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // Everything runs on one CPU: on a small shared host, work spread over
    // several CPUs measures how the host schedules them, not the program.
    // The machine's CPU count is read first: it sizes the server's workers.
    let nproc = nproc();
    let cpu = pin_to_one_cpu();
    let started = Instant::now();
    let cpu0 = cpu_times();
    let mut rep = run(&args, nproc, cpu);
    let cpu1 = cpu_times();
    // End-to-end metrics are printed with --trace 0, per-layer ones with 1.
    if args.trace {
        let keep: Vec<_> = rep
            .metrics
            .iter()
            .filter(|(n, ..)| n.contains('.'))
            .cloned()
            .collect();
        rep.metrics = keep;
    }
    for (name, value, unit) in &rep.metrics {
        println!("  {name:<42} {value:>14.4} {unit}");
    }
    for f in &rep.failures {
        println!("CHECK FAILED: {f}");
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status
        .lines()
        .find(|l| l.starts_with("VmHWM"))
        .unwrap_or("VmHWM: unknown");
    let total: u64 = cpu1.iter().zip(&cpu0).map(|(a, b)| a - b).sum();
    let steal = cpu1.get(7).zip(cpu0.get(7)).map_or(0, |(a, b)| a - b);
    println!(
        "elapsed {:.1} s, peak memory {}, CPU time stolen by the host {:.1}%",
        started.elapsed().as_secs_f64(),
        hwm.trim_start_matches("VmHWM:").trim(),
        100.0 * steal as f64 / total.max(1) as f64
    );
    println!("{}", rep.json());
    if !rep.failures.is_empty() {
        std::process::exit(1);
    }
}

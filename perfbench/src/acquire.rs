//! The shopper side: offline phase, closed-loop `Dance::acquire` requests,
//! seller updates with the shopper's delta fold, and the traced replays that
//! split one acquisition into its layers.

use crate::gen::Churn;
use crate::trace::Tracer;
use dance::core::igraph::candidate_igraphs;
use dance::core::landmark::LandmarkIndex;
use dance::core::mcmc::find_optimal_target_graph;
use dance::core::{
    AcquisitionPlan, AcquisitionRequest, Dance, DanceConfig, JoinGraph, McmcConfig, TargetGraph,
};
use dance::datagen::churn::churn_delta;
use dance::info::correlation::{correlation_with, CorrOptions};
use dance::market::wire::table_digest;
use dance::market::{DatasetId, EntropyPricing, Marketplace};
use dance::quality::joint::instance_set_quality;
use dance::relation::hash::stable_hash64;
use dance::relation::join::JoinEdge;
use dance::relation::sel::pair_sel_with;
use dance::relation::{AttrSet, Result, Table, TableDelta};
use dance::sampling::correlated::CorrelatedSampler;
use dance::sampling::resample::join_tree_bounded_with;
use std::collections::BTreeMap;
use std::time::Instant;

/// Middleware configuration of every acquisition workload.
pub fn dance_config(seed: u64, chains: usize) -> DanceConfig {
    DanceConfig {
        seed,
        // No refinement: a request that finds no plan at the offline
        // sampling rate reports "not found" instead of silently buying
        // more samples and changing every later request's inputs.
        refine_rounds: 0,
        mcmc: McmcConfig {
            iterations: 60,
            seed,
            chains,
            ..McmcConfig::default()
        },
        ..DanceConfig::default()
    }
}

/// Fraction of rows each seller update deletes and inserts.
pub const CHURN_FRACTION: f64 = 0.01;

/// What closed-loop passes over the request stream produced.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Per-request latency, ms.
    pub lat_ms: Vec<f64>,
    /// Requests that returned a plan satisfying their constraints.
    pub found: usize,
    /// Requests that returned an error.
    pub errors: usize,
    /// Plans whose estimated metrics violate their request's constraints.
    pub bad_plans: usize,
    /// Digest of each request's outcome, in request order.
    pub digests: Vec<u64>,
    /// First plan seen per pool index (the distinct requests' plans).
    pub first_plan: BTreeMap<usize, AcquisitionPlan>,
    /// Selection-cache `(hits, misses)` over the loop.
    pub sel: (u64, u64),
    /// Projection-cache `(hits, misses)` over the loop.
    pub proj: (u64, u64),
}

/// Stable digest of an acquisition outcome (plan structure, metric bits and
/// queries; attribute names, not process-local ids).
pub fn plan_digest(plan: &Option<AcquisitionPlan>) -> u64 {
    let Some(p) = plan else {
        return stable_hash64(0, "no plan");
    };
    let names = |a: &AttrSet| a.iter().map(|id| id.name().to_string()).collect::<Vec<_>>();
    let g = &p.graph;
    let mut h = stable_hash64(1, &g.tree_edges);
    for j in &g.join_attrs {
        h = stable_hash64(h, &names(j));
    }
    for (v, a) in &g.projections {
        h = stable_hash64(h, &(*v, names(a)));
    }
    h = stable_hash64(
        h,
        &[
            g.corr.to_bits(),
            g.weight.to_bits(),
            g.quality.to_bits(),
            g.price.to_bits(),
        ],
    );
    for q in &p.queries {
        h = stable_hash64(h, &(q.dataset.0, &q.dataset_name, names(&q.attrs)));
    }
    h
}

/// `true` when the plan's reported metrics are its graph's and satisfy the
/// request's constraints.
fn plan_ok(plan: &AcquisitionPlan, req: &AcquisitionRequest) -> bool {
    let (e, g) = (&plan.estimated, &plan.graph);
    g.admits(&req.constraints)
        && e.correlation.to_bits() == g.corr.to_bits()
        && e.quality.to_bits() == g.quality.to_bits()
        && e.price.to_bits() == g.price.to_bits()
        && e.join_informativeness.to_bits() == g.weight.to_bits()
}

/// How the loop issues each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Dance::acquire`, the public entry point.
    Acquire,
    /// [`traced_search`]: the same search rebuilt from its public pieces.
    Decomposed,
}

/// Everything one closed loop needs.
pub struct LoopInput<'a> {
    /// Request pool.
    pub pool: &'a [AcquisitionRequest],
    /// Pool index per request.
    pub stream: &'a [usize],
    /// Middleware configuration (for the decomposed search).
    pub cfg: &'a DanceConfig,
}

/// Closed loop: one shopper issues the next request when the previous one
/// returns, for every request of the stream, appending to `out`; `between`
/// runs (untimed) after every `every` requests.
#[allow(clippy::too_many_arguments)]
pub fn run_loop(
    market: &Marketplace,
    dance: &mut Dance,
    input: &LoopInput<'_>,
    mode: Mode,
    tr: &mut Tracer,
    every: usize,
    between: &mut dyn FnMut(),
    out: &mut LoopOut,
) {
    let sel0 = dance.graph().sel_cache_stats();
    let proj0 = dance.graph().proj_cache_stats();
    for (i, &pi) in input.stream.iter().enumerate() {
        if i > 0 && i % every == 0 {
            between();
        }
        let req = &input.pool[pi];
        tr.set_req(i as u64);
        let t0 = Instant::now();
        let res = match mode {
            Mode::Acquire => dance.acquire(market, req),
            Mode::Decomposed => traced_search(dance, input.cfg, req, tr),
        };
        out.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match res {
            Ok(plan) => {
                if let Some(p) = &plan {
                    if plan_ok(p, req) {
                        out.found += 1;
                    } else {
                        out.bad_plans += 1;
                    }
                    out.first_plan.entry(pi).or_insert_with(|| p.clone());
                }
                out.digests.push(plan_digest(&plan));
            }
            Err(_) => {
                out.errors += 1;
                out.digests.push(stable_hash64(2, "error"));
            }
        }
    }
    let (s1, p1) = (
        dance.graph().sel_cache_stats(),
        dance.graph().proj_cache_stats(),
    );
    out.sel.0 += s1.0 - sel0.0;
    out.sel.1 += s1.1 - sel0.1;
    out.proj.0 += p1.0 - proj0.0;
    out.proj.1 += p1.1 - proj0.1;
}

/// The sample-level delta matching a seller's full-table `delta`: the
/// deleted rows the shopper's correlated sample holds (by sample position)
/// and the inserted rows whose key the sampler keeps.
fn sample_delta(
    full: &Table,
    delta: &TableDelta,
    key: &AttrSet,
    rate: f64,
    seed: u64,
) -> Result<TableDelta> {
    let cols = full.attr_indices(key)?;
    let sampler = CorrelatedSampler::new(rate, seed);
    let mut gone = delta.deleted().iter().copied().peekable();
    let mut deleted = Vec::new();
    let mut pos = 0u32;
    for r in 0..full.num_rows() as u32 {
        let del = gone.peek() == Some(&r);
        if del {
            gone.next();
        }
        if sampler.score(&full.key(r as usize, &cols)) < sampler.rate {
            if del {
                deleted.push(pos);
            }
            pos += 1;
        }
    }
    let inserted = delta
        .inserted()
        .iter()
        .filter(|row| {
            let k: Vec<_> = cols.iter().map(|&c| row[c].clone()).collect();
            sampler.score(&k) < sampler.rate
        })
        .cloned()
        .collect();
    Ok(TableDelta::new(inserted, deleted))
}

/// One seller update and the shopper's fold of it; returns the timed part
/// (`apply_update` + `apply_sample_delta`) in ms.
pub fn seller_update(
    market: &Marketplace,
    dance: &mut Dance,
    cfg: &DanceConfig,
    c: Churn,
    tr: &mut Tracer,
) -> Result<f64> {
    let id = DatasetId(c.dataset);
    let full = market.full_table_for_evaluation(id)?;
    let delta = churn_delta(&full, CHURN_FRACTION, CHURN_FRACTION, c.seed);
    let key = dance.graph().meta(c.dataset).default_key.clone();
    let sdelta = sample_delta(&full, &delta, &key, dance.current_rate(), cfg.seed)?;
    tr.count("core.delta.delta_rows", sdelta.len() as f64);
    tr.count("core.delta.updates", 1.0);
    let t0 = Instant::now();
    let s = tr.begin("market.marketplace.apply_update");
    market.apply_update(id, &delta)?;
    tr.end(s);
    let s = tr.begin("core.delta.apply_sample_delta");
    dance.apply_sample_delta(c.dataset, &sdelta)?;
    tr.end(s);
    Ok(t0.elapsed().as_secs_f64() * 1e3)
}

/// `true` when vertex `v`'s delta-maintained sample equals a fresh sample
/// of the marketplace's current table.
pub fn sample_is_fresh(market: &Marketplace, dance: &Dance, cfg: &DanceConfig, v: u32) -> bool {
    let key = &dance.graph().meta(v).default_key;
    match market
        .snapshot()
        .sample(DatasetId(v), key, dance.current_rate(), cfg.seed)
    {
        Ok((fresh, _)) => table_digest(&fresh) == table_digest(dance.graph().sample(v)),
        Err(_) => false,
    }
}

/// `Dance::search` rebuilt from its public pieces — covers, landmarks,
/// Step 1 candidates, Step 2 per I-graph — with a span around each.
pub fn traced_search(
    dance: &Dance,
    cfg: &DanceConfig,
    req: &AcquisitionRequest,
    tr: &mut Tracer,
) -> Result<Option<AcquisitionPlan>> {
    let graph = dance.graph();
    let s = tr.begin("core.dance.covers");
    let scovers = dance.covers_of(&req.source_attrs);
    let tcovers = dance.covers_of(&req.target_attrs);
    tr.end(s);
    if scovers.is_empty() || tcovers.is_empty() {
        return Ok(None);
    }
    let lm = tr.time("core.landmark.build", || {
        LandmarkIndex::build(graph, cfg.landmarks, cfg.seed)
    });
    let mut candidates = Vec::new();
    'pairs: for sc in &scovers {
        for tc in &tcovers {
            if candidates.len() >= cfg.max_cover_pairs {
                break 'pairs;
            }
            let mut required: Vec<u32> = sc.keys().chain(tc.keys()).copied().collect();
            required.sort_unstable();
            required.dedup();
            if required.is_empty() {
                continue;
            }
            let igs = tr.time("core.igraph.candidates", || {
                candidate_igraphs(graph, &lm, &required, req.constraints.alpha)
            });
            tr.count("core.igraph.count", igs.len() as f64);
            for ig in igs {
                candidates.push((ig.total_weight, ig, sc, tc));
            }
        }
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut best: Option<TargetGraph> = None;
    for (_, ig, sc, tc) in candidates.into_iter().take(cfg.max_igraphs) {
        tr.count("core.mcmc.walks", 1.0);
        tr.count("core.multichain.chains", cfg.mcmc.chains.max(1) as f64);
        let s = tr.begin("core.mcmc.search");
        let found = find_optimal_target_graph(
            graph,
            dance.free_vertices(),
            &ig.edges,
            sc,
            tc,
            &req.source_attrs,
            &req.target_attrs,
            &req.constraints,
            &cfg.mcmc,
        );
        tr.end(s);
        if let Some(tg) = found? {
            if best.as_ref().is_none_or(|b| tg.corr > b.corr) {
                best = Some(tg);
            }
        }
    }
    Ok(best.map(|tg| {
        AcquisitionPlan::from_target_graph(tg, dance.free_vertices(), |v| {
            let m = graph.meta(v);
            Some((m.id, m.name.clone()))
        })
    }))
}

/// The offline phase rebuilt from its public pieces (sample purchases, then
/// the join-graph build), traced. Returns whether its I-edges equal the
/// graph `Dance::offline` built.
pub fn traced_offline(
    market: &Marketplace,
    cfg: &DanceConfig,
    reference: &JoinGraph,
    tr: &mut Tracer,
) -> Result<bool> {
    let catalog = market.catalog();
    let mut samples = Vec::with_capacity(catalog.len());
    for meta in &catalog {
        let (sample, _) = tr.time("market.marketplace.buy_sample", || {
            market.buy_sample(meta.id, &meta.default_key, cfg.sampling_rate, cfg.seed)
        })?;
        samples.push(sample);
    }
    let graph = tr.time("core.join_graph.build", || {
        JoinGraph::build(catalog, samples, EntropyPricing::default(), &cfg.graph)
    })?;
    let key = |g: &JoinGraph| -> Vec<(u32, u32, u64)> {
        g.i_edges()
            .iter()
            .map(|e| (e.a, e.b, e.weight.to_bits()))
            .collect()
    };
    Ok(key(&graph) == key(reference))
}

/// Re-evaluate `plan` cold on the samples, one kernel call per layer, each
/// in a span. Returns whether the kernels reproduce the plan's estimated
/// correlation, quality and price bit for bit.
pub fn cold_eval(
    dance: &Dance,
    cfg: &DanceConfig,
    plan: &AcquisitionPlan,
    req: &AcquisitionRequest,
    tr: &mut Tracer,
) -> Result<bool> {
    let graph = dance.graph();
    let exec = graph.executor();
    let g = &plan.graph;
    let order: Vec<u32> = g.projections.keys().copied().collect();
    let projected: Vec<Table> = order
        .iter()
        .map(|&v| graph.sample(v).project(&g.projections[&v]))
        .collect::<Result<_>>()?;
    let pos = |v: u32| {
        order
            .iter()
            .position(|&o| o == v)
            .expect("tree vertex is projected")
    };
    let edges: Vec<JoinEdge> = g
        .tree_edges
        .iter()
        .zip(&g.join_attrs)
        .map(|(&(a, b), on)| JoinEdge {
            a: pos(a),
            b: pos(b),
            on: on.clone(),
        })
        .collect();
    for e in &edges {
        let s = tr.begin("relation.sel.pair_sel");
        let sel = pair_sel_with(&exec, &projected[e.a], &projected[e.b], &e.on);
        tr.end(s);
        sel?;
    }
    let refs: Vec<&Table> = projected.iter().collect();
    let joined = if edges.is_empty() {
        projected[0].clone()
    } else {
        let s = tr.begin("sampling.resample.join_tree");
        let res = join_tree_bounded_with(&exec, &refs, &edges, cfg.mcmc.resample.as_ref());
        tr.end(s);
        let (joined, stats) = res?;
        tr.count(
            "sampling.resample.max_intermediate",
            stats.max_intermediate as f64,
        );
        tr.count(
            "sampling.resample.resampled_steps",
            stats.resampled_steps as f64,
        );
        joined
    };
    tr.count("sampling.resample.join_rows", joined.num_rows() as f64);
    let corr = if joined.num_rows() == 0 {
        0.0
    } else {
        let s = tr.begin("info.correlation.corr");
        let raw = correlation_with(
            &joined,
            &req.source_attrs,
            &req.target_attrs,
            CorrOptions::default(),
        );
        tr.end(s);
        let n = joined.num_rows() as f64;
        raw? * n / (n + 20.0)
    };
    let s = tr.begin("quality.joint.quality");
    let quality = instance_set_quality(&joined, &cfg.mcmc.tane);
    tr.end(s);
    let quality = quality?;
    let mut price = 0.0;
    let free = dance.free_vertices();
    for (&v, attrs) in &g.projections {
        if free.contains(&v) {
            continue;
        }
        let s = tr.begin("market.pricing.price");
        let p = graph.price(v, attrs);
        tr.end(s);
        price += p?;
    }
    Ok(corr.to_bits() == g.corr.to_bits()
        && quality.to_bits() == g.quality.to_bits()
        && price.to_bits() == g.price.to_bits())
}

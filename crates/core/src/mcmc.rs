//! Step 2 (§5.2, Algorithm 1): MCMC search over the AS-layer.
//!
//! Given the minimal weighted I-graph from Step 1, the remaining choice is
//! *which join attribute set each tree edge uses* — that choice fixes the
//! projection attribute set of every instance (incident join attributes plus
//! contributed source/target attributes), and with it the price, weight,
//! quality and correlation of the candidate purchase.
//!
//! The chain proposes replacing one edge's join attribute set with a
//! different candidate (uniformly), rejects proposals that violate the
//! constraints (Line 8), and otherwise accepts with probability
//! `min(1, CORR'/CORR)` (Line 9) — so the walk drifts toward high-correlation
//! target graphs while recording the best constraint-satisfying state it has
//! visited.
//!
//! ## Evaluation
//!
//! [`evaluate_assignment`] is the one evaluation kernel: the walk, the LP/GP
//! baselines (full tables instead of samples for GP) and the ground-truth
//! re-evaluation all call it. On the sample tier it reads through the
//! [`JoinGraph`]'s bounded caches, so a proposal — which flips exactly one
//! edge's join attribute set — only recomputes what that edge touches:
//!
//! * **Per-hop selection cache** — every hop whose probe key lives in one
//!   base table re-composes a [`JoinGraph::pair_sel`] cached per
//!   `(instance pair, join set)` ([`TreeJoin::advance_with_pair`]), so a
//!   flipped edge re-probes only its own hop. Full-data evaluation probes
//!   every hop directly.
//! * **Projection / price cache** — projected sample tables and entropy
//!   prices come from [`JoinGraph::projected_for_eval`] /
//!   [`JoinGraph::price_for_eval`], cached per `(instance, attr set)`; the
//!   price and weight folds always run over every component in canonical
//!   order, so each float is bit-equal to a cache-free evaluation.
//! * **Evaluation memo** — the walk looks every assignment up in the
//!   [`JoinGraph`]'s memo before calling [`evaluate_assignment`], and inserts
//!   the result after. The key is *(walk context, assignment)*: the context
//!   is everything an evaluation reads besides the assignment (tree, its
//!   candidate join sets, covers, AS/AT, the participating vertices' free
//!   flags and sample generations, the re-sampling and TANE settings),
//!   hashed once per walk. A revisited state costs one hash lookup — in the
//!   same walk, in another chain, or in a later request that walks the same
//!   tree. The sample generations in the key make entries for replaced
//!   samples unreachable, so seller updates sweep nothing
//!   ([`crate::join_graph::JoinGraphConfig::eval_memo_cap`] bounds it).
//!
//! Every cache is a pure function of its key, so a graph with all three caps
//! at 0 evaluates the same bits — the cache-free reference the tests pin
//! against. §3.2 re-sampling fires on the composed selection via
//! [`dance_sampling::resample::BoundedHook`] with unchanged step/seed
//! derivation, so seeded experiment reports stay byte-identical.

use crate::join_graph::JoinGraph;
use crate::request::Constraints;
use crate::target::Cover;
use dance_info::correlation::{correlation_with, CorrOptions};
use dance_info::ji::join_informativeness;
use dance_quality::tane::TaneConfig;
use dance_relation::hash::stable_hash64;
use dance_relation::join::JoinEdge;
use dance_relation::sel::TreeJoin;
use dance_relation::{AttrSet, FxHashMap, FxHashSet, RelationError, Result, Table};
use dance_sampling::resample::{BoundedHook, ResampleConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Tuning for Algorithm 1.
#[derive(Debug, Clone)]
pub struct McmcConfig {
    /// Number of iterations ℓ.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// §3.2 re-sampling of intermediate joins during evaluation.
    pub resample: Option<ResampleConfig>,
    /// AFD discovery settings for the quality estimate (Def 2.3).
    pub tane: TaneConfig,
    /// Number of independent MCMC chains ([`crate::multichain`]). `1` (the
    /// default) is the plain single-chain walk; `N > 1` runs N independently
    /// seeded chains — seeds derived per chain index from [`Self::seed`] —
    /// fanned over the graph's executor, and returns the deterministic
    /// best-of-N (first strict correlation maximum in chain-index order).
    /// The result for a given `(seed, chains)` is bit-identical at every
    /// thread count. `0` is treated as `1`.
    pub chains: usize,
    /// Temperature-ladder increment for multi-chain search: chain `k` runs
    /// at `T_k = 1 + k * temperature_step`, accepting with probability
    /// `min(1, (CORR'/CORR)^(1/T_k))`. Chain 0 always runs at `T = 1`
    /// (exactly the single-chain acceptance rule); `0.0` (the default) keeps
    /// every chain at `T = 1`. Ignored when `chains <= 1`.
    pub temperature_step: f64,
}

impl Default for McmcConfig {
    fn default() -> Self {
        McmcConfig {
            iterations: 120,
            seed: 0x0A16_0417,
            resample: Some(ResampleConfig::default()),
            tane: TaneConfig {
                error_threshold: 0.1,
                max_lhs: 1,
                max_attrs: 12,
            },
            chains: 1,
            temperature_step: 0.0,
        }
    }
}

/// A fully specified candidate purchase: tree + join attributes + projections,
/// with its measured metrics.
#[derive(Debug, Clone)]
pub struct TargetGraph {
    /// Tree edges over join-graph vertices.
    pub tree_edges: Vec<(u32, u32)>,
    /// Join attribute set per tree edge (aligned with `tree_edges`).
    pub join_attrs: Vec<AttrSet>,
    /// Projection attribute set per participating instance.
    pub projections: BTreeMap<u32, AttrSet>,
    /// `CORR(AS, AT)` measured on the (sampled or full) join.
    pub corr: f64,
    /// `w(TG)`: sum of per-edge join informativeness.
    pub weight: f64,
    /// `Q(TG)` (Definition 2.3).
    pub quality: f64,
    /// `p(TG)`: total price of the non-free projections.
    pub price: f64,
}

impl TargetGraph {
    /// `true` iff the metrics satisfy `c`.
    pub fn admits(&self, c: &Constraints) -> bool {
        c.admits(self.weight, self.quality, self.price)
    }
}

/// Evaluate one edge-assignment into a full [`TargetGraph`] — the one
/// evaluation path (see the module docs).
///
/// * `tables = None` → per-instance data comes from the join-graph samples
///   (the heuristic and LP paths), read through the graph's selection and
///   projection/price caches; edge weights come from the Property 4.1
///   table.
/// * `tables = Some(full)` → full-data evaluation (the GP path and final
///   plan reporting); edge weights are exact JI on the full tables and
///   prices are computed from the full tables too.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_assignment(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    tree_edges: &[(u32, u32)],
    join_attrs: &[AttrSet],
    source_cover: &Cover,
    target_cover: &Cover,
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    tables: Option<&[Table]>,
    resample: Option<&ResampleConfig>,
    tane: &TaneConfig,
) -> Result<TargetGraph> {
    if tree_edges.len() != join_attrs.len() {
        return Err(RelationError::Shape(format!(
            "{} edges vs {} join attribute sets",
            tree_edges.len(),
            join_attrs.len()
        )));
    }

    let vertices = participating_vertices(tree_edges, source_cover, target_cover);
    if vertices.is_empty() {
        return Err(RelationError::Shape("empty target graph".into()));
    }

    // Projection attribute set per vertex: incident join attrs ∪ cover
    // contributions.
    let mut projections: BTreeMap<u32, AttrSet> = BTreeMap::new();
    for v in vertices {
        let mut p = AttrSet::empty();
        for (&(a, b), on) in tree_edges.iter().zip(join_attrs) {
            if a == v || b == v {
                p = p.union(on);
            }
        }
        if let Some(s) = source_cover.get(&v) {
            p = p.union(s);
        }
        if let Some(t) = target_cover.get(&v) {
            p = p.union(t);
        }
        if p.is_empty() {
            return Err(RelationError::Shape(format!(
                "instance {v} participates with an empty projection"
            )));
        }
        projections.insert(v, p);
    }

    // w(TG): Property 4.1 lookups on the sample tier, exact JI on full data,
    // folded in edge order.
    let mut weight = 0.0;
    for (&(a, b), on) in tree_edges.iter().zip(join_attrs) {
        weight += match tables {
            None => graph.weight(a, b, on).ok_or_else(|| {
                RelationError::InvalidJoin(format!(
                    "no candidate weight for edge ({a},{b}) on {on}"
                ))
            })?,
            Some(full) => join_informativeness(&full[a as usize], &full[b as usize], on)?,
        };
    }
    // p(TG): non-free instances only, folded in ascending vertex order, each
    // component from the graph's price cache on the sample tier.
    let mut price = 0.0;
    for (&v, attrs) in &projections {
        if !free.contains(&v) {
            price += graph.price_for_eval(v, attrs, tables)?;
        }
    }

    // Join the projected instances along the tree, hop by hop. Projections
    // come from the graph's cache layer: the sample tier returns shared Arc
    // projections so repeated evaluations stop re-cloning column data.
    let order: Vec<u32> = projections.keys().copied().collect();
    let pos: FxHashMap<u32, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let projected: Vec<Arc<Table>> = order
        .iter()
        .map(|&v| graph.projected_for_eval(v, &projections[&v], tables))
        .collect::<Result<Vec<_>>>()?;
    let refs: Vec<&Table> = projected.iter().map(Arc::as_ref).collect();
    let joined_owned: Option<Table> = if tree_edges.is_empty() {
        None
    } else {
        let edges: Vec<JoinEdge> = tree_edges
            .iter()
            .zip(join_attrs)
            .map(|(&(a, b), on)| JoinEdge {
                a: pos[&a],
                b: pos[&b],
                on: on.clone(),
            })
            .collect();
        // Selection-vector tree join: per-hop selections composed on interned
        // symbols, one materialization, fanned out over the graph's executor.
        // On the sample tier a hop whose probe key lives in one base table
        // re-composes the graph's cached pair selection (a flipped edge only
        // misses on its own hop); full data probes every hop directly.
        let exec = graph.executor();
        let mut tj = TreeJoin::new(&refs, &edges)?;
        let mut hook = BoundedHook::new(resample);
        while let Some(hop) = tj.next_hop()? {
            match hop.key_base.filter(|_| tables.is_none()) {
                Some(kb) => {
                    let pair = graph.pair_sel(order[kb], order[hop.right], hop.on)?;
                    tj.advance_with_pair(&exec, &hop, &pair)?;
                }
                None => tj.advance(&exec, &hop)?,
            }
            tj.map_sel(|s| hook.apply(s));
        }
        Some(tj.materialize(&exec)?)
    };
    let joined: &Table = joined_owned.as_ref().unwrap_or_else(|| &projected[0]);

    let corr = eval_corr(joined, source_attrs, target_attrs, tables.is_some())?;
    let quality = dance_quality::joint::instance_set_quality(joined, tane)?;

    Ok(TargetGraph {
        tree_edges: tree_edges.to_vec(),
        join_attrs: join_attrs.to_vec(),
        projections,
        corr,
        weight,
        quality,
        price,
    })
}

/// Every vertex a target graph reads — tree-edge endpoints and cover
/// vertices — ascending.
fn participating_vertices(
    tree_edges: &[(u32, u32)],
    source_cover: &Cover,
    target_cover: &Cover,
) -> Vec<u32> {
    let mut vertices: Vec<u32> = tree_edges
        .iter()
        .flat_map(|&(a, b)| [a, b])
        .chain(source_cover.keys().chain(target_cover.keys()).copied())
        .collect();
    vertices.sort_unstable();
    vertices.dedup();
    vertices
}

/// `CORR(AS, AT)` on the joined result: the plug-in value on full data.
/// Sample-tier estimates are shrunk by n/(n + 20): plug-in correlation is
/// inflated on tiny joins (few rows per conditioning group force
/// H(X|Y) → 0), which would make the search prefer sparse detours; the
/// shrink vanishes as the sampled join grows and applies uniformly to every
/// candidate the search compares.
fn eval_corr(
    joined: &Table,
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    full_data: bool,
) -> Result<f64> {
    if joined.num_rows() == 0 {
        return Ok(0.0);
    }
    let raw = correlation_with(joined, source_attrs, target_attrs, CorrOptions::default())?;
    if full_data {
        return Ok(raw);
    }
    let n = joined.num_rows() as f64;
    Ok(raw * n / (n + 20.0))
}

/// Everything one walk's evaluations read besides the assignment: with the
/// candidate indices it determines a [`TargetGraph`] bit for bit, so it is
/// the first half of the graph's evaluation-memo key ([`EvalKey`]).
///
/// Built and hashed once per walk by [`run_single_chain`]. The participating
/// vertices' sample generations stand for their samples, histograms and
/// Property 4.1 weights (all of which a generation bump replaces), and their
/// free flags for the price fold's exemptions.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct WalkContext {
    /// `stable_hash64` of the fields below — all a key hashes of its
    /// context. First, so a mismatching context usually fails equality on
    /// one word.
    hash: u64,
    tree_edges: Vec<(u32, u32)>,
    /// Candidate join sets per tree edge.
    cands: Vec<Vec<AttrSet>>,
    source_cover: Cover,
    target_cover: Cover,
    source_attrs: AttrSet,
    target_attrs: AttrSet,
    /// Participating vertices, ascending.
    vertices: Vec<u32>,
    /// Per participating vertex: `(free, sample generation)`.
    vertex_state: Vec<(bool, u64)>,
    /// §3.2 re-sampling (`on`, η, rate, seed) and TANE (θ, max LHS, max
    /// attributes) settings, floats as bits.
    settings: [u64; 7],
}

impl Hash for WalkContext {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hash seed of [`WalkContext::hash`] (any fixed value works).
const WALK_CONTEXT_SEED: u64 = 0xE7A1_C0DE_3E30_0001;

/// Evaluation-memo key: one assignment (candidate index per tree edge) plus
/// its walk's context. A lookup hashes the indices and the context's
/// precomputed hash; equality compares the indices, then the context `Arc`
/// by pointer (every lookup within one walk) and otherwise field by field,
/// so two walks only ever share entries whose evaluation inputs are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct EvalKey {
    idxs: Box<[u32]>,
    ctx: Arc<WalkContext>,
}

impl EvalKey {
    /// `true` when this entry's walk reads instance `i` —
    /// [`JoinGraph::refresh_sample`] sweeps those entries out of the memo.
    pub(crate) fn reads(&self, i: u32) -> bool {
        self.ctx.vertices.binary_search(&i).is_ok()
    }
}

impl WalkContext {
    #[allow(clippy::too_many_arguments)] // mirrors evaluate_assignment's surface
    fn new(
        graph: &JoinGraph,
        free: &FxHashSet<u32>,
        tree_edges: &[(u32, u32)],
        cands: &[&[AttrSet]],
        source_cover: &Cover,
        target_cover: &Cover,
        source_attrs: &AttrSet,
        target_attrs: &AttrSet,
        cfg: &McmcConfig,
    ) -> WalkContext {
        let vertices = participating_vertices(tree_edges, source_cover, target_cover);
        let vertex_state = vertices
            .iter()
            .map(|v| (free.contains(v), graph.sample_gen(*v)))
            .collect();
        let rs = cfg.resample.unwrap_or_default();
        let settings = [
            u64::from(cfg.resample.is_some()),
            rs.eta as u64,
            rs.rate.to_bits(),
            rs.seed,
            cfg.tane.error_threshold.to_bits(),
            cfg.tane.max_lhs as u64,
            cfg.tane.max_attrs as u64,
        ];
        let mut ctx = WalkContext {
            hash: 0,
            tree_edges: tree_edges.to_vec(),
            cands: cands.iter().map(|c| c.to_vec()).collect(),
            source_cover: source_cover.clone(),
            target_cover: target_cover.clone(),
            source_attrs: source_attrs.clone(),
            target_attrs: target_attrs.clone(),
            vertices,
            vertex_state,
            settings,
        };
        ctx.hash = stable_hash64(
            WALK_CONTEXT_SEED,
            &(
                &ctx.tree_edges,
                &ctx.cands,
                &ctx.source_cover,
                &ctx.target_cover,
                &ctx.source_attrs,
                &ctx.target_attrs,
                &ctx.vertices,
                &ctx.vertex_state,
                &ctx.settings,
            ),
        );
        ctx
    }
}

/// Algorithm 1: find the optimal target graph at the AS-layer of `ig`.
///
/// Returns the best constraint-satisfying state visited, or `None` when no
/// visited state satisfied the constraints. Proposals evaluate through the
/// graph's memo and [`evaluate_assignment`] (see the module docs).
/// [`McmcConfig::chains`] > 1 fans the walk into N independently seeded
/// parallel chains with a deterministic best-of-N reduction — see
/// [`crate::multichain`] for the seed/temperature/determinism contract.
#[allow(clippy::too_many_arguments)]
pub fn find_optimal_target_graph(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    tree_edges: &[(u32, u32)],
    source_cover: &Cover,
    target_cover: &Cover,
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    constraints: &Constraints,
    cfg: &McmcConfig,
) -> Result<Option<TargetGraph>> {
    // Candidate join sets, fetched once per edge before the walk.
    let mut cands: Vec<&[AttrSet]> = Vec::with_capacity(tree_edges.len());
    for &(a, b) in tree_edges {
        let c = graph.candidate_join_sets(a, b);
        if c.is_empty() {
            return Err(RelationError::InvalidJoin(format!(
                "no join candidates between instances {a} and {b}"
            )));
        }
        cands.push(c);
    }

    // Initial assignment: the minimum-weight candidate per edge (the same
    // choice Definition 4.2 uses for I-edge weights; first minimum on ties,
    // as `min_by` with `total_cmp` resolved them).
    let assignment: Vec<u32> = cands
        .iter()
        .zip(tree_edges)
        .map(|(c, &(a, b))| {
            let mut best = 0usize;
            let mut best_w = f64::INFINITY;
            for (i, cand) in c.iter().enumerate() {
                let w = graph.weight(a, b, cand).unwrap_or(f64::INFINITY);
                if w.total_cmp(&best_w) == std::cmp::Ordering::Less {
                    best_w = w;
                    best = i;
                }
            }
            best as u32
        })
        .collect();

    let best = if cfg.chains > 1 {
        crate::multichain::multichain_search(
            graph,
            free,
            tree_edges,
            &cands,
            &assignment,
            source_cover,
            target_cover,
            source_attrs,
            target_attrs,
            constraints,
            cfg,
        )?
    } else {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        run_single_chain(
            graph,
            free,
            tree_edges,
            &cands,
            &assignment,
            source_cover,
            target_cover,
            source_attrs,
            target_attrs,
            constraints,
            cfg,
            1.0,
            &mut rng,
        )?
    };
    Ok(best.map(Arc::unwrap_or_clone))
}

/// One seeded chain of Algorithm 1's walk over a prepared candidate space:
/// builds the walk's [`WalkContext`] and runs [`walk_chain`] with an
/// evaluation that looks the assignment up in the graph's memo, and on a
/// miss calls [`evaluate_assignment`] and inserts the result. The
/// single-chain entry point calls this with temperature 1 —
/// [`crate::multichain`] calls it once per chain, with the chain's derived
/// RNG and its ladder temperature. Every chain evaluates through the
/// graph's one memo, so chains and requests share evaluations there.
#[allow(clippy::too_many_arguments)] // mirrors find_optimal_target_graph's surface
pub(crate) fn run_single_chain(
    graph: &JoinGraph,
    free: &FxHashSet<u32>,
    tree_edges: &[(u32, u32)],
    cands: &[&[AttrSet]],
    initial: &[u32],
    source_cover: &Cover,
    target_cover: &Cover,
    source_attrs: &AttrSet,
    target_attrs: &AttrSet,
    constraints: &Constraints,
    cfg: &McmcConfig,
    temperature: f64,
    rng: &mut StdRng,
) -> Result<Option<Arc<TargetGraph>>> {
    let ctx = Arc::new(WalkContext::new(
        graph,
        free,
        tree_edges,
        cands,
        source_cover,
        target_cover,
        source_attrs,
        target_attrs,
        cfg,
    ));
    let mut evaluate = |idxs: &[u32]| -> Result<Arc<TargetGraph>> {
        let key = EvalKey {
            idxs: Box::from(idxs),
            ctx: Arc::clone(&ctx),
        };
        if let Some(tg) = graph.eval_memo.get(&key) {
            return Ok(tg);
        }
        let attrs: Vec<AttrSet> = idxs
            .iter()
            .zip(cands)
            .map(|(&i, c)| c[i as usize].clone())
            .collect();
        let tg = Arc::new(evaluate_assignment(
            graph,
            free,
            tree_edges,
            &attrs,
            source_cover,
            target_cover,
            source_attrs,
            target_attrs,
            None,
            cfg.resample.as_ref(),
            &cfg.tane,
        )?);
        graph.eval_memo.insert(key, Arc::clone(&tg));
        Ok(tg)
    };
    walk_chain(
        &mut evaluate,
        cands,
        initial,
        constraints,
        cfg.iterations,
        temperature,
        rng,
    )
}

/// The Metropolis walk itself (Algorithm 1 lines 4–13), generic over the
/// evaluation closure. At `temperature == 1.0` the acceptance rule is exactly
/// the paper's `min(1, CORR'/CORR)` — bit-identical RNG consumption to the
/// pre-multichain loop — while hotter chains flatten the ratio to
/// `(CORR'/CORR)^(1/T)` so they cross low-correlation valleys more readily.
/// States are shared `Arc` handles, so tracking the current and best state
/// never copies a target graph.
fn walk_chain(
    evaluate: &mut impl FnMut(&[u32]) -> Result<Arc<TargetGraph>>,
    cands: &[&[AttrSet]],
    initial: &[u32],
    constraints: &Constraints,
    iterations: usize,
    temperature: f64,
    rng: &mut StdRng,
) -> Result<Option<Arc<TargetGraph>>> {
    let mut assignment = initial.to_vec();
    let mut current = evaluate(&assignment)?;
    let mut best = current.admits(constraints).then(|| Arc::clone(&current));
    if cands.is_empty() {
        return Ok(best);
    }

    for _ in 0..iterations {
        // Line 5–6: random edge, random different candidate. Candidates are
        // distinct, so "a different candidate" is a draw over k − 1 indices
        // skipping the current one — the same distribution (and the same RNG
        // consumption) as the retired filtered-Vec scheme, without the
        // per-iteration allocation.
        let e = rng.random_range(0..cands.len());
        let k = cands[e].len();
        if k <= 1 {
            continue;
        }
        let draw = rng.random_range(0..k - 1);
        let pick = if draw >= assignment[e] as usize {
            draw + 1
        } else {
            draw
        };
        let mut proposal_assign = assignment.clone();
        proposal_assign[e] = pick as u32;
        let proposal = evaluate(&proposal_assign)?;

        // Line 8: constraint gate.
        if !proposal.admits(constraints) {
            continue;
        }
        // Line 9: Metropolis acceptance on correlation, flattened by the
        // chain's temperature (T = 1 skips the `powf` entirely so the
        // single-chain path stays bit-exact with the historical rule).
        let base = proposal.corr / current.corr.max(1e-12);
        let ratio = if temperature == 1.0 {
            base
        } else {
            base.powf(1.0 / temperature)
        };
        if ratio >= 1.0 || rng.random::<f64>() < ratio {
            assignment = proposal_assign;
            current = proposal;
            // Line 11–13: track the best accepted state.
            if best.as_ref().is_none_or(|b| current.corr > b.corr) {
                best = Some(Arc::clone(&current));
            }
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_graph::JoinGraphConfig;
    use dance_market::{DatasetId, DatasetMeta, EntropyPricing};
    use dance_relation::{Table, Value, ValueType};

    /// Two instances sharing two possible join attributes:
    /// `mc_good` (correlation-preserving) and `mc_noise` (correlation-killing).
    fn two_key_graph() -> JoinGraph {
        two_key_graph_with(&JoinGraphConfig::default())
    }

    /// [`two_key_graph`] built under `cfg`.
    fn two_key_graph_with(cfg: &JoinGraphConfig) -> JoinGraph {
        let n = 240;
        let left: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % 12),                 // mc_good
                    Value::Int(i % 5),                  // mc_noise
                    Value::str(format!("s{}", i % 12)), // mc_src (determined by mc_good)
                ]
            })
            .collect();
        let right: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int(i % 12),
                    Value::Int((i * 7 + 3) % 5),
                    Value::str(format!("t{}", i % 12)), // mc_tgt (determined by mc_good)
                ]
            })
            .collect();
        let lt = Table::from_rows(
            "L",
            &[
                ("mc_good", ValueType::Int),
                ("mc_noise", ValueType::Int),
                ("mc_src", ValueType::Str),
            ],
            left,
        )
        .unwrap();
        let rt = Table::from_rows(
            "R",
            &[
                ("mc_good", ValueType::Int),
                ("mc_noise", ValueType::Int),
                ("mc_tgt", ValueType::Str),
            ],
            right,
        )
        .unwrap();
        let metas = vec![
            DatasetMeta {
                id: DatasetId(0),
                name: "L".into(),
                schema: lt.schema().clone(),
                num_rows: lt.num_rows(),
                default_key: AttrSet::from_names(["mc_good"]),
                version: 0,
            },
            DatasetMeta {
                id: DatasetId(1),
                name: "R".into(),
                schema: rt.schema().clone(),
                num_rows: rt.num_rows(),
                default_key: AttrSet::from_names(["mc_good"]),
                version: 0,
            },
        ];
        JoinGraph::build(metas, vec![lt, rt], EntropyPricing::default(), cfg).unwrap()
    }

    fn covers() -> (Cover, Cover) {
        let mut sc = Cover::new();
        sc.insert(0, AttrSet::from_names(["mc_src"]));
        let mut tc = Cover::new();
        tc.insert(1, AttrSet::from_names(["mc_tgt"]));
        (sc, tc)
    }

    #[test]
    fn evaluation_produces_consistent_metrics() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let tg = evaluate_assignment(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &[AttrSet::from_names(["mc_good"])],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            None,
            None,
            &TaneConfig::default(),
        )
        .unwrap();
        assert!(tg.corr > 0.0);
        assert!((0.0..=1.0).contains(&tg.weight));
        assert!((0.0..=1.0).contains(&tg.quality));
        assert!(tg.price > 0.0);
        // Projections include join + contributed attrs.
        assert!(tg.projections[&0].contains(dance_relation::attr("mc_good")));
        assert!(tg.projections[&0].contains(dance_relation::attr("mc_src")));
        assert!(tg.projections[&1].contains(dance_relation::attr("mc_tgt")));
    }

    #[test]
    fn free_instances_cost_nothing() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let mut free = FxHashSet::default();
        free.insert(0u32);
        let paid = evaluate_assignment(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &[AttrSet::from_names(["mc_good"])],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            None,
            None,
            &TaneConfig::default(),
        )
        .unwrap();
        let with_free = evaluate_assignment(
            &g,
            &free,
            &[(0, 1)],
            &[AttrSet::from_names(["mc_good"])],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            None,
            None,
            &TaneConfig::default(),
        )
        .unwrap();
        assert!(with_free.price < paid.price);
        assert!(with_free.price > 0.0, "instance 1 still paid");
    }

    #[test]
    fn mcmc_finds_the_correlating_join_attribute() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let best = find_optimal_target_graph(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            &Constraints::unbounded(),
            &McmcConfig {
                iterations: 60,
                seed: 5,
                resample: None,
                ..McmcConfig::default()
            },
        )
        .unwrap()
        .expect("unconstrained search finds something");
        // Joining on mc_good keeps src↔tgt correlation (both determined by
        // the key); joining on mc_noise destroys it.
        assert!(
            best.join_attrs[0].contains(dance_relation::attr("mc_good")),
            "best join attrs: {}",
            best.join_attrs[0]
        );
        assert!(best.corr > 1.0, "corr = {}", best.corr);
    }

    #[test]
    fn constraints_filter_results() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let impossible = Constraints {
            alpha: f64::INFINITY,
            beta: 0.0,
            budget: 1e-9, // nothing is this cheap
        };
        let r = find_optimal_target_graph(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            &impossible,
            &McmcConfig {
                iterations: 30,
                seed: 5,
                resample: None,
                ..McmcConfig::default()
            },
        )
        .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let run = |seed| {
            find_optimal_target_graph(
                &g,
                &FxHashSet::default(),
                &[(0, 1)],
                &sc,
                &tc,
                &AttrSet::from_names(["mc_src"]),
                &AttrSet::from_names(["mc_tgt"]),
                &Constraints::unbounded(),
                &McmcConfig {
                    iterations: 40,
                    seed,
                    resample: None,
                    ..McmcConfig::default()
                },
            )
            .unwrap()
            .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.join_attrs, b.join_attrs);
        assert!((a.corr - b.corr).abs() < 1e-12);
    }

    /// Walks on graphs with the default selection/projection caches walk to
    /// the bit-identical best state as the cache-free reference (a fresh
    /// graph with all three evaluation caps at 0) on the two-key graph —
    /// with re-sampling firing, across the graph's memo caps (including
    /// 0 = memo disabled), cold and warm.
    #[test]
    fn cached_walk_matches_cache_free_walk() {
        let (sc, tc) = covers();
        let run = |g: &JoinGraph| {
            find_optimal_target_graph(
                g,
                &FxHashSet::default(),
                &[(0, 1)],
                &sc,
                &tc,
                &AttrSet::from_names(["mc_src"]),
                &AttrSet::from_names(["mc_tgt"]),
                &Constraints::unbounded(),
                &McmcConfig {
                    iterations: 50,
                    seed: 17,
                    resample: Some(dance_sampling::ResampleConfig {
                        eta: 64,
                        rate: 0.5,
                        seed: 9,
                    }),
                    ..McmcConfig::default()
                },
            )
            .unwrap()
            .expect("unconstrained search finds something")
        };
        let cache_free = two_key_graph_with(&JoinGraphConfig {
            sel_cache_cap: 0,
            proj_cache_cap: 0,
            eval_memo_cap: 0,
            ..JoinGraphConfig::default()
        });
        let reference = run(&cache_free);
        assert_eq!(cache_free.sel_cache_len(), 0);
        assert_eq!(cache_free.proj_cache_len(), 0);
        assert_eq!(cache_free.eval_memo_len(), 0);
        for memo_cap in [0usize, 1, 512] {
            // A fresh graph per cap: the comparison starts genuinely cold.
            let g = two_key_graph_with(&JoinGraphConfig {
                eval_memo_cap: memo_cap,
                ..JoinGraphConfig::default()
            });
            for _ in 0..2 {
                let cached = run(&g);
                assert_eq!(cached.join_attrs, reference.join_attrs, "cap {memo_cap}");
                assert_eq!(cached.projections, reference.projections);
                assert_eq!(cached.corr.to_bits(), reference.corr.to_bits());
                assert_eq!(cached.weight.to_bits(), reference.weight.to_bits());
                assert_eq!(cached.quality.to_bits(), reference.quality.to_bits());
                assert_eq!(cached.price.to_bits(), reference.price.to_bits());
            }
            assert!(g.sel_cache_len() > 0, "walk populated the selection cache");
            assert!(
                g.proj_cache_len() > 0,
                "walk populated the projection cache"
            );
        }
    }

    #[test]
    fn mismatched_assignment_length_rejected() {
        let g = two_key_graph();
        let (sc, tc) = covers();
        let r = evaluate_assignment(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &[],
            &sc,
            &tc,
            &AttrSet::from_names(["mc_src"]),
            &AttrSet::from_names(["mc_tgt"]),
            None,
            None,
            &TaneConfig::default(),
        );
        assert!(r.is_err());
    }
}

//! The two-layer join graph (Definition 4.2, Property 4.1).
//!
//! * **I-layer**: one vertex per marketplace instance; an I-edge wherever two
//!   instances share at least one attribute name. The I-edge weight is the
//!   minimum AS-edge weight across all candidate join attribute sets.
//! * **AS-layer**: never materialized. Property 4.1 says all AS-edges between
//!   the same pair of instances with the same join attribute set `J` share
//!   one weight — so the whole AS-layer's edge structure collapses into a map
//!   `(i, j, J) → JI` keyed by the pair and `J`, sized by the number of
//!   *shared*-attribute subsets rather than `2^m` lattice vertices.
//!
//! All weights are §3 estimates from the samples the offline phase bought;
//! AS-vertex prices are estimated from the same samples via the marketplace's
//! (public) pricing model.
//!
//! ## Parallel construction
//!
//! [`JoinGraph::build`] fans out across the [`Executor`] threaded in through
//! [`JoinGraphConfig`]: first one histogram task per distinct
//! (instance, candidate-join-set), then one JI task per
//! (instance-pair, candidate-join-set). Both phases read a shared,
//! per-instance histogram cache; results are folded back in the sequential
//! pair-enumeration order, so the produced edges and weights are identical at
//! every thread count. The cache outlives the build (it becomes the
//! [`JoinGraph`]'s own), and [`JoinGraph::refresh_sample`] draws partner-side
//! histograms from it instead of recounting partner samples on every
//! refinement round. Eviction is two-fold: an instance's entries are dropped
//! when its sample is replaced (staleness), and after every build/refresh the
//! cache is trimmed to [`JoinGraphConfig::hist_cache_cap`] total entries,
//! least-recently-used first (memory bound) — evicted histograms are simply
//! recounted on the next round that needs them.
//!
//! ## Interned symbols
//!
//! Histograms are [`SymCounts`]: keys are interned-symbol word vectors, not
//! materialized `GroupKey` values. Samples of registry-interned catalogs
//! (`dance_relation::InternerRegistry`) share per-attribute dictionaries, so
//! the JI folds compare dictionary codes verbatim; catalogs with private
//! dictionaries degrade to a per-distinct-value symbol translation inside
//! [`ji_from_sym_counts`]. Either way no boxed key is built anywhere in
//! `build`/`refresh_sample`.

use crate::cache::{ShardedLru, StampedLru};
use crate::mcmc::{EvalKey, TargetGraph};
use dance_info::ji::{ji_from_sym_counts, PairPartials};
use dance_market::{DatasetMeta, EntropyPricing, PricingModel};
use dance_relation::sel::pair_sel_with;
use dance_relation::{
    sym_counts_with, AttrSet, Executor, FxHashMap, FxHashSet, PairSel, RelationError, Result,
    SymCounts, Table,
};
use std::sync::Arc;

/// One cached histogram plus its last-use stamp (for LRU trimming).
#[derive(Debug)]
pub(crate) struct CacheEntry {
    pub(crate) hist: SymCounts,
    pub(crate) stamp: u64,
}

/// Per-instance cache of symbol histograms, keyed by candidate join
/// attribute set.
pub(crate) type HistCache = FxHashMap<AttrSet, CacheEntry>;

/// Default total-entry bound of the persistent histogram cache.
pub const DEFAULT_HIST_CACHE_CAP: usize = 1024;

/// Default bound on cached per-hop pair selections ([`JoinGraph::pair_sel`]).
pub const DEFAULT_SEL_CACHE_CAP: usize = 256;

/// Default bound on cached per-(instance, attr-set) projections + prices
/// ([`JoinGraph::projected_for_eval`] / [`JoinGraph::price_for_eval`]).
pub const DEFAULT_PROJ_CACHE_CAP: usize = 256;

/// Default bound on materialized per-pair-category partial-sum tables
/// (`apply_delta`'s incident-edge JI maintenance state).
pub const DEFAULT_PARTIALS_CACHE_CAP: usize = 256;

/// Default bound on the MCMC evaluation memo (`(walk context, assignment)
/// → TargetGraph`), spread over 16 shards of 256. A TPC-H shopper's whole
/// request pool evaluates a few hundred distinct target graphs, so the
/// steady state fits with room for the generations seller updates strand.
pub const DEFAULT_EVAL_MEMO_CAP: usize = 4096;

/// Construction knobs for [`JoinGraph::build`].
#[derive(Debug, Clone, Copy)]
pub struct JoinGraphConfig {
    /// Enumerate every non-empty subset of a shared attribute set as a join
    /// candidate while the shared set has at most this many attributes;
    /// larger shared sets fall back to singletons + the full set.
    pub max_enum_join_attrs: usize,
    /// Executor the build/refresh fan-outs run on (defaults to
    /// [`Executor::global`], i.e. `DANCE_THREADS`). Stored in the graph so
    /// refinement rounds reuse it.
    pub executor: Executor,
    /// Upper bound on *total* cached histograms across all instances
    /// (LRU-evicted after every build/refresh). Without a bound the cache
    /// holds every (instance, candidate-set) histogram ever probed — the
    /// build-time peak made permanent.
    pub hist_cache_cap: usize,
    /// Upper bound on cached per-hop pair selections (the MCMC search's
    /// selection cache, stamped-LRU like the histogram cache; 0 disables).
    pub sel_cache_cap: usize,
    /// Upper bound on cached sample projections / price estimates per
    /// (instance, attribute set) (stamped-LRU; 0 disables).
    pub proj_cache_cap: usize,
    /// Upper bound on the materialized per-pair-category partial-sum tables
    /// `apply_delta` maintains for O(changed categories) incident-edge JI
    /// updates (stamped-LRU; 0 disables). An evicted pair transparently falls
    /// back to the patched-histogram fold — same bits, more work per delta.
    pub partials_cache_cap: usize,
    /// Upper bound on the MCMC evaluation memo: fully evaluated target
    /// graphs keyed by *(walk context, assignment)*, shared by every walk,
    /// chain and request on this graph (stamped-LRU, sharded like the
    /// selection cache; 0 disables). An entry is about 1 KiB on the TPC-H
    /// workloads, so the default bounds the memo to a few MiB.
    pub eval_memo_cap: usize,
}

impl Default for JoinGraphConfig {
    fn default() -> Self {
        JoinGraphConfig {
            max_enum_join_attrs: 4,
            executor: Executor::global(),
            hist_cache_cap: DEFAULT_HIST_CACHE_CAP,
            sel_cache_cap: DEFAULT_SEL_CACHE_CAP,
            proj_cache_cap: DEFAULT_PROJ_CACHE_CAP,
            partials_cache_cap: DEFAULT_PARTIALS_CACHE_CAP,
            eval_memo_cap: DEFAULT_EVAL_MEMO_CAP,
        }
    }
}

/// One I-edge's worth of work during construction: the pair, its shared
/// attributes, and the candidate join sets to weigh.
struct PairWork {
    i: u32,
    j: u32,
    common: AttrSet,
    cands: Vec<AttrSet>,
}

/// Inner (nested-chunking) worker count for one histogram work item: the
/// **work-size heuristic** that splits giant samples' counting kernels across
/// otherwise-idle executor workers when the catalog offers fewer
/// (instance, candidate-set) items than the pool has threads.
///
/// With at least `threads` items every kernel runs sequentially inside its
/// `par_map` worker — the fan-out alone saturates the pool, and nested
/// chunking would only oversubscribe it. With fewer items, each item's inner
/// pool is sized by its **row share** of the round's total work, so one giant
/// sample next to a handful of tiny dimension tables claims (almost) the
/// whole pool instead of a uniform `threads / items` slice; the sum of
/// shares stays ≤ `threads` up to the per-item minimum of one. Executor
/// sizing never affects results — every kernel is bit-identical at every
/// thread count — so the heuristic is purely a scheduling decision.
fn inner_workers(threads: usize, items: usize, rows: usize, total_rows: usize) -> usize {
    if items >= threads || total_rows == 0 {
        return 1;
    }
    ((threads * rows) / total_rows).clamp(1, threads)
}

/// Compute every histogram in `needed` that is not already cached, in
/// parallel over `exec`, and insert the results (stamped off `clock` in item
/// order). Each item's counting kernel runs on a nested executor sized by
/// [`inner_workers`].
pub(crate) fn fill_hist_cache(
    exec: &Executor,
    hists: &mut [HistCache],
    samples: &[Table],
    needed: Vec<(u32, AttrSet)>,
    clock: &mut u64,
) -> Result<()> {
    if needed.is_empty() {
        return Ok(());
    }
    let threads = exec.threads();
    let total_rows: usize = needed
        .iter()
        .map(|(side, _)| samples[*side as usize].num_rows())
        .sum();
    let computed: Result<Vec<SymCounts>> = exec
        .par_map(&needed, |_, (side, cand)| {
            let t = &samples[*side as usize];
            let inner = Executor::new(inner_workers(
                threads,
                needed.len(),
                t.num_rows(),
                total_rows,
            ));
            sym_counts_with(&inner, t, cand)
        })
        .into_iter()
        .collect();
    for ((side, cand), hist) in needed.into_iter().zip(computed?) {
        *clock += 1;
        hists[side as usize].insert(
            cand,
            CacheEntry {
                hist,
                stamp: *clock,
            },
        );
    }
    Ok(())
}

/// Bump the stamps of every already-cached entry this round reads, in the
/// (deterministic) enumeration order of `used`.
pub(crate) fn touch_hist_cache(hists: &mut [HistCache], used: &[(u32, AttrSet)], clock: &mut u64) {
    for (side, cand) in used {
        if let Some(e) = hists[*side as usize].get_mut(cand) {
            *clock += 1;
            e.stamp = *clock;
        }
    }
}

/// Trim the cache to `cap` total entries, evicting the globally
/// least-recently-stamped first. Stamps are unique, so eviction order is
/// deterministic.
pub(crate) fn trim_hist_cache(hists: &mut [HistCache], cap: usize) {
    let total: usize = hists.iter().map(FxHashMap::len).sum();
    if total <= cap {
        return;
    }
    let mut entries: Vec<(u64, u32, AttrSet)> = hists
        .iter()
        .enumerate()
        .flat_map(|(side, cache)| {
            cache
                .iter()
                .map(move |(cand, e)| (e.stamp, side as u32, cand.clone()))
        })
        .collect();
    entries.sort_unstable_by_key(|e| e.0);
    for (_, side, cand) in entries.into_iter().take(total - cap) {
        hists[side as usize].remove(&cand);
    }
}

/// An I-layer edge.
#[derive(Debug, Clone)]
pub struct IEdge {
    /// Endpoint instance indices (`a < b`).
    pub a: u32,
    /// Second endpoint.
    pub b: u32,
    /// Shared attribute names `AS(v_a) ∩ AS(v_b)`.
    pub common: AttrSet,
    /// `min_J` of the candidate AS-edge weights (Definition 4.2's I-weight).
    pub weight: f64,
}

/// The two-layer join graph built from samples.
#[derive(Debug)]
pub struct JoinGraph {
    pub(crate) metas: Vec<DatasetMeta>,
    pub(crate) samples: Vec<Table>,
    pub(crate) i_edges: Vec<IEdge>,
    /// Adjacency: vertex → indices into `i_edges`.
    pub(crate) adj: Vec<Vec<u32>>,
    /// Property 4.1 weight table: (min(i,j), max(i,j), J) → estimated JI.
    pub(crate) weights: FxHashMap<(u32, u32, AttrSet), f64>,
    /// Candidate join attribute sets per edge (aligned with `i_edges`).
    pub(crate) candidates: Vec<Vec<AttrSet>>,
    pricing: EntropyPricing,
    /// Executor the build ran on; refresh fan-outs reuse it.
    pub(crate) exec: Executor,
    /// Per-instance histogram cache (one entry per candidate join set
    /// recently probed against that instance's sample). Shared read-only
    /// across workers during build/refresh. Evicted on staleness (an
    /// instance's entries drop when its sample is refreshed — delta updates
    /// instead *patch* them in place, see `JoinGraph::apply_delta`) and
    /// trimmed to `cache_cap` total entries LRU-first after every
    /// build/refresh/delta round.
    pub(crate) hists: Vec<HistCache>,
    /// Monotone use-stamp source for LRU trimming.
    pub(crate) clock: u64,
    /// Total-entry bound on `hists` (from [`JoinGraphConfig`]).
    pub(crate) cache_cap: usize,
    /// Per-instance sample **generation**: bumped every time instance `i`'s
    /// sample changes ([`Self::refresh_sample`] and `apply_delta` alike).
    /// Every evaluation-cache key embeds the generations of the instances it
    /// reads, so an entry built against a replaced sample can never be
    /// served again — staleness is structural, not swept.
    pub(crate) gens: Vec<u64>,
    /// Materialized per-pair-category partial sums for incident-edge JI
    /// re-weighing: `(a, b, J) → PairPartials` (directly-comparable pairs
    /// only). Filled lazily by `apply_delta`, patched from per-candidate
    /// change lists on later deltas, and dropped whenever a full refresh
    /// replaces either endpoint's sample. Stamped-LRU bounded by
    /// [`JoinGraphConfig::partials_cache_cap`]; an evicted pair is rebuilt
    /// from its patched histograms on the next delta that needs it (bit-equal
    /// to the maintained table, just O(histogram) instead of O(delta)).
    pub(crate) partials: StampedLru<(u32, u32, AttrSet), PairPartials>,
    /// Per-hop selection cache: `(probe instance, probe generation, build
    /// instance, build generation, join attrs) → PairSel` over the two
    /// samples. Filled through `&self` during the MCMC search and
    /// stamped-LRU bounded, sharded by key hash (one lock per shard) so
    /// concurrent chains share each other's selections instead of
    /// serializing on one lock. The embedded generations make stale entries
    /// unreachable the moment either side's sample changes;
    /// [`Self::refresh_sample`] additionally sweeps them out eagerly, while
    /// `apply_delta` *patches* them to the new generation instead.
    pub(crate) sel_cache: ShardedLru<SelKey, Arc<PairSel>>,
    /// Projection/price cache per `(instance, generation, attribute set)`:
    /// the projected sample table and its entropy-price estimate, each
    /// filled lazily by whichever evaluation path first needs it. Same
    /// sharding, bounding and staleness rules as `sel_cache`.
    pub(crate) proj_cache: ShardedLru<(u32, u64, AttrSet), ProjEntry>,
    /// The MCMC evaluation memo: `(walk context, assignment) → TargetGraph`
    /// (see `crate::mcmc`'s module docs). The walk context embeds the
    /// sample generations of every instance the walk reads, so a delta or
    /// refresh strands stale entries without a sweep on the update path;
    /// [`Self::refresh_sample`] still sweeps them eagerly, like the other
    /// caches. Bounded by [`JoinGraphConfig::eval_memo_cap`].
    pub(crate) eval_memo: ShardedLru<EvalKey, Arc<TargetGraph>>,
}

/// Selection-cache key: `(probe instance, probe generation, build instance,
/// build generation, join attrs)`.
pub(crate) type SelKey = (u32, u64, u32, u64, AttrSet);

/// One projection-cache entry; both fields fill in lazily. Cloning is two
/// `Option` copies (the table is an `Arc` handle), so the sharded cache's
/// clone-out reads stay cheap.
#[derive(Debug, Default, Clone)]
pub(crate) struct ProjEntry {
    table: Option<Arc<Table>>,
    price: Option<f64>,
}

impl JoinGraph {
    /// Build from per-instance metadata and samples (offline phase, §4).
    ///
    /// `metas[i]` must describe `samples[i]`. Weights are estimated JI values
    /// (Equation 6) computed directly on the samples.
    pub fn build(
        metas: Vec<DatasetMeta>,
        samples: Vec<Table>,
        pricing: EntropyPricing,
        cfg: &JoinGraphConfig,
    ) -> Result<JoinGraph> {
        if metas.len() != samples.len() {
            return Err(RelationError::Shape(format!(
                "{} metas vs {} samples",
                metas.len(),
                samples.len()
            )));
        }
        let n = metas.len();
        let exec = cfg.executor;

        // Pair enumeration stays sequential (schema intersections are cheap);
        // it fixes the deterministic edge order everything below folds into.
        let mut pairs: Vec<PairWork> = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let common = metas[i].schema.common(&metas[j].schema);
                if common.is_empty() {
                    continue;
                }
                let cands = candidate_sets(&common, cfg.max_enum_join_attrs);
                pairs.push(PairWork {
                    i: i as u32,
                    j: j as u32,
                    common,
                    cands,
                });
            }
        }

        // Candidate join sets repeat heavily across partners (every pair
        // sharing an attribute probes its singleton), so key histograms are
        // one task per *distinct* (instance, candidate set) and every
        // incident pair reads the shared result. The cache holds the whole
        // catalog's probed histograms at once — the price of sharing it
        // across workers and, after build, across refinement rounds.
        let mut needed: Vec<(u32, AttrSet)> = Vec::new();
        let mut seen: FxHashSet<(u32, AttrSet)> = FxHashSet::default();
        for p in &pairs {
            for cand in &p.cands {
                for side in [p.i, p.j] {
                    if seen.insert((side, cand.clone())) {
                        needed.push((side, cand.clone()));
                    }
                }
            }
        }
        let mut hists: Vec<HistCache> = (0..n).map(|_| HistCache::default()).collect();
        let mut clock = 0u64;
        fill_hist_cache(&exec, &mut hists, &samples, needed, &mut clock)?;

        // One JI task per (pair, candidate) work item, all reading the shared
        // cache; `par_map` returns in item order, so the fold below consumes
        // the flat result exactly as the sequential double loop would.
        let items: Vec<(u32, u32)> = pairs
            .iter()
            .enumerate()
            .flat_map(|(p, pair)| (0..pair.cands.len() as u32).map(move |c| (p as u32, c)))
            .collect();
        let jis: Vec<f64> = exec.par_map(&items, |_, &(p, c)| {
            let pair = &pairs[p as usize];
            let cand = &pair.cands[c as usize];
            ji_from_sym_counts(
                &hists[pair.i as usize][cand].hist,
                &hists[pair.j as usize][cand].hist,
            )
        });

        let mut i_edges = Vec::with_capacity(pairs.len());
        let mut adj = vec![Vec::new(); n];
        let mut weights = FxHashMap::default();
        let mut candidates = Vec::with_capacity(pairs.len());
        let mut k = 0;
        for pair in pairs {
            let mut best = f64::INFINITY;
            for cand in &pair.cands {
                let w = jis[k];
                k += 1;
                weights.insert((pair.i, pair.j, cand.clone()), w);
                best = best.min(w);
            }
            let edge_idx = i_edges.len() as u32;
            i_edges.push(IEdge {
                a: pair.i,
                b: pair.j,
                common: pair.common,
                weight: best,
            });
            candidates.push(pair.cands);
            adj[pair.i as usize].push(edge_idx);
            adj[pair.j as usize].push(edge_idx);
        }
        trim_hist_cache(&mut hists, cfg.hist_cache_cap);
        Ok(JoinGraph {
            gens: vec![0; metas.len()],
            metas,
            samples,
            i_edges,
            adj,
            weights,
            candidates,
            pricing,
            exec,
            hists,
            clock,
            cache_cap: cfg.hist_cache_cap,
            partials: StampedLru::new(cfg.partials_cache_cap),
            sel_cache: ShardedLru::new(cfg.sel_cache_cap),
            proj_cache: ShardedLru::new(cfg.proj_cache_cap),
            eval_memo: ShardedLru::new(cfg.eval_memo_cap),
        })
    }

    /// Total histograms currently held by the persistent cache (bounded by
    /// [`JoinGraphConfig::hist_cache_cap`]).
    pub fn hist_cache_len(&self) -> usize {
        self.hists.iter().map(FxHashMap::len).sum()
    }

    /// Number of I-vertices.
    pub fn num_instances(&self) -> usize {
        self.metas.len()
    }

    /// Instance metadata.
    pub fn meta(&self, i: u32) -> &DatasetMeta {
        &self.metas[i as usize]
    }

    /// All metadata.
    pub fn metas(&self) -> &[DatasetMeta] {
        &self.metas
    }

    /// The sample of instance `i`.
    pub fn sample(&self, i: u32) -> &Table {
        &self.samples[i as usize]
    }

    /// Replace the sample of instance `i` (iterative refinement, §2.1) and
    /// re-estimate the weights of its incident edges, fanning the partner
    /// work items out over the graph's executor.
    ///
    /// Staleness follows the **generation-stamp model**: the replacement
    /// bumps `i`'s sample generation, and since every evaluation-cache key
    /// embeds the generations of the instances it reads, entries built
    /// against the old sample can never be served again — correctness does
    /// not depend on any sweep. The `retain` passes below are purely a
    /// memory courtesy (unreachable entries would otherwise sit in the
    /// bounded caches until LRU pressure pushed them out). Partner-side
    /// entries survive: their samples, and hence their generations, did not
    /// change. The same holds for histograms — only the refreshed instance's
    /// entries are dropped and recounted; partner-side histograms come
    /// straight from the persistent cache. For an *incremental* change to a
    /// sample, prefer [`Self::apply_delta`], which patches all of this state
    /// in O(delta) instead of dropping and recounting it.
    pub fn refresh_sample(&mut self, i: u32, sample: Table) -> Result<()> {
        self.samples[i as usize] = sample;
        self.gens[i as usize] += 1;
        self.hists[i as usize] = HistCache::default(); // evict stale entries
        self.partials.retain(|&(a, b, _)| a != i && b != i);
        self.sel_cache.retain(|&(a, _, b, _, _)| a != i && b != i);
        self.proj_cache.retain(|&(v, _, _)| v != i);
        self.eval_memo.retain(|k| !k.reads(i));
        let exec = self.exec;
        let incident: Vec<u32> = self.adj[i as usize].clone();

        // Everything this round reads, in deterministic enumeration order:
        // cached entries get their LRU stamps bumped, missing ones (the
        // evicted instance, plus any partner entry the size cap trimmed) are
        // recounted.
        let mut used: Vec<(u32, AttrSet)> = Vec::new();
        let mut needed: Vec<(u32, AttrSet)> = Vec::new();
        let mut seen: FxHashSet<(u32, AttrSet)> = FxHashSet::default();
        for &e in &incident {
            let edge = &self.i_edges[e as usize];
            for cand in &self.candidates[e as usize] {
                for side in [edge.a, edge.b] {
                    if !seen.insert((side, cand.clone())) {
                        continue;
                    }
                    used.push((side, cand.clone()));
                    if !self.hists[side as usize].contains_key(cand) {
                        needed.push((side, cand.clone()));
                    }
                }
            }
        }
        touch_hist_cache(&mut self.hists, &used, &mut self.clock);
        fill_hist_cache(
            &exec,
            &mut self.hists,
            &self.samples,
            needed,
            &mut self.clock,
        )?;

        // One JI task per (incident edge, candidate), partner instances
        // re-weighed in parallel off the shared cache.
        let items: Vec<(u32, u32)> = incident
            .iter()
            .flat_map(|&e| (0..self.candidates[e as usize].len() as u32).map(move |c| (e, c)))
            .collect();
        let jis: Vec<f64> = {
            let (hists, i_edges, candidates) = (&self.hists, &self.i_edges, &self.candidates);
            exec.par_map(&items, |_, &(e, c)| {
                let edge = &i_edges[e as usize];
                let cand = &candidates[e as usize][c as usize];
                ji_from_sym_counts(
                    &hists[edge.a as usize][cand].hist,
                    &hists[edge.b as usize][cand].hist,
                )
            })
        };

        let mut k = 0;
        for &e in &incident {
            let (a, b) = (self.i_edges[e as usize].a, self.i_edges[e as usize].b);
            let mut best = f64::INFINITY;
            for cand in &self.candidates[e as usize] {
                let w = jis[k];
                k += 1;
                self.weights.insert((a, b, cand.clone()), w);
                best = best.min(w);
            }
            self.i_edges[e as usize].weight = best;
        }
        trim_hist_cache(&mut self.hists, self.cache_cap);
        Ok(())
    }

    /// All I-edges.
    pub fn i_edges(&self) -> &[IEdge] {
        &self.i_edges
    }

    /// Indices (into [`Self::i_edges`]) of edges incident to `v`.
    pub fn incident(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// The edge between `a` and `b`, if any.
    pub fn edge_between(&self, a: u32, b: u32) -> Option<&IEdge> {
        let (lo, hi) = (a.min(b), a.max(b));
        self.i_edges.iter().find(|e| e.a == lo && e.b == hi)
    }

    /// Candidate join attribute sets of the edge between `a` and `b`.
    pub fn candidate_join_sets(&self, a: u32, b: u32) -> &[AttrSet] {
        let (lo, hi) = (a.min(b), a.max(b));
        self.i_edges
            .iter()
            .position(|e| e.a == lo && e.b == hi)
            .map(|i| self.candidates[i].as_slice())
            .unwrap_or(&[])
    }

    /// Property 4.1 lookup: estimated JI of joining `a`/`b` on `j`.
    pub fn weight(&self, a: u32, b: u32, j: &AttrSet) -> Option<f64> {
        let (lo, hi) = (a.min(b), a.max(b));
        self.weights.get(&(lo, hi, j.clone())).copied()
    }

    /// Estimated price of the AS-vertex `(instance, attrs)` (entropy pricing
    /// evaluated on the sample — unbiased for the full-instance price up to
    /// entropy estimation error).
    pub fn price(&self, i: u32, attrs: &AttrSet) -> Result<f64> {
        self.pricing.price(&self.samples[i as usize], attrs)
    }

    /// The pricing model used for AS-vertex price estimates.
    pub fn pricing(&self) -> &EntropyPricing {
        &self.pricing
    }

    /// Cached inner pair selection between the samples of `probe` and
    /// `build` on `on`: every probe-side row's ascending match list in the
    /// build side. Computed once per `(probe, build, on, sample generation)`
    /// — the key embeds both sides' generations, so entries for replaced
    /// samples are unreachable, and [`Self::apply_delta`] re-keys patched
    /// entries to the new generation — and re-composed by every MCMC
    /// proposal whose tree keeps this hop. Misses recompute transparently
    /// (parallel partitioned build plus chunked probe on the graph's
    /// executor); the cache is stamped-LRU bounded by
    /// [`JoinGraphConfig::sel_cache_cap`] and sharded by key hash, so
    /// concurrent chains reuse each other's selections with contention only
    /// on same-shard keys.
    pub fn pair_sel(&self, probe: u32, build: u32, on: &AttrSet) -> Result<Arc<PairSel>> {
        let key = (
            probe,
            self.gens[probe as usize],
            build,
            self.gens[build as usize],
            on.clone(),
        );
        if let Some(p) = self.sel_cache.get(&key) {
            return Ok(p);
        }
        // Compute outside any shard lock: a miss costs a full build + probe,
        // and concurrent searches must not serialize on it (a racing
        // duplicate computes the identical selection).
        let pair = Arc::new(pair_sel_with(
            &self.exec,
            &self.samples[probe as usize],
            &self.samples[build as usize],
            on,
        )?);
        self.sel_cache.insert(key, Arc::clone(&pair));
        Ok(pair)
    }

    /// The projected table evaluation joins for vertex `v`: a cached `Arc`
    /// projection of the sample when `full` is `None` (the search path —
    /// repeated proposals stop re-cloning column data every iteration), a
    /// fresh projection of the caller's full table otherwise (the GP /
    /// ground-truth path; full-table evaluations are rare and never cached).
    pub fn projected_for_eval(
        &self,
        v: u32,
        attrs: &AttrSet,
        full: Option<&[Table]>,
    ) -> Result<Arc<Table>> {
        if let Some(full) = full {
            return Ok(Arc::new(full[v as usize].project(attrs)?));
        }
        let key = (v, self.gens[v as usize], attrs.clone());
        if let Some(t) = self.proj_cache.get(&key).and_then(|e| e.table) {
            return Ok(t);
        }
        // Project outside any shard lock; a racing duplicate projects the
        // identical table and the write below folds into whichever entry won.
        let t = Arc::new(self.samples[v as usize].project(attrs)?);
        self.proj_cache.update_or_insert(
            key,
            |e| e.table = Some(Arc::clone(&t)),
            || ProjEntry {
                table: Some(Arc::clone(&t)),
                price: None,
            },
        );
        Ok(t)
    }

    /// The price evaluation charges for `(v, attrs)`: the cached
    /// [`Self::price`] estimate on the sample when `full` is `None`, the
    /// exact price on the caller's full table otherwise. Shares the
    /// projection cache's entries (same key), so one knob bounds both.
    pub fn price_for_eval(&self, v: u32, attrs: &AttrSet, full: Option<&[Table]>) -> Result<f64> {
        if let Some(full) = full {
            return self.pricing.price(&full[v as usize], attrs);
        }
        let key = (v, self.gens[v as usize], attrs.clone());
        if let Some(p) = self.proj_cache.get(&key).and_then(|e| e.price) {
            return Ok(p);
        }
        let p = self.price(v, attrs)?;
        self.proj_cache.update_or_insert(
            key,
            |e| e.price = Some(p),
            || ProjEntry {
                table: None,
                price: Some(p),
            },
        );
        Ok(p)
    }

    /// Current sample generation of instance `i`: 0 at build, bumped by
    /// every [`Self::refresh_sample`] / [`Self::apply_delta`]. Evaluation
    /// caches key on it, so two equal generations guarantee cache entries
    /// for `i` built in between are still servable.
    pub fn sample_gen(&self, i: u32) -> u64 {
        self.gens[i as usize]
    }

    /// Materialized per-pair-category partial-sum tables currently held for
    /// incident-edge JI maintenance (tests/benches), bounded by
    /// [`JoinGraphConfig::partials_cache_cap`].
    pub fn partials_len(&self) -> usize {
        self.partials.len()
    }

    /// Entries currently held by the selection cache (tests/benches),
    /// **aggregated across all shards** — the cache is sharded by key hash
    /// with one lock per shard, and the per-shard caps sum exactly to
    /// [`JoinGraphConfig::sel_cache_cap`], so this total never exceeds the
    /// configured bound.
    pub fn sel_cache_len(&self) -> usize {
        self.sel_cache.len()
    }

    /// The selection cache's **total** entry bound across all shards
    /// ([`JoinGraphConfig::sel_cache_cap`]).
    pub fn sel_cache_cap(&self) -> usize {
        self.sel_cache.cap()
    }

    /// Entries currently held by the projection/price cache (tests/benches),
    /// aggregated across all shards (same layout as the selection cache).
    pub fn proj_cache_len(&self) -> usize {
        self.proj_cache.len()
    }

    /// Lifetime `(hits, misses)` of the selection cache, summed over shards
    /// (relaxed counters; observability only — hit-rate deltas for the
    /// multi-chain bench evidence).
    pub fn sel_cache_stats(&self) -> (u64, u64) {
        self.sel_cache.stats()
    }

    /// Lifetime `(hits, misses)` of the projection/price cache, summed over
    /// shards (relaxed counters; observability only).
    pub fn proj_cache_stats(&self) -> (u64, u64) {
        self.proj_cache.stats()
    }

    /// Entries currently held by the MCMC evaluation memo, aggregated
    /// across shards (bounded by [`JoinGraphConfig::eval_memo_cap`]).
    pub fn eval_memo_len(&self) -> usize {
        self.eval_memo.len()
    }

    /// Lifetime `(hits, misses)` of the MCMC evaluation memo, summed over
    /// shards (relaxed counters; observability only). Every walk evaluation
    /// looks it up once; with [`JoinGraphConfig::eval_memo_cap`] 0 every
    /// lookup misses.
    pub fn eval_memo_stats(&self) -> (u64, u64) {
        self.eval_memo.stats()
    }

    /// Drop every cached selection, projection, price and memoized target
    /// graph (every shard of all three caches) — the cold-path baseline for
    /// benches and the fresh-vs-cached pinning tests. Production code never
    /// needs this: stale entries are unreachable by construction (cache keys
    /// embed the sample generations they were built against), so
    /// correctness never depends on clearing anything.
    pub fn clear_eval_caches(&self) {
        self.sel_cache.retain(|_| false);
        self.proj_cache.retain(|_| false);
        self.eval_memo.retain(|_| false);
    }

    /// The executor the graph was built on — evaluation call sites
    /// (`evaluate_assignment`'s multi-hop selection joins) fan out over the
    /// same pool instead of the global one.
    pub fn executor(&self) -> Executor {
        self.exec
    }

    /// Instances whose schema contains **all** of `attrs`.
    pub fn instances_containing(&self, attrs: &AttrSet) -> Vec<u32> {
        (0..self.metas.len() as u32)
            .filter(|&i| attrs.is_subset(&self.metas[i as usize].attr_set()))
            .collect()
    }

    /// Instances containing at least one attribute of `attrs`.
    pub fn instances_touching(&self, attrs: &AttrSet) -> Vec<u32> {
        (0..self.metas.len() as u32)
            .filter(|&i| {
                !attrs
                    .intersect(&self.metas[i as usize].attr_set())
                    .is_empty()
            })
            .collect()
    }
}

/// Candidate join attribute sets for a shared set (see [`JoinGraphConfig`]).
fn candidate_sets(common: &AttrSet, max_enum: usize) -> Vec<AttrSet> {
    if common.len() <= max_enum {
        common.nonempty_subsets()
    } else {
        let mut v: Vec<AttrSet> = common.iter().map(AttrSet::singleton).collect();
        v.push(common.clone());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_market::DatasetId;
    use dance_relation::{Table, Value, ValueType};

    fn inst(
        name: &str,
        attrs: &[(&str, ValueType)],
        rows: Vec<Vec<Value>>,
    ) -> (DatasetMeta, Table) {
        let t = Table::from_rows(name, attrs, rows).unwrap();
        let meta = DatasetMeta {
            id: DatasetId(0),
            name: name.into(),
            schema: t.schema().clone(),
            num_rows: t.num_rows(),
            default_key: AttrSet::singleton(t.schema().attributes()[0].id),
            version: 0,
        };
        (meta, t)
    }

    fn toy_graph() -> JoinGraph {
        // D1(jg_b, jg_c, jg_x) – D2(jg_b, jg_c, jg_y): shares {b, c};
        // D3(jg_z): isolated.
        let rows1: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i % 8), Value::Int(i)])
            .collect();
        let rows2: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Int(i % 4), Value::Int(i % 8), Value::Int(i * 2)])
            .collect();
        let (m1, t1) = inst(
            "D1",
            &[
                ("jg_b", ValueType::Int),
                ("jg_c", ValueType::Int),
                ("jg_x", ValueType::Int),
            ],
            rows1,
        );
        let (m2, t2) = inst(
            "D2",
            &[
                ("jg_b", ValueType::Int),
                ("jg_c", ValueType::Int),
                ("jg_y", ValueType::Int),
            ],
            rows2,
        );
        let (m3, t3) = inst(
            "D3",
            &[("jg_z", ValueType::Int)],
            (0..5).map(|i| vec![Value::Int(i)]).collect(),
        );
        let mut metas = vec![m1, m2, m3];
        for (i, m) in metas.iter_mut().enumerate() {
            m.id = DatasetId(i as u32);
        }
        JoinGraph::build(
            metas,
            vec![t1, t2, t3],
            EntropyPricing::default(),
            &JoinGraphConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn edges_follow_shared_names() {
        let g = toy_graph();
        assert_eq!(g.num_instances(), 3);
        assert_eq!(g.i_edges().len(), 1);
        let e = &g.i_edges()[0];
        assert_eq!((e.a, e.b), (0, 1));
        assert_eq!(e.common, AttrSet::from_names(["jg_b", "jg_c"]));
        assert!(g.edge_between(0, 2).is_none());
    }

    #[test]
    fn candidate_join_sets_enumerated() {
        let g = toy_graph();
        // Shared {b, c} → candidates {b}, {c}, {b,c}.
        let cands = g.candidate_join_sets(0, 1);
        assert_eq!(cands.len(), 3);
        for c in cands {
            assert!(g.weight(0, 1, c).is_some());
            // Property 4.1 lookup is symmetric.
            assert_eq!(g.weight(0, 1, c), g.weight(1, 0, c));
        }
    }

    #[test]
    fn i_edge_weight_is_min_over_candidates() {
        let g = toy_graph();
        let e = &g.i_edges()[0];
        let min = g
            .candidate_join_sets(0, 1)
            .iter()
            .map(|c| g.weight(0, 1, c).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!((e.weight - min).abs() < 1e-12);
    }

    #[test]
    fn weights_are_valid_ji() {
        let g = toy_graph();
        for c in g.candidate_join_sets(0, 1) {
            let w = g.weight(0, 1, c).unwrap();
            assert!((0.0..=1.0).contains(&w), "JI out of range: {w}");
        }
    }

    #[test]
    fn instance_lookup_by_attrs() {
        let g = toy_graph();
        assert_eq!(
            g.instances_containing(&AttrSet::from_names(["jg_b"])),
            vec![0, 1]
        );
        assert_eq!(
            g.instances_containing(&AttrSet::from_names(["jg_x"])),
            vec![0]
        );
        assert_eq!(
            g.instances_touching(&AttrSet::from_names(["jg_x", "jg_z"])),
            vec![0, 2]
        );
        assert!(g
            .instances_containing(&AttrSet::from_names(["jg_nothing"]))
            .is_empty());
    }

    #[test]
    fn prices_positive_and_monotone() {
        let g = toy_graph();
        let pb = g.price(0, &AttrSet::from_names(["jg_b"])).unwrap();
        let pbc = g.price(0, &AttrSet::from_names(["jg_b", "jg_c"])).unwrap();
        assert!(pb > 0.0);
        assert!(pbc >= pb);
    }

    #[test]
    fn refresh_sample_updates_weights() {
        let mut g = toy_graph();
        let before = g.i_edges()[0].weight;
        // Replace D2's sample with one that matches D1 perfectly on both keys.
        let perfect = Table::from_rows(
            "D2",
            &[
                ("jg_b", ValueType::Int),
                ("jg_c", ValueType::Int),
                ("jg_y", ValueType::Int),
            ],
            (0..40)
                .map(|i| vec![Value::Int(i % 4), Value::Int(i % 8), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        g.refresh_sample(1, perfect).unwrap();
        let after = g.i_edges()[0].weight;
        assert!(after <= before + 1e-12, "{after} vs {before}");
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        let build = |threads: usize| {
            let g = toy_graph();
            JoinGraph::build(
                g.metas.clone(),
                g.samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    executor: Executor::with_grain(threads, 1),
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap()
        };
        let reference = build(1);
        for threads in [2usize, 3, 8] {
            let g = build(threads);
            assert_eq!(g.i_edges.len(), reference.i_edges.len());
            for (a, b) in g.i_edges.iter().zip(&reference.i_edges) {
                assert_eq!((a.a, a.b), (b.a, b.b));
                assert_eq!(
                    a.weight.to_bits(),
                    b.weight.to_bits(),
                    "edge weight diverged at {threads} threads"
                );
            }
            assert_eq!(g.weights.len(), reference.weights.len());
            for (key, w) in &reference.weights {
                assert_eq!(g.weights[key].to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn histogram_cache_persists_and_evicts_on_refresh() {
        let mut g = toy_graph();
        // Build populated both endpoint caches of the (0, 1) edge.
        let probed_0 = g.hists[0].len();
        let probed_1 = g.hists[1].len();
        assert!(probed_0 > 0 && probed_1 > 0, "cache persists past build");
        assert!(g.hists[2].is_empty(), "isolated vertex has no histograms");

        let fresh = Table::from_rows(
            "D2",
            &[
                ("jg_b", ValueType::Int),
                ("jg_c", ValueType::Int),
                ("jg_y", ValueType::Int),
            ],
            (0..20)
                .map(|i| vec![Value::Int(i % 2), Value::Int(i % 4), Value::Int(i)])
                .collect(),
        )
        .unwrap();
        g.refresh_sample(1, fresh).unwrap();
        // The refreshed side was evicted and recounted; the partner side kept
        // its entries (refresh no longer recounts partner samples).
        assert_eq!(g.hists[1].len(), probed_1);
        assert_eq!(g.hists[0].len(), probed_0);
        // Refreshed weights equal a from-scratch build over the new samples.
        let rebuilt = JoinGraph::build(
            g.metas.clone(),
            g.samples.clone(),
            EntropyPricing::default(),
            &JoinGraphConfig::default(),
        )
        .unwrap();
        for (key, w) in &rebuilt.weights {
            assert_eq!(g.weights[key].to_bits(), w.to_bits());
        }
    }

    /// The LRU bound holds after build and across refresh rounds, and evicted
    /// histograms are transparently recounted: weights always equal a
    /// from-scratch build over the same samples.
    #[test]
    fn hist_cache_cap_holds_across_refresh_rounds() {
        let base = toy_graph();
        for cap in [1usize, 2, 4] {
            let mut g = JoinGraph::build(
                base.metas.clone(),
                base.samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    hist_cache_cap: cap,
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap();
            assert!(g.hist_cache_len() <= cap, "cap {cap} violated after build");
            for round in 0..3u32 {
                let fresh = Table::from_rows(
                    "D2",
                    &[
                        ("jg_b", ValueType::Int),
                        ("jg_c", ValueType::Int),
                        ("jg_y", ValueType::Int),
                    ],
                    (0..30)
                        .map(|i| {
                            vec![
                                Value::Int(i % (2 + round as i64)),
                                Value::Int(i % 4),
                                Value::Int(i),
                            ]
                        })
                        .collect(),
                )
                .unwrap();
                g.refresh_sample(1, fresh).unwrap();
                assert!(
                    g.hist_cache_len() <= cap,
                    "cap {cap} violated after refresh {round}"
                );
                let rebuilt = JoinGraph::build(
                    g.metas.clone(),
                    g.samples.clone(),
                    EntropyPricing::default(),
                    &JoinGraphConfig::default(),
                )
                .unwrap();
                for (key, w) in &rebuilt.weights {
                    assert_eq!(
                        g.weights[key].to_bits(),
                        w.to_bits(),
                        "weights drifted at cap {cap} round {round}"
                    );
                }
            }
        }
    }

    /// The work-size heuristic: sequential kernels when the fan-out saturates
    /// the pool, row-share splitting of idle workers when it does not.
    #[test]
    fn inner_workers_follow_row_share() {
        // Enough items to saturate: strictly sequential kernels.
        assert_eq!(inner_workers(4, 4, 1_000_000, 1_000_000), 1);
        assert_eq!(inner_workers(4, 100, 1_000_000, 2_000_000), 1);
        // One giant sample among tiny ones claims (almost) the whole pool.
        assert_eq!(inner_workers(8, 3, 1_000_000, 1_020_000), 7);
        assert_eq!(inner_workers(8, 3, 10_000, 1_020_000), 1);
        // Uniform sizes degrade to the uniform split.
        assert_eq!(inner_workers(8, 2, 500, 1000), 4);
        // Degenerate inputs stay sequential.
        assert_eq!(inner_workers(8, 2, 0, 0), 1);
        assert_eq!(inner_workers(1, 1, 100, 100), 1);
        // Shares sum to at most threads (up to the per-item minimum of one).
        let rows = [900usize, 50, 30, 20];
        let total: usize = rows.iter().sum();
        let sum: usize = rows.iter().map(|&r| inner_workers(8, 4, r, total)).sum();
        assert!(sum < 8 + rows.len(), "sum = {sum}");
    }

    /// A small catalog with one giant sample exercises the nested-chunking
    /// branch end to end: weights must equal the sequential build bit-exact.
    #[test]
    fn nested_chunking_build_matches_sequential() {
        let big: Vec<Vec<Value>> = (0..20_000)
            .map(|i| vec![Value::Int(i % 40), Value::Int(i)])
            .collect();
        let (m1, t1) = inst(
            "BIG",
            &[("nw_k", ValueType::Int), ("nw_x", ValueType::Int)],
            big,
        );
        let (m2, t2) = inst(
            "SMALL",
            &[("nw_k", ValueType::Int), ("nw_y", ValueType::Int)],
            (0..50)
                .map(|i| vec![Value::Int(i % 40), Value::Int(i * 2)])
                .collect(),
        );
        let build = |threads: usize| {
            JoinGraph::build(
                vec![m1.clone(), m2.clone()],
                vec![t1.clone(), t2.clone()],
                EntropyPricing::default(),
                &JoinGraphConfig {
                    executor: Executor::with_grain(threads, 1),
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap()
        };
        let reference = build(1);
        for threads in [2usize, 8] {
            let g = build(threads);
            for (key, w) in &reference.weights {
                assert_eq!(g.weights[key].to_bits(), w.to_bits());
            }
        }
    }

    /// The evaluation caches obey their caps, refresh-evict staleness, and
    /// recompute transparently: every cached pair selection and price equals
    /// a fresh computation before and after caps/evictions bite.
    #[test]
    fn eval_caches_capped_and_evicted_on_refresh() {
        let base = toy_graph();
        for cap in [0usize, 1, 2, 8] {
            let mut g = JoinGraph::build(
                base.metas.clone(),
                base.samples.clone(),
                EntropyPricing::default(),
                &JoinGraphConfig {
                    sel_cache_cap: cap,
                    proj_cache_cap: cap,
                    ..JoinGraphConfig::default()
                },
            )
            .unwrap();
            let on_b = AttrSet::from_names(["jg_b"]);
            let on_bc = AttrSet::from_names(["jg_b", "jg_c"]);
            let fresh_pairs = [
                dance_relation::pair_sel(g.sample(0), g.sample(1), &on_b).unwrap(),
                dance_relation::pair_sel(g.sample(0), g.sample(1), &on_bc).unwrap(),
                dance_relation::pair_sel(g.sample(1), g.sample(0), &on_b).unwrap(),
            ];
            for round in 0..3 {
                for (pair, on, (p, b)) in [
                    (&fresh_pairs[0], &on_b, (0u32, 1u32)),
                    (&fresh_pairs[1], &on_bc, (0, 1)),
                    (&fresh_pairs[2], &on_b, (1, 0)),
                ] {
                    let cached = g.pair_sel(p, b, on).unwrap();
                    assert_eq!(cached.num_matches(), pair.num_matches(), "round {round}");
                    for l in 0..pair.num_left() as u32 {
                        assert_eq!(cached.matches_of(l), pair.matches_of(l));
                    }
                    let price = g.price_for_eval(p, on, None).unwrap();
                    assert_eq!(price.to_bits(), g.price(p, on).unwrap().to_bits());
                    let proj = g.projected_for_eval(p, on, None).unwrap();
                    assert_eq!(proj.num_rows(), g.sample(p).num_rows());
                    assert!(g.sel_cache_len() <= cap, "sel cap {cap} violated");
                    assert!(g.proj_cache_len() <= cap, "proj cap {cap} violated");
                }
                // Refreshing instance 1 drops every entry that touches it.
                g.refresh_sample(1, base.samples[1].clone()).unwrap();
                assert_eq!(
                    g.sel_cache_len(),
                    0,
                    "all cached selections touched instance 1"
                );
                let survivors = g.proj_cache_len();
                assert!(survivors <= cap);
                // Only instance-0 entries may survive a refresh of 1.
                g.refresh_sample(0, base.samples[0].clone()).unwrap();
                assert_eq!(g.proj_cache_len(), 0);
            }
        }
    }

    /// `clear_eval_caches` resets to the cold state — selections,
    /// projections, prices and the evaluation memo; recomputation after a
    /// clear equals the original values.
    #[test]
    fn clear_eval_caches_is_transparent() {
        let g = toy_graph();
        let on = AttrSet::from_names(["jg_b"]);
        let first = g.pair_sel(0, 1, &on).unwrap();
        let price = g.price_for_eval(0, &on, None).unwrap();
        let search = || {
            let mut sc = crate::target::Cover::new();
            sc.insert(0, AttrSet::from_names(["jg_x"]));
            let mut tc = crate::target::Cover::new();
            tc.insert(1, AttrSet::from_names(["jg_y"]));
            crate::mcmc::find_optimal_target_graph(
                &g,
                &FxHashSet::default(),
                &[(0, 1)],
                &sc,
                &tc,
                &AttrSet::from_names(["jg_x"]),
                &AttrSet::from_names(["jg_y"]),
                &crate::request::Constraints::unbounded(),
                &crate::mcmc::McmcConfig {
                    iterations: 20,
                    ..crate::mcmc::McmcConfig::default()
                },
            )
            .unwrap()
            .expect("unconstrained search finds a plan")
        };
        let plan = search();
        assert!(g.sel_cache_len() > 0 && g.proj_cache_len() > 0);
        assert!(g.eval_memo_len() > 0, "the walk filled the memo");
        g.clear_eval_caches();
        assert_eq!(g.sel_cache_len() + g.proj_cache_len(), 0);
        assert_eq!(g.eval_memo_len(), 0);
        let again = g.pair_sel(0, 1, &on).unwrap();
        assert_eq!(again.num_matches(), first.num_matches());
        assert_eq!(
            g.price_for_eval(0, &on, None).unwrap().to_bits(),
            price.to_bits()
        );
        let misses = g.eval_memo_stats().1;
        let replanned = search();
        assert!(g.eval_memo_stats().1 > misses, "cleared memo misses again");
        assert_eq!(replanned.join_attrs, plan.join_attrs);
        assert_eq!(replanned.corr.to_bits(), plan.corr.to_bits());
        assert_eq!(replanned.quality.to_bits(), plan.quality.to_bits());
        assert_eq!(replanned.price.to_bits(), plan.price.to_bits());
    }

    /// `refresh_sample(i)` sweeps exactly the memo entries whose walk read
    /// `i`; entries of walks that never touched `i` stay warm.
    #[test]
    fn refresh_sample_sweeps_memo_entries_reading_the_instance() {
        let mut g = toy_graph();
        let mut sc = crate::target::Cover::new();
        sc.insert(0, AttrSet::from_names(["jg_x"]));
        let mut tc = crate::target::Cover::new();
        tc.insert(1, AttrSet::from_names(["jg_y"]));
        crate::mcmc::find_optimal_target_graph(
            &g,
            &FxHashSet::default(),
            &[(0, 1)],
            &sc,
            &tc,
            &AttrSet::from_names(["jg_x"]),
            &AttrSet::from_names(["jg_y"]),
            &crate::request::Constraints::unbounded(),
            &crate::mcmc::McmcConfig::default(),
        )
        .unwrap();
        let held = g.eval_memo_len();
        assert!(held > 0);
        g.refresh_sample(2, g.samples[2].clone()).unwrap();
        assert_eq!(g.eval_memo_len(), held, "instance 2 was not read");
        g.refresh_sample(1, g.samples[1].clone()).unwrap();
        assert_eq!(g.eval_memo_len(), 0, "every entry read instance 1");
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let (m, t) = inst("X", &[("jg_q", ValueType::Int)], vec![vec![Value::Int(1)]]);
        assert!(JoinGraph::build(
            vec![m],
            vec![t.clone(), t],
            EntropyPricing::default(),
            &JoinGraphConfig::default()
        )
        .is_err());
    }

    #[test]
    fn candidate_sets_cap_large_shared_sets() {
        let big = AttrSet::from_names(["cs_1", "cs_2", "cs_3", "cs_4", "cs_5", "cs_6"]);
        let capped = candidate_sets(&big, 4);
        assert_eq!(capped.len(), 7); // 6 singletons + full set
        let small = AttrSet::from_names(["cs_1", "cs_2"]);
        assert_eq!(candidate_sets(&small, 4).len(), 3);
    }
}

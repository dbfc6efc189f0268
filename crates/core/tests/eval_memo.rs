//! The graph-owned MCMC evaluation memo: what its key must separate and
//! what it may share. Every test compares a memo-served result against a
//! result computed without the entries in question — a fresh `Dance`, a
//! cleared graph, or the same walk on a cache-free graph (selection,
//! projection and memo caps all 0) — bit for bit.

use dance_core::mcmc::find_optimal_target_graph;
use dance_core::target::Cover;
use dance_core::{
    AcquisitionPlan, AcquisitionRequest, Constraints, Dance, DanceConfig, JoinGraph,
    JoinGraphConfig, McmcConfig, TargetGraph,
};
use dance_market::{EntropyPricing, Marketplace};
use dance_quality::tane::TaneConfig;
use dance_relation::hash::stable_hash64;
use dance_relation::{AttrSet, Executor, FxHashSet, Table, TableDelta, Value, ValueType};

/// A 3-instance path catalog, em_d0(ik, sk, src) — em_d1(ik, sk, jk, jl) —
/// em_d2(jk, jl, tgt), where every edge offers 3 candidate join sets, so a
/// walk really flips assignments.
fn tables() -> Vec<Table> {
    let n = 96u64;
    let specs: [(&str, &[(&str, ValueType)]); 3] = [
        (
            "em_d0",
            &[
                ("em_ik", ValueType::Int),
                ("em_sk", ValueType::Str),
                ("em_src", ValueType::Int),
            ],
        ),
        (
            "em_d1",
            &[
                ("em_ik", ValueType::Int),
                ("em_sk", ValueType::Str),
                ("em_jk", ValueType::Int),
                ("em_jl", ValueType::Str),
            ],
        ),
        (
            "em_d2",
            &[
                ("em_jk", ValueType::Int),
                ("em_jl", ValueType::Str),
                ("em_tgt", ValueType::Str),
            ],
        ),
    ];
    specs
        .into_iter()
        .enumerate()
        .map(|(idx, (name, attrs))| {
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|r| {
                    let h = stable_hash64(31 + idx as u64, &r);
                    let ik = Value::Int((h % 6) as i64);
                    let sk = Value::str(format!("s{}", (h >> 8) % 4));
                    let jk = Value::Int(((h >> 16) % 5) as i64);
                    let jl = Value::str(format!("l{}", (h >> 24) % 3));
                    match idx {
                        0 => vec![ik, sk, Value::Int(((h % 6) * 2 + (h >> 40) % 2) as i64)],
                        1 => vec![ik, sk, jk, jl],
                        _ => vec![jk, jl, Value::str(format!("t{}", (h >> 16) % 5))],
                    }
                })
                .collect();
            Table::from_rows(name, attrs, rows).unwrap()
        })
        .collect()
}

fn market() -> Marketplace {
    Marketplace::new(tables(), EntropyPricing::default())
}

fn config(rate: f64, threads: usize) -> DanceConfig {
    DanceConfig {
        sampling_rate: rate,
        seed: 5,
        refine_rounds: 0,
        graph: JoinGraphConfig {
            executor: Executor::with_grain(threads, 1),
            ..JoinGraphConfig::default()
        },
        mcmc: McmcConfig {
            iterations: 40,
            seed: 5,
            ..McmcConfig::default()
        },
        ..DanceConfig::default()
    }
}

fn request() -> AcquisitionRequest {
    AcquisitionRequest::new(
        AttrSet::from_names(["em_src"]),
        AttrSet::from_names(["em_tgt"]),
    )
}

/// Everything a target graph reports, floats as bits.
type Bits = (Vec<(u32, u32)>, Vec<AttrSet>, Vec<(u32, AttrSet)>, [u64; 4]);

fn bits(tg: &TargetGraph) -> Bits {
    (
        tg.tree_edges.clone(),
        tg.join_attrs.clone(),
        tg.projections
            .iter()
            .map(|(v, a)| (*v, a.clone()))
            .collect(),
        [
            tg.corr.to_bits(),
            tg.weight.to_bits(),
            tg.quality.to_bits(),
            tg.price.to_bits(),
        ],
    )
}

fn plan_bits(plan: &Option<AcquisitionPlan>) -> Option<Bits> {
    plan.as_ref().map(|p| bits(&p.graph))
}

/// (a) A repeated search is served from the memo: zero new misses, and a
/// bit-identical plan.
#[test]
fn repeated_search_adds_no_memo_misses() {
    let market = market();
    let d = Dance::offline(&market, vec![], config(0.6, 1)).unwrap();
    let first = d.search(&request()).unwrap();
    assert!(first.is_some(), "the catalog admits a plan");
    let (hits0, misses0) = d.graph().eval_memo_stats();
    assert!(misses0 > 0 && d.graph().eval_memo_len() > 0);
    let again = d.search(&request()).unwrap();
    let (hits1, misses1) = d.graph().eval_memo_stats();
    assert_eq!(misses1, misses0, "a repeated request recomputes nothing");
    assert!(hits1 > hits0);
    assert_eq!(plan_bits(&again), plan_bits(&first));
}

/// (b) The constraints are not part of an evaluation, so requests that
/// differ only in α/β/budget share memo entries — and each still plans
/// exactly as a cold middleware would.
#[test]
fn requests_differing_only_in_constraints_share_entries() {
    let market = market();
    let d = Dance::offline(&market, vec![], config(0.6, 1)).unwrap();
    d.search(&request()).unwrap().expect("plan");
    let tighter = request().with_constraints(Constraints {
        alpha: 10.0,
        beta: 0.01,
        budget: 1e6,
    });
    let (hits0, _) = d.graph().eval_memo_stats();
    let warm = d.search(&tighter).unwrap();
    assert!(d.graph().eval_memo_stats().0 > hits0, "entries were shared");
    let cold = Dance::offline(&market, vec![], config(0.6, 1))
        .unwrap()
        .search(&tighter)
        .unwrap();
    assert!(cold.is_some());
    assert_eq!(plan_bits(&warm), plan_bits(&cold));
}

/// (c) A seller delta on a participating vertex strands its memo entries:
/// the warm middleware recomputes and plans exactly as a middleware that
/// never searched before the same delta.
#[test]
fn delta_on_participating_vertex_replans_like_a_fresh_dance() {
    let market = market();
    let mut warm = Dance::offline(&market, vec![], config(0.6, 1)).unwrap();
    let before = warm.search(&request()).unwrap();
    assert!(before.is_some());
    // Instance 1 (em_d1) sits on every source → target path.
    let n = warm.graph().sample(1).num_rows() as u32;
    let delta = TableDelta::new(
        vec![vec![
            Value::Int(1),
            Value::str("s1"),
            Value::Int(2),
            Value::str("l0"),
        ]],
        (0..n).step_by(3).collect(),
    );
    warm.apply_sample_delta(1, &delta).unwrap();
    let misses = warm.graph().eval_memo_stats().1;
    let replanned = warm.search(&request()).unwrap();
    assert!(
        warm.graph().eval_memo_stats().1 > misses,
        "the delta's generation bump made the old entries unreachable"
    );
    let mut fresh = Dance::offline(&market, vec![], config(0.6, 1)).unwrap();
    fresh.apply_sample_delta(1, &delta).unwrap();
    assert_eq!(
        plan_bits(&replanned),
        plan_bits(&fresh.search(&request()).unwrap())
    );
}

/// (c) Refinement re-buys every sample: the warm middleware then plans
/// exactly as one built at the refined rate from the start.
#[test]
fn refine_replans_like_a_fresh_dance() {
    let market = market();
    let mut warm = Dance::offline(&market, vec![], config(0.5, 1)).unwrap();
    warm.search(&request()).unwrap();
    assert!(warm.graph().eval_memo_len() > 0);
    warm.refine(&market).unwrap();
    assert_eq!(warm.current_rate(), 1.0);
    let replanned = warm.search(&request()).unwrap();
    let fresh = Dance::offline(&market, vec![], config(1.0, 1)).unwrap();
    assert_eq!(
        plan_bits(&replanned),
        plan_bits(&fresh.search(&request()).unwrap())
    );
}

/// One walk over the catalog's path tree on `g`.
fn walk(g: &JoinGraph, free: &FxHashSet<u32>, cfg: &McmcConfig) -> Option<TargetGraph> {
    let mut sc = Cover::new();
    sc.insert(0, AttrSet::from_names(["em_src"]));
    let mut tc = Cover::new();
    tc.insert(2, AttrSet::from_names(["em_tgt"]));
    find_optimal_target_graph(
        g,
        free,
        &[(0, 1), (1, 2)],
        &sc,
        &tc,
        &AttrSet::from_names(["em_src"]),
        &AttrSet::from_names(["em_tgt"]),
        &Constraints::unbounded(),
        cfg,
    )
    .unwrap()
}

fn graph(threads: usize) -> JoinGraph {
    graph_with(threads, JoinGraphConfig::default())
}

/// The catalog's sampled graph built under `cfg` on a `threads`-wide
/// executor.
fn graph_with(threads: usize, cfg: JoinGraphConfig) -> JoinGraph {
    let market = market();
    let d = Dance::offline(&market, vec![], config(0.6, threads)).unwrap();
    JoinGraph::build(
        d.graph().metas().to_vec(),
        (0..3).map(|v| d.graph().sample(v).clone()).collect(),
        EntropyPricing::default(),
        &JoinGraphConfig {
            executor: Executor::with_grain(threads, 1),
            ..cfg
        },
    )
    .unwrap()
}

/// (d) Two callers of one graph with different free sets, or different
/// TANE settings, never see each other's entries: every warm result equals
/// the cache-free walk for its own inputs (a fresh graph per reference walk,
/// all three evaluation caps at 0).
#[test]
fn free_sets_and_tane_settings_never_share_entries() {
    let g = graph(1);
    let base = McmcConfig {
        iterations: 30,
        seed: 9,
        ..McmcConfig::default()
    };
    let reference = |free: &FxHashSet<u32>, cfg: &McmcConfig| {
        let cache_free = graph_with(
            1,
            JoinGraphConfig {
                sel_cache_cap: 0,
                proj_cache_cap: 0,
                eval_memo_cap: 0,
                ..JoinGraphConfig::default()
            },
        );
        walk(&cache_free, free, cfg)
    };

    let none = FxHashSet::default();
    let mut middle = FxHashSet::default();
    middle.insert(1u32);
    let paid = walk(&g, &none, &base).expect("plan");
    let misses = g.eval_memo_stats().1;
    let partly_free = walk(&g, &middle, &base).expect("plan");
    assert!(g.eval_memo_stats().1 > misses, "a new free set misses");
    assert_ne!(paid.price.to_bits(), partly_free.price.to_bits());
    assert_eq!(bits(&paid), bits(&reference(&none, &base).unwrap()));
    assert_eq!(
        bits(&partly_free),
        bits(&reference(&middle, &base).unwrap())
    );

    let strict = McmcConfig {
        tane: TaneConfig {
            error_threshold: 0.0,
            max_lhs: 2,
            max_attrs: 12,
        },
        ..base.clone()
    };
    let misses = g.eval_memo_stats().1;
    let strict_tg = walk(&g, &none, &strict).expect("plan");
    assert!(g.eval_memo_stats().1 > misses, "new TANE settings miss");
    assert_eq!(bits(&strict_tg), bits(&reference(&none, &strict).unwrap()));
    // And the first caller's entries still serve it unchanged.
    assert_eq!(bits(&walk(&g, &none, &base).unwrap()), bits(&paid));
}

/// (e) Chains 1/2/4 plan identically from a cold memo, a warm memo, and a
/// memo warmed by other chain counts, at 1 and 4 executor threads.
#[test]
fn chain_counts_plan_identically_warm_and_cold_across_threads() {
    let mut pinned: Vec<Option<Bits>> = Vec::new();
    for threads in [1usize, 4] {
        let g = graph(threads);
        let cfg = |chains: usize| McmcConfig {
            iterations: 25,
            seed: 13,
            chains,
            ..McmcConfig::default()
        };
        let none = FxHashSet::default();
        // Shared warm-up: later chain counts start from entries earlier
        // ones left behind.
        let cross: Vec<Option<Bits>> = [1usize, 2, 4]
            .iter()
            .map(|&n| walk(&g, &none, &cfg(n)).as_ref().map(bits))
            .collect();
        for (k, &n) in [1usize, 2, 4].iter().enumerate() {
            g.clear_eval_caches();
            let cold = walk(&g, &none, &cfg(n)).as_ref().map(bits);
            let warm = walk(&g, &none, &cfg(n)).as_ref().map(bits);
            assert!(cold.is_some());
            assert_eq!(cold, warm, "{n} chains at {threads} threads");
            assert_eq!(cold, cross[k], "{n} chains at {threads} threads");
            match pinned.get(k) {
                Some(pin) => assert_eq!(&cold, pin, "{n} chains differ across threads"),
                None => pinned.push(cold),
            }
        }
    }
}

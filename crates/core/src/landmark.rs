//! Landmark-based approximate shortest paths on the I-layer (§5.1).
//!
//! Following Gubichev et al. \[10\]: pick `k` landmark vertices, precompute a
//! shortest-path tree (Dijkstra over I-edge weights) per landmark, and answer
//! `u⇝v` queries by concatenating `u→l` and `l→v` for the best landmark,
//! shortcutting at the first shared vertex so the estimate is a simple path.
//! Preprocessing is `O(k · E log V)`; queries are `O(k · path length)` —
//! the "logarithmic in the number of nodes" behaviour the paper relies on
//! comes from `k` being a small constant.
//!
//! Landmark selection is degree-biased (high-degree vertices see more of the
//! graph) with deterministic hash-based tie-breaking.

use crate::join_graph::JoinGraph;
use dance_relation::hash::stable_hash64;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const NO_PARENT: u32 = u32::MAX;

/// Precomputed shortest-path trees to a set of landmarks.
#[derive(Debug, PartialEq)]
pub struct LandmarkIndex {
    /// The chosen landmark vertices.
    pub landmarks: Vec<u32>,
    /// `dist[l][v]`: shortest-path weight from landmark `l` to vertex `v`.
    dist: Vec<Vec<f64>>,
    /// `parent[l][v]`: next hop from `v` toward landmark `l`.
    parent: Vec<Vec<u32>>,
}

/// Max-heap entry for Dijkstra (reversed on weight).
struct HeapEntry(f64, u32);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smallest weight first.
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl LandmarkIndex {
    /// Build an index with `k` landmarks (deterministic under `seed`).
    pub fn build(graph: &JoinGraph, k: usize, seed: u64) -> LandmarkIndex {
        let n = graph.num_instances();
        let k = k.clamp(1, n.max(1));
        // Degree-biased deterministic selection: order by (degree, hash) desc.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| {
            (
                std::cmp::Reverse(graph.incident(v).len()),
                stable_hash64(seed, &v),
            )
        });
        let landmarks: Vec<u32> = order.into_iter().take(k).collect();
        let mut dist = Vec::with_capacity(k);
        let mut parent = Vec::with_capacity(k);
        for &l in &landmarks {
            let (d, p) = dijkstra(graph, l);
            dist.push(d);
            parent.push(p);
        }
        LandmarkIndex {
            landmarks,
            dist,
            parent,
        }
    }

    /// Shortest-path weight from landmark index `li` to `v` (∞ if unreachable).
    pub fn distance(&self, li: usize, v: u32) -> f64 {
        self.dist[li][v as usize]
    }

    /// Path `v → … → landmark(li)` via parent pointers (None if unreachable).
    pub fn path_to_landmark(&self, li: usize, v: u32) -> Option<Vec<u32>> {
        if !self.dist[li][v as usize].is_finite() {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while self.parent[li][cur as usize] != NO_PARENT {
            cur = self.parent[li][cur as usize];
            path.push(cur);
            if path.len() > self.parent[li].len() {
                return None; // defensive: corrupt parents
            }
        }
        Some(path)
    }

    /// Approximate shortest `u ⇝ v` path: best landmark concatenation,
    /// shortcut at the first vertex shared by the two landmark paths.
    pub fn approx_path(&self, graph: &JoinGraph, u: u32, v: u32) -> Option<(Vec<u32>, f64)> {
        if u == v {
            return Some((vec![u], 0.0));
        }
        let mut best: Option<(Vec<u32>, f64)> = None;
        for li in 0..self.landmarks.len() {
            let (Some(pu), Some(pv)) = (self.path_to_landmark(li, u), self.path_to_landmark(li, v))
            else {
                continue;
            };
            // First vertex of pu that also lies on pv (both end at landmark,
            // so one always exists).
            let on_pv: dance_relation::FxHashMap<u32, usize> =
                pv.iter().enumerate().map(|(i, &x)| (x, i)).collect();
            let Some((i, &w)) = pu.iter().enumerate().find(|(_, x)| on_pv.contains_key(x)) else {
                continue;
            };
            let j = on_pv[&w];
            let mut path: Vec<u32> = pu[..=i].to_vec();
            path.extend(pv[..j].iter().rev());
            let weight = path_weight(graph, &path);
            if best.as_ref().is_none_or(|(_, bw)| weight < *bw) {
                best = Some((path, weight));
            }
        }
        best
    }
}

/// Total I-edge weight along a vertex path.
pub fn path_weight(graph: &JoinGraph, path: &[u32]) -> f64 {
    path.windows(2)
        .map(|w| {
            graph
                .edge_between(w[0], w[1])
                .map(|e| e.weight)
                .unwrap_or(f64::INFINITY)
        })
        .sum()
}

fn dijkstra(graph: &JoinGraph, src: u32) -> (Vec<f64>, Vec<u32>) {
    let n = graph.num_instances();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![NO_PARENT; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src as usize] = 0.0;
    heap.push(HeapEntry(0.0, src));
    while let Some(HeapEntry(d, v)) = heap.pop() {
        if done[v as usize] {
            continue;
        }
        done[v as usize] = true;
        for &ei in graph.incident(v) {
            let e = &graph.i_edges()[ei as usize];
            let u = if e.a == v { e.b } else { e.a };
            let nd = d + e.weight;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                parent[u as usize] = v;
                heap.push(HeapEntry(nd, u));
            }
        }
    }
    (dist, parent)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::join_graph::JoinGraphConfig;
    use dance_market::{DatasetId, DatasetMeta, EntropyPricing};
    use dance_relation::{AttrSet, Table, Value, ValueType};

    /// A 5-vertex path graph D0–D1–D2–D3–D4 (key `lm_k{i}` shared between
    /// neighbours i and i+1) with varying match quality so edge weights differ.
    pub(crate) fn chain_graph() -> JoinGraph {
        let mut metas = Vec::new();
        let mut samples = Vec::new();
        let names: Vec<String> = (0..5).map(|i| format!("lm_k{i}")).collect();
        for i in 0..5usize {
            let mut attrs: Vec<(&str, ValueType)> = Vec::new();
            if i > 0 {
                attrs.push((names[i - 1].as_str(), ValueType::Int));
            }
            if i < 4 {
                attrs.push((names[i].as_str(), ValueType::Int));
            }
            let payload = format!("lm_p{i}");
            attrs.push((Box::leak(payload.into_boxed_str()), ValueType::Int));
            let rows: Vec<Vec<Value>> = (0..60)
                .map(|r| {
                    let r = r as i64;
                    let mut row = Vec::new();
                    if i > 0 {
                        // Left key: shifted so a fraction of values mismatch.
                        row.push(Value::Int(r % 20 + i as i64));
                    }
                    if i < 4 {
                        row.push(Value::Int(r % 20));
                    }
                    row.push(Value::Int(r));
                    row
                })
                .collect();
            let t = Table::from_rows(format!("D{i}"), &attrs, rows).unwrap();
            metas.push(DatasetMeta {
                id: DatasetId(i as u32),
                name: format!("D{i}"),
                schema: t.schema().clone(),
                num_rows: t.num_rows(),
                default_key: AttrSet::singleton(t.schema().attributes()[0].id),
                version: 0,
            });
            samples.push(t);
        }
        JoinGraph::build(
            metas,
            samples,
            EntropyPricing::default(),
            &JoinGraphConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn chain_topology() {
        let g = chain_graph();
        assert_eq!(g.i_edges().len(), 4);
    }

    #[test]
    fn landmark_paths_reach_all_vertices() {
        let g = chain_graph();
        let lm = LandmarkIndex::build(&g, 2, 7);
        assert_eq!(lm.landmarks.len(), 2);
        for li in 0..2 {
            for v in 0..5 {
                let p = lm.path_to_landmark(li, v).expect("connected graph");
                assert_eq!(p[0], v);
                assert_eq!(*p.last().unwrap(), lm.landmarks[li]);
                assert!(lm.distance(li, v).is_finite());
            }
        }
    }

    #[test]
    fn approx_path_is_simple_and_connected() {
        let g = chain_graph();
        let lm = LandmarkIndex::build(&g, 3, 7);
        let (path, w) = lm.approx_path(&g, 0, 4).expect("path exists");
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), 4);
        // Simple path: no repeated vertices.
        let set: std::collections::HashSet<u32> = path.iter().copied().collect();
        assert_eq!(set.len(), path.len());
        // Consecutive vertices share an edge.
        for win in path.windows(2) {
            assert!(g.edge_between(win[0], win[1]).is_some());
        }
        assert!((w - path_weight(&g, &path)).abs() < 1e-12);
    }

    #[test]
    fn on_a_path_graph_approx_equals_exact() {
        // The only path 0⇝4 is the chain itself, so the approximation must
        // find it exactly regardless of landmarks.
        let g = chain_graph();
        let lm = LandmarkIndex::build(&g, 1, 99);
        let (path, w) = lm.approx_path(&g, 0, 4).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3, 4]);
        let exact: f64 = g.i_edges().iter().map(|e| e.weight).sum();
        assert!((w - exact).abs() < 1e-12);
    }

    #[test]
    fn trivial_and_adjacent_queries() {
        let g = chain_graph();
        let lm = LandmarkIndex::build(&g, 2, 1);
        assert_eq!(lm.approx_path(&g, 2, 2).unwrap().0, vec![2]);
        let (p, _) = lm.approx_path(&g, 1, 2).unwrap();
        assert_eq!(p, vec![1, 2]);
    }

    #[test]
    fn deterministic_selection() {
        let g = chain_graph();
        let a = LandmarkIndex::build(&g, 2, 5);
        let b = LandmarkIndex::build(&g, 2, 5);
        assert_eq!(a.landmarks, b.landmarks);
    }
}

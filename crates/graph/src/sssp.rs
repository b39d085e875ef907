//! Weighted single-source shortest paths on spray reductions.
//!
//! Bellman–Ford-style rounds: every round relaxes all edges through a
//! **min** reduction on the distance array (`dist[v] min= dist[u] + w`),
//! stopping at the first fixed point. With the atomic strategy this
//! exercises the f64 compare-and-swap min path (no ISA has a float
//! fetch-min — the same hardware argument §III makes for float adds).

use crate::Graph;
use ompsim::{Schedule, ThreadPool};
use spray::{ExecutorPolicy, Kernel, Min, ReducerView, RegionExecutor, Strategy};

/// A directed graph with nonnegative `f64` edge weights, sharing
/// [`Graph`]'s CSR topology.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedGraph {
    topology: Graph,
    weights: Vec<f64>,
}

impl WeightedGraph {
    /// Builds from weighted edges `(u, v, w)` over `n` vertices.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or a weight is negative/NaN.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        for &(_, _, w) in edges {
            assert!(w >= 0.0, "negative or NaN weight {w}");
        }
        // `Graph::from_edges` sorts adjacency; sort here the same way so
        // weights stay aligned with neighbors.
        let mut sorted: Vec<(usize, usize, f64)> = edges.to_vec();
        sorted.sort_by_key(|&(u, v, _)| (u, v));
        let topology = Graph::from_edges(
            n,
            &sorted.iter().map(|&(u, v, _)| (u, v)).collect::<Vec<_>>(),
        );
        let weights = sorted.iter().map(|&(_, _, w)| w).collect();
        WeightedGraph { topology, weights }
    }

    /// The unweighted topology.
    pub fn topology(&self) -> &Graph {
        &self.topology
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.topology.num_vertices()
    }

    /// Out-edges of `u` as parallel `(neighbors, weights)` slices.
    pub fn out_edges(&self, u: usize) -> (&[u32], &[f64]) {
        let r = self.topology.edge_range(u);
        (self.topology.out_neighbors(u), &self.weights[r])
    }
}

struct RelaxAll<'a> {
    g: &'a WeightedGraph,
    dist: &'a [f64],
}

impl Kernel<f64> for RelaxAll<'_> {
    #[inline]
    fn item<V: ReducerView<f64>>(&self, view: &mut V, u: usize) {
        let du = self.dist[u];
        if du.is_finite() {
            let (nbs, ws) = self.g.out_edges(u);
            for (&v, &w) in nbs.iter().zip(ws) {
                view.apply(v as usize, du + w);
            }
        }
    }
}

/// Shortest-path distances from `src` (`f64::INFINITY` if unreachable).
///
/// # Panics
/// Panics if `src` is out of range.
pub fn sssp(pool: &ThreadPool, g: &WeightedGraph, src: usize, strategy: Strategy) -> Vec<f64> {
    sssp_with_policy(pool, g, src, strategy, ExecutorPolicy::Fixed)
}

/// [`sssp`] with an explicit [`ExecutorPolicy`] for the relaxation
/// executor: under [`ExecutorPolicy::Adaptive`] the executor may migrate
/// strategies between rounds as the relaxation footprint grows.
///
/// # Panics
/// Panics if `src` is out of range.
pub fn sssp_with_policy(
    pool: &ThreadPool,
    g: &WeightedGraph,
    src: usize,
    strategy: Strategy,
    policy: ExecutorPolicy,
) -> Vec<f64> {
    let n = g.num_vertices();
    assert!(src < n, "source {src} out of range");
    let mut dist = vec![f64::INFINITY; n];
    dist[src] = 0.0;
    // Bellman–Ford converges within |V| - 1 rounds; stop early at a fixed
    // point. Each round relaxes against the previous round's distances
    // (Jacobi-style) so the reduction output never aliases its input. The
    // reusable reducer carries block scratch across relaxation rounds.
    let mut reducer = RegionExecutor::<f64, Min>::with_policy(strategy, policy);
    for _ in 0..n.max(1) {
        let prev = dist.clone();
        let kernel = RelaxAll { g, dist: &prev };
        // The kernel only relaxes edges whose source distance is finite,
        // so the scatter footprint *grows* as the frontier expands: early
        // rounds deviate from the recorded plan and rebuild it (each
        // rebuild is a superset, so it converges with the distances), and
        // once distances settle the steady-state rounds replay cleanly.
        reducer.run_planned(0, pool, &mut dist, 0..n, Schedule::default(), &kernel);
        if dist == prev {
            return dist;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn dijkstra(g: &WeightedGraph, src: usize) -> Vec<f64> {
        let n = g.num_vertices();
        let mut dist = vec![f64::INFINITY; n];
        dist[src] = 0.0;
        // Order by bit pattern of nonnegative floats (monotone for >= 0).
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((dbits, u))) = heap.pop() {
            let d = f64::from_bits(dbits);
            if d > dist[u] {
                continue;
            }
            let (nbs, ws) = g.out_edges(u);
            for (&v, &w) in nbs.iter().zip(ws) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd.to_bits(), v as usize)));
                }
            }
        }
        dist
    }

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn weighted_path_distances() {
        let g =
            WeightedGraph::from_edges(4, &[(0, 1, 1.5), (1, 2, 2.0), (2, 3, 0.25), (0, 3, 10.0)]);
        let d = sssp(&pool(), &g, 0, Strategy::Atomic);
        assert_eq!(d, vec![0.0, 1.5, 3.5, 3.75]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1.0)]);
        let d = sssp(&pool(), &g, 0, Strategy::Keeper);
        assert_eq!(d[1], 1.0);
        assert!(d[2].is_infinite());
    }

    #[test]
    fn matches_dijkstra_on_random_graph() {
        // Deterministic pseudo-random weighted graph.
        let n = 120;
        let mut edges = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..800 {
            let u = (next() % n as u64) as usize;
            let v = (next() % n as u64) as usize;
            let w = (next() % 1000) as f64 * 0.01;
            edges.push((u, v, w));
        }
        let g = WeightedGraph::from_edges(n, &edges);
        let want = dijkstra(&g, 0);
        for strategy in [
            Strategy::Atomic,
            Strategy::BlockCas { block_size: 16 },
            Strategy::Dense,
        ] {
            let got = sssp(&pool(), &g, 0, strategy);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                    "{} at {i}: {a} vs {b}",
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn adaptive_policy_matches_dijkstra() {
        let g = WeightedGraph::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 2.0),
                (0, 2, 5.0),
                (2, 3, 0.5),
                (3, 4, 1.25),
                (1, 4, 9.0),
            ],
        );
        let want = dijkstra(&g, 0);
        let got = sssp_with_policy(
            &pool(),
            &g,
            0,
            Strategy::BlockPrivate { block_size: 8 },
            ExecutorPolicy::Adaptive {
                candidates: spray::default_candidates(1024),
            },
        );
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "adaptive at {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn weights_stay_aligned_after_sorting() {
        // Edges given out of order must keep their weights.
        let g = WeightedGraph::from_edges(3, &[(0, 2, 5.0), (0, 1, 1.0)]);
        let (nbs, ws) = g.out_edges(0);
        assert_eq!(nbs, &[1, 2]);
        assert_eq!(ws, &[1.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "negative or NaN")]
    fn negative_weight_rejected() {
        let _ = WeightedGraph::from_edges(2, &[(0, 1, -1.0)]);
    }
}

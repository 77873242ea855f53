//! Random graph and query generators.
//!
//! These are the primitives used by `gup-workloads` to synthesize data graphs with the
//! same scale/shape as the paper's datasets and to extract query graphs "in the same
//! manner as Sun et al.": a random walk on the data graph followed by taking the
//! subgraph induced by the visited vertices (paper §4.1).

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::types::{Label, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Parameters for the labeled power-law data-graph generator.
#[derive(Clone, Debug)]
pub struct PowerLawConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Edges added per new vertex (Barabási–Albert style preferential attachment).
    pub edges_per_vertex: usize,
    /// Number of distinct labels.
    pub labels: usize,
    /// Skew of the label distribution: 0.0 = uniform, larger = more skewed (Zipf-like).
    pub label_skew: f64,
    /// Fraction of extra random edges added after attachment (introduces cycles and
    /// cross-community edges), relative to the attachment edge count.
    pub extra_edge_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            vertices: 1000,
            edges_per_vertex: 4,
            labels: 20,
            label_skew: 1.0,
            extra_edge_fraction: 0.05,
            seed: 1,
        }
    }
}

/// Generates a labeled scale-free graph via preferential attachment plus a sprinkle of
/// random edges. Deterministic for a given config.
pub fn power_law_graph(cfg: &PowerLawConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = cfg.vertices.max(1);
    let m = cfg.edges_per_vertex.max(1);
    let labels = assign_labels(n, cfg.labels.max(1), cfg.label_skew, &mut rng);
    let mut builder = GraphBuilder::with_capacity(n, n * m);
    for &l in &labels {
        builder.add_vertex(l);
    }
    // Preferential attachment: `targets` holds one entry per edge endpoint so sampling
    // uniformly from it is degree-proportional sampling.
    let mut targets: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    let seed_size = (m + 1).min(n);
    for i in 0..seed_size {
        for j in (i + 1)..seed_size {
            builder.add_edge(i as VertexId, j as VertexId);
            targets.push(i as VertexId);
            targets.push(j as VertexId);
        }
    }
    for v in seed_size..n {
        let mut chosen: Vec<VertexId> = Vec::with_capacity(m);
        let mut attempts = 0;
        while chosen.len() < m && attempts < 10 * m {
            attempts += 1;
            let t = if targets.is_empty() {
                rng.gen_range(0..v) as VertexId
            } else {
                targets[rng.gen_range(0..targets.len())]
            };
            if t != v as VertexId && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            builder.add_edge(v as VertexId, t);
            targets.push(v as VertexId);
            targets.push(t);
        }
    }
    // Extra random edges.
    let extra = ((n * m) as f64 * cfg.extra_edge_fraction) as usize;
    for _ in 0..extra {
        let a = rng.gen_range(0..n) as VertexId;
        let b = rng.gen_range(0..n) as VertexId;
        if a != b {
            builder.add_edge(a, b);
        }
    }
    builder.build()
}

/// Parameters for the Erdős–Rényi generator (used mostly in tests and property-based
/// testing where uniform randomness is preferable).
#[derive(Clone, Debug)]
pub struct ErdosRenyiConfig {
    /// Number of vertices.
    pub vertices: usize,
    /// Independent edge probability.
    pub edge_probability: f64,
    /// Number of distinct labels (assigned uniformly).
    pub labels: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Generates a labeled Erdős–Rényi graph.
pub fn erdos_renyi_graph(cfg: &ErdosRenyiConfig) -> Graph {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = cfg.vertices;
    let mut builder = GraphBuilder::with_capacity(n, (n * n / 4).max(1));
    for _ in 0..n {
        builder.add_vertex(rng.gen_range(0..cfg.labels.max(1)) as Label);
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(cfg.edge_probability.clamp(0.0, 1.0)) {
                builder.add_edge(a as VertexId, b as VertexId);
            }
        }
    }
    builder.build()
}

fn assign_labels(n: usize, label_count: usize, skew: f64, rng: &mut SmallRng) -> Vec<Label> {
    // Zipf-like label weights: weight(l) ∝ 1 / (l + 1)^skew.
    let weights: Vec<f64> = (0..label_count)
        .map(|l| 1.0 / ((l + 1) as f64).powf(skew.max(0.0)))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let mut x = rng.gen::<f64>() * total;
        let mut chosen = label_count - 1;
        for (l, w) in weights.iter().enumerate() {
            if x < *w {
                chosen = l;
                break;
            }
            x -= w;
        }
        labels.push(chosen as Label);
    }
    labels
}

/// Extracts a connected query graph from `data` by random walk, mirroring the
/// methodology of the paper's evaluation (§4.1): perform a random walk until
/// `target_vertices` distinct vertices have been visited, then return the subgraph
/// induced by the visited vertices.
///
/// Returns `None` if the walk gets stuck before reaching the target size (isolated
/// start vertex or tiny component).
pub fn random_walk_query(
    data: &Graph,
    target_vertices: usize,
    rng: &mut SmallRng,
) -> Option<Graph> {
    if data.vertex_count() == 0 || target_vertices == 0 {
        return None;
    }
    let start = rng.gen_range(0..data.vertex_count()) as VertexId;
    if data.degree(start) == 0 {
        return None;
    }
    let mut visited: Vec<VertexId> = vec![start];
    let mut visited_set = std::collections::HashSet::new();
    visited_set.insert(start);
    let mut current = start;
    let mut steps = 0usize;
    let max_steps = target_vertices * 200;
    while visited.len() < target_vertices && steps < max_steps {
        steps += 1;
        let nbrs = data.neighbors(current);
        if nbrs.is_empty() {
            break;
        }
        let next = nbrs[rng.gen_range(0..nbrs.len())];
        if visited_set.insert(next) {
            visited.push(next);
        }
        current = next;
        // Occasionally restart from a random visited vertex to avoid getting stuck in a
        // low-degree region; this keeps the induced subgraph connected.
        if rng.gen_bool(0.1) {
            current = *visited.choose(rng).expect("visited is non-empty");
        }
    }
    if visited.len() < target_vertices {
        return None;
    }
    Some(data.induced_subgraph(&visited))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::is_connected;

    #[test]
    fn power_law_graph_is_deterministic() {
        let cfg = PowerLawConfig {
            vertices: 200,
            edges_per_vertex: 3,
            labels: 8,
            ..Default::default()
        };
        let g1 = power_law_graph(&cfg);
        let g2 = power_law_graph(&cfg);
        assert_eq!(g1, g2);
        assert_eq!(g1.vertex_count(), 200);
        assert!(g1.edge_count() > 200);
        assert!(g1.label_count() <= 8);
    }

    #[test]
    fn power_law_graph_has_skewed_degrees() {
        let g = power_law_graph(&PowerLawConfig {
            vertices: 500,
            edges_per_vertex: 2,
            ..Default::default()
        });
        assert!(g.max_degree() > 3 * g.average_degree() as usize);
    }

    #[test]
    fn power_law_label_skew_concentrates_mass() {
        let g = power_law_graph(&PowerLawConfig {
            vertices: 1000,
            labels: 10,
            label_skew: 1.5,
            ..Default::default()
        });
        // Label 0 must be the most frequent under Zipf skew.
        let frequency = |l| g.labels().iter().filter(|&&x| x == l).count();
        for l in 1..10 {
            assert!(frequency(0) >= frequency(l));
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let empty = erdos_renyi_graph(&ErdosRenyiConfig {
            vertices: 10,
            edge_probability: 0.0,
            labels: 3,
            seed: 7,
        });
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi_graph(&ErdosRenyiConfig {
            vertices: 10,
            edge_probability: 1.0,
            labels: 3,
            seed: 7,
        });
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn erdos_renyi_deterministic_per_seed() {
        let cfg = ErdosRenyiConfig {
            vertices: 30,
            edge_probability: 0.2,
            labels: 4,
            seed: 42,
        };
        assert_eq!(erdos_renyi_graph(&cfg), erdos_renyi_graph(&cfg));
    }

    #[test]
    fn random_walk_query_is_connected_and_sized() {
        let data = power_law_graph(&PowerLawConfig {
            vertices: 300,
            edges_per_vertex: 4,
            labels: 5,
            ..Default::default()
        });
        let mut rng = SmallRng::seed_from_u64(9);
        let mut produced = 0;
        for _ in 0..20 {
            if let Some(q) = random_walk_query(&data, 8, &mut rng) {
                assert_eq!(q.vertex_count(), 8);
                assert!(is_connected(&q));
                assert!(q.edge_count() >= 7);
                produced += 1;
            }
        }
        assert!(
            produced > 0,
            "the generator should succeed on a dense-enough graph"
        );
    }

    #[test]
    fn random_walk_query_fails_gracefully() {
        let empty = GraphBuilder::new().build();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(random_walk_query(&empty, 4, &mut rng).is_none());
        // A graph of isolated vertices can never seed a walk.
        let mut b = GraphBuilder::new();
        b.add_vertices(5, 0);
        let isolated = b.build();
        assert!(random_walk_query(&isolated, 2, &mut rng).is_none());
    }
}

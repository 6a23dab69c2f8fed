//! Seeded workload inputs: the emulated graph with its hold-out, the
//! request stream and the update stream. The program under test only
//! ever sees these generated values.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snaple_eval::HoldOut;
use snaple_graph::gen::datasets;
use snaple_graph::{GraphDelta, VertexId};

/// The fused score plan every workload serves.
pub const PLAN: &str = "linearSum, counter, PPR, jaccard@agg=max";
/// Emulated gowalla scale.
pub const SCALE: f64 = 0.25;
/// Edge operations per update: half removals, half insertions.
pub const UPDATE_EDGES: usize = 256;

/// How query vertices are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryChoice {
    /// The source of a uniformly random edge: weighted by degree, as
    /// active users would be.
    ByDegree,
    /// Uniformly over all vertices.
    Uniform,
}

pub struct Inputs {
    pub num_vertices: usize,
    /// Training edges, directed, in generator order.
    pub edges: Vec<(u32, u32)>,
    /// Held-out targets per vertex, sorted; empty where none.
    pub held: Vec<Vec<u32>>,
    /// Query sets of 1-4 distinct vertices, sorted.
    pub requests: Vec<Vec<u32>>,
    pub updates: Vec<GraphDelta>,
}

impl Inputs {
    pub fn generate(seed: u64, choice: QueryChoice, requests: usize, updates: usize) -> Inputs {
        let graph = datasets::GOWALLA.emulate(SCALE, seed);
        let holdout = HoldOut::remove_edges(&graph, 1, seed ^ 0x401d);
        drop(graph);
        let train = &holdout.train;
        let num_vertices = train.num_vertices();
        let edges: Vec<(u32, u32)> = train
            .edges()
            .map(|(u, v)| (u.as_u32(), v.as_u32()))
            .collect();
        let mut held = vec![Vec::new(); num_vertices];
        for (u, vs) in &holdout.removed {
            held[u.index()] = vs.iter().map(|v| v.as_u32()).collect();
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let requests = (0..requests)
            .map(|_| {
                let size = rng.gen_range(1..5usize);
                let mut q: Vec<u32> = (0..size)
                    .map(|_| match choice {
                        QueryChoice::ByDegree => edges[rng.gen_range(0..edges.len())].0,
                        QueryChoice::Uniform => rng.gen_range(0..num_vertices as u32),
                    })
                    .collect();
                q.sort_unstable();
                q.dedup();
                q
            })
            .collect();

        // Removals take distinct training edges, insertions distinct
        // non-edges, so every operation of the stream changes the graph.
        let half = UPDATE_EDGES / 2;
        let mut removed: HashSet<usize> = HashSet::new();
        let mut inserted: HashSet<(u32, u32)> = HashSet::new();
        let updates = (0..updates)
            .map(|_| {
                let mut delta = GraphDelta::with_capacity(UPDATE_EDGES);
                let mut n = 0;
                while n < half {
                    let i = rng.gen_range(0..edges.len());
                    if removed.insert(i) {
                        delta.remove(edges[i].0, edges[i].1);
                        n += 1;
                    }
                }
                n = 0;
                while n < half {
                    let u = rng.gen_range(0..num_vertices as u32);
                    let v = rng.gen_range(0..num_vertices as u32);
                    if u != v
                        && !train.has_edge(VertexId::new(u), VertexId::new(v))
                        && inserted.insert((u, v))
                    {
                        delta.insert(u, v);
                        n += 1;
                    }
                }
                delta
            })
            .collect();
        Inputs {
            num_vertices,
            edges,
            held,
            requests,
            updates,
        }
    }

    /// Request `i` of the stream, wrapping around.
    pub fn request(&self, i: usize) -> &[u32] {
        &self.requests[i % self.requests.len()]
    }
}

/// Hold-out recall over returned rows: hits among each row's
/// predictions over held-out edges at the rows' sources.
#[derive(Clone, Copy, Debug, Default)]
pub struct Recall {
    pub hits: u64,
    pub held: u64,
}

impl Recall {
    pub fn add(&mut self, held: &[u32], row: &[(u32, f32)]) {
        self.held += held.len() as u64;
        self.hits += row
            .iter()
            .filter(|(z, _)| held.binary_search(z).is_ok())
            .count() as u64;
    }

    pub fn value(&self) -> f64 {
        if self.held == 0 {
            0.0
        } else {
            self.hits as f64 / self.held as f64
        }
    }
}

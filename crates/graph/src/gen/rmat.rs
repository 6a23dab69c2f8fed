//! Streaming RMAT/Kronecker edge generator.
//!
//! The in-RAM generators in [`gen`](crate::gen) materialize their whole
//! edge set — fine up to bench scale, useless for the 100M–1B-edge
//! graphs the data plane targets. RMAT (recursive-matrix, the Graph500
//! kernel) needs no global state: each edge is drawn by descending
//! `scale` levels of a 2×2 probability matrix, so edge `i` is a pure
//! function of `(seed, i)`. That makes the generator *streaming* (edges
//! go straight into an [`ExternalGraphBuilder`] without an edge list
//! ever existing) and trivially resumable/parallelizable.
//!
//! The builder dedups and drops self-loops, so the final edge count is
//! slightly below `edges` (RMAT naturally collides on hub vertices);
//! callers needing an exact count should over-draw. Defaults follow the
//! Graph500 parameters `a=0.57, b=0.19, c=0.19`.

use std::path::Path;

use crate::extbuild::{BuildStats, ExternalGraphBuilder};
use crate::hash::{hash2, unit_f64};
use crate::{CsrGraph, GraphBuilder, GraphError};

/// Parameters of an RMAT draw.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// `log2` of the vertex count: the graph has `1 << scale` vertices.
    pub scale: u32,
    /// Edges to draw (pre-dedup; see the module docs).
    pub edges: u64,
    /// Top-left quadrant probability (both ids keep their high bit 0).
    pub a: f64,
    /// Top-right quadrant probability (target takes the high bit).
    pub b: f64,
    /// Bottom-left quadrant probability (source takes the high bit).
    pub c: f64,
    /// Seed driving the whole draw.
    pub seed: u64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        RmatConfig {
            scale: 16,
            edges: 1 << 20,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 42,
        }
    }
}

impl RmatConfig {
    /// The vertex count, `1 << scale`.
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale.min(32)
    }

    /// Draws edge `i` — a pure function of `(seed, i)`.
    pub fn edge_at(&self, i: u64) -> (u32, u32) {
        let (mut u, mut v) = (0u32, 0u32);
        let ab = self.a + self.b;
        let abc = ab + self.c;
        for level in 0..self.scale.min(32) {
            let r = unit_f64(hash2(self.seed, i, level as u64));
            let bit = 1u32 << level;
            if r < self.a {
                // top-left: neither takes the bit
            } else if r < ab {
                v |= bit;
            } else if r < abc {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
        }
        (u, v)
    }

    /// Streams every edge of the draw through `f` in index order.
    pub fn stream(&self, mut f: impl FnMut(u32, u32)) {
        for i in 0..self.edges {
            let (u, v) = self.edge_at(i);
            f(u, v);
        }
    }

    /// Streams the draw straight to a raw `SNPLG2` file through an
    /// [`ExternalGraphBuilder`] — the edge list never exists in RAM.
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on filesystem failures.
    pub fn generate_to_file(&self, out: &Path) -> Result<BuildStats, GraphError> {
        self.generate_with(ExternalGraphBuilder::new(), out)
    }

    /// Like [`RmatConfig::generate_to_file`] with a caller-configured
    /// builder (scratch dir, chunk size, symmetrize…).
    ///
    /// # Errors
    ///
    /// [`GraphError::Io`] on filesystem failures.
    pub fn generate_with(
        &self,
        mut builder: ExternalGraphBuilder,
        out: &Path,
    ) -> Result<BuildStats, GraphError> {
        builder.reserve_vertices(self.num_vertices() as usize);
        let mut err = None;
        self.stream(|u, v| {
            if err.is_none() {
                if let Err(e) = builder.add_edge(u, v) {
                    err = Some(e);
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        builder.build(out)
    }

    /// Materializes the draw in RAM — small scales and tests only.
    pub fn generate_in_ram(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.edges as usize);
        b.reserve_vertices(self.num_vertices() as usize);
        self.stream(|u, v| {
            b.add_edge(u, v);
        });
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::v2;

    #[test]
    fn edges_are_deterministic_and_in_range() {
        let cfg = RmatConfig {
            scale: 10,
            edges: 5_000,
            ..RmatConfig::default()
        };
        let n = cfg.num_vertices() as u32;
        for i in (0..cfg.edges).step_by(97) {
            let (u, v) = cfg.edge_at(i);
            assert_eq!((u, v), cfg.edge_at(i), "edge {i} not deterministic");
            assert!(u < n && v < n, "edge {i} out of range: ({u}, {v})");
        }
        let other = RmatConfig { seed: 7, ..cfg };
        assert_ne!(
            (0..64).map(|i| cfg.edge_at(i)).collect::<Vec<_>>(),
            (0..64).map(|i| other.edge_at(i)).collect::<Vec<_>>(),
            "seed must matter"
        );
    }

    #[test]
    fn skew_favors_low_ids() {
        // RMAT's defining property: hubs concentrate at low vertex ids.
        let cfg = RmatConfig {
            scale: 12,
            edges: 20_000,
            ..RmatConfig::default()
        };
        let half = cfg.num_vertices() as u32 / 2;
        let mut low = 0u64;
        cfg.stream(|u, v| {
            if u < half {
                low += 1;
            }
            if v < half {
                low += 1;
            }
        });
        let frac = low as f64 / (2 * cfg.edges) as f64;
        assert!(frac > 0.6, "low-half endpoint fraction {frac} not skewed");
    }

    #[test]
    fn streamed_file_matches_the_in_ram_draw() {
        let cfg = RmatConfig {
            scale: 8,
            edges: 2_000,
            ..RmatConfig::default()
        };
        let expected = cfg.generate_in_ram();
        let path = std::env::temp_dir().join(format!("snpl-rmat-{}.snplg", std::process::id()));
        let stats = cfg
            .generate_with(
                crate::extbuild::ExternalGraphBuilder::with_chunk_edges(257),
                &path,
            )
            .expect("generate");
        assert_eq!(stats.edges, expected.num_edges());
        let got = v2::decode_v2(&std::fs::read(&path).expect("read")).expect("decode");
        assert_eq!(got.num_vertices(), expected.num_vertices());
        for u in expected.vertices() {
            assert_eq!(got.out_neighbors(u), expected.out_neighbors(u), "{u} out");
        }
        std::fs::remove_file(&path).ok();
    }
}

#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Graph substrate for the SNAPLE link-prediction framework.
//!
//! This crate provides everything the upper layers need to *hold* and
//! *produce* graphs:
//!
//! * [`CsrGraph`] — an immutable compressed-sparse-row directed graph
//!   (out-adjacency only), the storage format consumed by the GAS
//!   engine ([`snaple-gas`](https://example.org/snaple)).
//! * [`GraphStore`] — the storage-backend abstraction over adjacency
//!   access: [`CsrGraph`] (eager, in RAM) and [`v2::FileCsr`] (lazy,
//!   file-backed, zero-parse) serve the same engine code.
//! * [`GraphBuilder`] — the mutable construction side: collect edges, then
//!   [`GraphBuilder::build`] a [`CsrGraph`] (deduplicated, sorted, optionally
//!   symmetrized).
//! * [`delta`] — streaming mutation: batched edge insertions/removals
//!   ([`GraphDelta`]) with an overlay adjacency that composes with the
//!   immutable CSR, folded back into CSR form by [`CsrGraph::compact`].
//! * [`io`] — text edge-list (SNAP style) and a compact binary codec.
//! * [`codec`] — the one framed-record codec (`"SL"` frame reader and
//!   writer, payload primitives, the [`GraphDelta`] encoding, CRC-32),
//!   spoken identically by the shard protocol and the durability
//!   commitlog in the upper layers.
//! * [`stats`] — out-degree histograms/CDFs, clustering, reciprocity; used to
//!   regenerate the paper's Figure 6a–c.
//! * [`gen`] — seeded synthetic generators (Erdős–Rényi, Barabási–Albert,
//!   Holme–Kim, Watts–Strogatz) and [`gen::datasets`] emulating the five
//!   datasets of the paper's Table 4 at a configurable scale.
//! * [`mask`] — vertex-subset bitmasks ([`VertexMask`]), the substrate of
//!   targeted (query-subset) prediction in the upper layers.
//! * [`hash`] / [`sample`] — deterministic hashing and sampling utilities
//!   shared by the whole workspace (e.g. the probabilistic neighborhood
//!   truncation of SNAPLE's step 1).
//!
//! # Example
//!
//! ```
//! use snaple_graph::{GraphBuilder, VertexId};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(0, 2);
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 3);
//! assert_eq!(g.out_neighbors(VertexId::new(0)).len(), 2);
//! ```
//!
//! # Graphs bigger than RAM
//!
//! The paper's headline scale is a billion edges — graphs that cannot
//! be *built* in memory, and that a server should not have to *parse*
//! per run. Three pieces make that workflow; only the first runs out of
//! core:
//!
//! 1. **Build out of core.** [`extbuild::ExternalGraphBuilder`]
//!    chunk-sorts an edge stream of any length through bounded-memory
//!    runs on disk and merges it straight into a `SNPLG2` file, with
//!    the same dedup/symmetrize/self-loop semantics as the in-RAM
//!    [`GraphBuilder`]. [`gen::rmat`] streams synthetic RMAT/Kronecker
//!    edges into it without materializing the edge list. From the CLI:
//!    `snaple-cli graph gen --rmat-scale 25 --out big.snplg` and
//!    `snaple-cli graph convert --graph edges.txt --out big.snplg`.
//! 2. **Open without parsing.** `SNPLG2` ([`v2`]) stores the CSR
//!    arrays verbatim, each section checksummed.
//!    [`v2::FileCsr::open`] reads only the header and the section
//!    table — open time is flat in the edge count. A section loads
//!    whole into RAM on first touch, so a run that never reads weights
//!    never loads them, but every section a run touches must fit in
//!    memory. [`io::open_store`] picks the backend
//!    from the file magic, and `snaple predict`/`serve` open every
//!    binary graph through it.
//! 3. **Serve either backend.** The engine, partitioner and serving
//!    layers consume [`GraphStore`], so eager and file-backed graphs
//!    produce bit-identical predictions — pinned by property tests. The
//!    varint flavor of `SNPLG2` ([`v2::write_v2_varint`]) halves the
//!    file and opens into an in-RAM [`CsrGraph`].

pub mod builder;
pub mod codec;
/// Tests of the varint (compressed) `SNPLG2` flavor, whose codec lives in
/// [`v2`].
#[cfg(test)]
#[path = "varint_tests.rs"]
mod compress;
pub mod csr;
pub mod delta;
pub mod error;
pub mod extbuild;
pub mod gen;
pub mod hash;
pub mod id;
pub mod io;
pub mod mask;
pub mod relabel;
pub mod sample;
pub mod stats;
pub mod store;
pub mod v2;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::{DeltaOverlay, GraphDelta, LiveGraph};
pub use error::GraphError;
pub use extbuild::ExternalGraphBuilder;
pub use id::VertexId;
pub use mask::{RankedMask, SetVertices, VertexMask};
pub use relabel::Relabeling;
pub use store::GraphStore;
pub use v2::FileCsr;

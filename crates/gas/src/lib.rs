#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A simulated distributed **gather-apply-scatter** (GAS) engine.
//!
//! This crate is the substrate on which the SNAPLE link-prediction programs
//! run. It reproduces the execution and *cost* structure of
//! GraphLab/PowerGraph — the engine the paper builds on — without requiring
//! a physical cluster:
//!
//! * Graphs are split across `N` simulated nodes with a **vertex-cut**
//!   partitioner ([`partition`]): edges are assigned to nodes, vertices are
//!   replicated wherever their edges live, and one replica per vertex is the
//!   *master*.
//! * A GAS superstep ([`Engine::run_step`]) executes a user
//!   [`GasStep`] program: per-edge `gather`, associative `sum` into
//!   per-node partial accumulators, and per-vertex `apply` at the master.
//!   Programs really run (multithreaded on the host), so their outputs are
//!   exact; only *time* is modeled.
//! * The host runs a superstep **gatherer-major**: each worker owns a
//!   contiguous range of gatherers and, per gatherer, gathers its edge run
//!   in every partition in node order, folding each partial into the
//!   gatherer's accumulator at once — the order in which a master merges
//!   partials. Folds therefore happen in one fixed order whatever the
//!   worker count, so even float accumulators are bit-identical, and
//!   every per-node counter is an integer sum over the workers.
//! * Every byte that would cross the network in a real deployment is
//!   accounted: master→mirror state broadcasts before gathering and
//!   mirror→master partial-gather transfers after it. Per-node memory is
//!   tracked against the cluster's capacity and the engine fails with
//!   [`EngineError::ResourceExhausted`] exactly where a real GraphLab
//!   deployment would die — which is how the paper's BASELINE fails on
//!   *orkut* and *twitter-rv*.
//! * Supersteps can be **masked** to an active vertex subset
//!   ([`Engine::run_step_masked`]), and then cost their frontier, not the
//!   graph: gather gallops to each active vertex's edge run in every
//!   partition's gatherer-sorted edge list, broadcast accounting visits
//!   only the read set (active vertices plus the neighbors their gathers
//!   read), folds and apply touch only active vertices, and small
//!   frontiers run on the calling thread. [`Engine::run_step_sparse`]
//!   also keeps program state for the read set only, found by rank
//!   through a [`RankedMask`](snaple_graph::RankedMask). Beyond that a
//!   masked step scans only vertex bitmasks, `|V| / 64` words at a time.
//!   Every counter is identical to the dense step restricted to the mask.
//! * Steps whose `apply` writes no state their gather reads
//!   ([`GasStep::apply_disjoint_from_gather`]) run in **gatherer blocks**:
//!   gather and fold → apply once per block of consecutive gatherers
//!   holding ≈8k edges, so host memory is one block's accumulators, not
//!   the graph's. Each block is one slice of every partition's
//!   gatherer-sorted edge list (masked: one slice of the active list).
//!   Results, every counter and every error equal the single-block
//!   step's; the simulated per-node memory still charges all partials of
//!   the step. After an `Err` the program state is unspecified.
//! * A calibrated [`cost::CostModel`] converts the per-node op and byte
//!   tallies into simulated wall-clock seconds for a given
//!   [`ClusterSpec`] (the paper's type-I and type-II machines ship as
//!   presets).
//! * Deployments are **refreshable in place**: the serving lifecycle is
//!   *prepare → execute → [`Deployment::apply_delta`] → execute*. A
//!   [`GraphDelta`](snaple_graph::GraphDelta) of edge insertions and
//!   removals folds into the prepared state incrementally — the graph
//!   via a linear [`CsrGraph::compact`](snaple_graph::CsrGraph::compact)
//!   merge, the vertex-cut partition by re-routing only the partitions
//!   the delta touches — and engines created afterwards run on the
//!   mutated graph with results bit-identical to a cold rebuild on it.
//!   [`RunStats`] carry the deployment's cumulative delta-apply time and
//!   touched-partition count; see [`deploy`] for the full lifecycle.
//!
//! # Example
//!
//! Partition a graph once into a [`Deployment`], then count each vertex's
//! out-degree with a one-step GAS program run on it:
//!
//! ```
//! use snaple_gas::{
//!     ClusterSpec, Deployment, Engine, GasStep, GatherCtx, PartitionStrategy, WorkTally,
//! };
//! use snaple_graph::{CsrGraph, VertexId};
//!
//! struct OutDegree;
//! impl GasStep for OutDegree {
//!     type Vertex = u64;
//!     type Gather = u64;
//!     fn name(&self) -> &'static str { "out-degree" }
//!     fn gather(&self, _: &GatherCtx<'_>, _u: VertexId, _ud: &u64, _v: VertexId,
//!               _vd: &u64, _w: &mut WorkTally) -> Option<u64> { Some(1) }
//!     fn sum(&self, a: u64, b: u64, _w: &mut WorkTally) -> u64 { a + b }
//!     fn apply(&self, _: &GatherCtx<'_>, _u: VertexId, data: &mut u64,
//!              acc: Option<u64>, _w: &mut WorkTally) { *data = acc.unwrap_or(0); }
//! }
//!
//! let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
//! let cluster = ClusterSpec::type_i(2);
//! let deployment = Deployment::new(&g, cluster, PartitionStrategy::RandomVertexCut, 7)?;
//! let mut engine = Engine::on(&deployment);
//! let mut state = vec![0u64; 3];
//! engine.run_step(&OutDegree, &mut state)?;
//! assert_eq!(state, vec![2, 1, 0]);
//! # Ok::<(), snaple_gas::EngineError>(())
//! ```

pub mod cluster;
pub mod cost;
pub mod deploy;
pub mod engine;
pub mod error;
pub mod partition;
pub mod program;
pub mod scratch;
pub mod shard;
pub mod size;
pub mod stats;

pub use cluster::{ClusterSpec, NodeId};
pub use cost::CostModel;
pub use deploy::{DeltaStats, Deployment};
pub use engine::{host_parallelism, Engine};
pub use error::EngineError;
pub use partition::{master_node, PartitionStrategy, PartitionedGraph};
pub use program::{GasStep, GatherCtx, GatherOverflow, NeighborStates, RunBudget, WorkTally};
pub use scratch::ScratchArena;
pub use shard::ShardAssignment;
pub use size::SizeEstimate;
pub use stats::{NodeStats, RunStats, StepStats};

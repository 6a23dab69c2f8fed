//! Shard-per-process distributed serving: shard runtimes, a binary wire
//! protocol, and a scatter-gather router.
//!
//! This module splits the serving runtime into `N` independent
//! **shards**, each an isolated full runtime (graph snapshot, prepared
//! predictor, statistics), fronted by a [`ShardRouter`] that scatters
//! requests and gathers replies. It is the single-machine stand-in for
//! the paper's scale-out story: the same serving API, but with the
//! request path crossing real process (or channel) boundaries through a
//! real serialized protocol.
//!
//! # Topology
//!
//! The cluster's `P` partitions are divided into `N` contiguous blocks
//! ([`ShardAssignment`](snaple_gas::ShardAssignment)); shard `i` *owns*
//! the vertices whose **master partition** falls in block `i`. The
//! master placement is a pure hash of the spec's seed
//! ([`master_node`](snaple_gas::master_node)), so the router can route
//! any vertex without consulting the shards — and the routing stays
//! stable as deltas grow the graph. Requests **scatter**: each queried
//! vertex goes to its one owning shard, sub-queries are disjoint, and
//! the gathered rows union into exactly what one big server would
//! produce (sub-queries run as masked supersteps, which are exact by
//! construction). Updates **broadcast**: every shard applies the same
//! [`GraphDelta`](snaple_graph::GraphDelta) to its snapshot in place,
//! keeping all replicas identical. Each shard is a sequential
//! [`Server`](crate::serve::Server) behind a frame loop; the serving
//! model itself is described in the [serve module docs](crate::serve).
//!
//! # Wire framing
//!
//! Shards speak a binary protocol ([`wire`]), one message per
//! [`snaple_graph::codec`] frame: length-prefixed and CRC-32-checksummed,
//! the same framed record the durability commitlog writes.
//! Requests are `Prepare`, `Predict`, `Delta`, `Shutdown`; replies are
//! `Ready`, `Rows`, `DeltaOk`, `Err`, `Stats`. Scores cross the wire as
//! raw `f32` bits, so serving through shards is bit-identical to
//! serving in-process. The decoder never trusts the peer: truncated
//! frames, corrupt checksums, oversized length prefixes, and unknown
//! tags all surface as typed [`WireError`]s — payloads are read in
//! bounded chunks, so a lying length prefix cannot balloon memory.
//!
//! # Threads vs. processes
//!
//! Both transports exchange *identical* frames through one generic
//! connection loop ([`runtime::serve_connection`]):
//!
//! * [`ShardTransport::Threads`] (default) hosts each shard on a thread
//!   of this process, with frames travelling over in-memory channels.
//!   Zero deployment overhead; no isolation.
//! * [`ShardTransport::Processes`] spawns one `snaple-shardd` child per
//!   shard and speaks over its stdin/stdout pipes. Full OS isolation: a
//!   crashing shard becomes a typed
//!   [`SnapleError::ShardFailed`](crate::SnapleError::ShardFailed) on
//!   the affected requests, never a router crash or a hang — the router
//!   detects the broken pipe, fails in-flight requests routed to the
//!   dead shard, rejects new ones, and
//!   [`RouterHandle::drain`] still completes.
//!
//! # Example
//!
//! ```no_run
//! use snaple_core::shard::{ShardOptions, ShardRouter, ShardSpec, ShardTransport};
//! use snaple_core::{PlanConfig, QuerySet};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::CsrGraph;
//!
//! let graph = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
//! let spec = ShardSpec::Plan { specs: vec!["linearSum".into()], config: PlanConfig::new() };
//! let outcome = ShardRouter::run(
//!     &spec,
//!     &graph,
//!     &ClusterSpec::type_i(8),
//!     ShardOptions::new().shards(4).transport(ShardTransport::Threads),
//!     |handle| handle.serve(&QuerySet::from_indices([0, 2])),
//! )?;
//! let prediction = outcome.value?;
//! println!("served {} requests", outcome.stats.requests);
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

pub mod process;
pub mod router;
pub mod runtime;
pub mod wire;

pub use router::{
    PendingRows, RouterHandle, ShardOptions, ShardOutcome, ShardRouter, ShardTransport,
};
pub use wire::{ShardSpec, WireError};

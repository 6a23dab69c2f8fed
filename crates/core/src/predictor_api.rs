//! The unified prediction API: [`Predictor`], [`PredictRequest`],
//! [`QuerySet`], and the prepare/execute split
//! ([`PrepareRequest`]/[`PreparedPredictor`]/[`ExecuteRequest`]).
//!
//! Every backend in the workspace — SNAPLE itself, the paper's BASELINE,
//! the Cassovary-style random-walk comparator, and the supervised
//! re-ranker — answers the same calls:
//!
//! ```text
//! fn prepare(&self, req: &PrepareRequest<'_>) -> Result<Box<dyn PreparedPredictor>, SnapleError>
//! fn predict(&self, req: &PredictRequest<'_>) -> Result<Prediction, SnapleError>
//! ```
//!
//! # Prepare once, execute many
//!
//! A one-shot [`Predictor::predict`] rebuilds all heavy per-graph state —
//! the O(edges) vertex-cut partition, the cost model, backend-specific
//! precomputation — on every call. A serving deployment answering a stream
//! of small query sets against the *same* graph and cluster should pay
//! that setup once: [`Predictor::prepare`] builds a [`PreparedPredictor`]
//! owning the immutable heavy state, and its
//! [`execute`](PreparedPredictor::execute) answers any number of
//! [`ExecuteRequest`]s (query subsets, optional attributes, optional seed
//! override) against it. `predict` is a thin `prepare` + `execute`
//! composition, so the two paths return bit-identical rows:
//!
//! ```
//! use snaple_core::{
//!     ExecuteRequest, PredictRequest, Predictor, PrepareRequest, QuerySet, NamedScore, Snaple,
//!     SnapleConfig,
//! };
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! // Pay the partition build once...
//! let prepared = snaple.prepare(&PrepareRequest::new(&graph, &cluster))?;
//! // ...then answer many requests against it.
//! for seed in 0..3 {
//!     let queries = QuerySet::sample(graph.num_vertices(), 50, seed);
//!     let served = prepared.execute(&ExecuteRequest::new().with_queries(&queries))?;
//!     let one_shot = snaple.predict(
//!         &PredictRequest::new(&graph, &cluster).with_queries(&queries),
//!     )?;
//!     for q in queries.iter() {
//!         assert_eq!(served.for_vertex(q), one_shot.for_vertex(q));
//!     }
//! }
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```
//!
//! Partition-backed backends ([`ScorePlan`](crate::ScorePlan), which
//! SNAPLE prepares as a one-column plan, BASELINE, the supervised panel)
//! implement the one-method [`ScoringProgram`]; the generic [`Prepared`] owns their vertex-cut
//! [`Deployment`] and is their one [`PreparedPredictor`], so execute,
//! apply and fork exist once. The partition-free random-walk backend
//! implements [`PreparedPredictor`] directly.
//!
//! A [`PredictRequest`] bundles everything a prediction run needs: the
//! graph, the simulated [`ClusterSpec`], optional per-vertex content
//! attributes, and — the serving-oriented capability — an optional
//! [`QuerySet`] of source vertices. With a query set, backends restrict
//! their work to the vertices that can still influence the queried rows
//! (SNAPLE and BASELINE run their GAS steps under shrinking
//! [`VertexMask`]s, the random-walk backend only walks from the queries),
//! which is how a "who to follow" service computes suggestions for the
//! users who are actually online instead of the whole graph.
//!
//! Targeted runs are *exact*: the rows they return are bit-identical to
//! the same rows of an all-vertices run with the same configuration and
//! seeds; rows outside the query set are empty.
//!
//! # Example
//!
//! ```
//! use snaple_core::{PredictRequest, Predictor, QuerySet, NamedScore, Snaple, SnapleConfig};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//! // Any backend behind the one interface:
//! let snaple: &dyn Predictor =
//!     &Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
//!
//! // All-vertices (batch) prediction:
//! let all = snaple.predict(&PredictRequest::new(&graph, &cluster))?;
//! assert_eq!(all.num_vertices(), graph.num_vertices());
//!
//! // Targeted (serving) prediction for 1% of the users:
//! let queries = QuerySet::sample(graph.num_vertices(), graph.num_vertices() / 100, 7);
//! let req = PredictRequest::new(&graph, &cluster).with_queries(&queries);
//! let targeted = snaple.predict(&req)?;
//! for q in queries.iter() {
//!     assert_eq!(targeted.for_vertex(q), all.for_vertex(q));
//! }
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

use std::time::Instant;

use snaple_gas::{ClusterSpec, DeltaStats, Deployment, PartitionStrategy};
use snaple_graph::hash::hash2;
use snaple_graph::{GraphDelta, GraphStore, VertexId, VertexMask};

use crate::error::SnapleError;
use crate::predictor::Prediction;

/// A set of source vertices to predict for, sorted and deduplicated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySet {
    ids: Vec<VertexId>,
}

impl QuerySet {
    /// Builds a query set from any id iterator (duplicates are dropped,
    /// order does not matter).
    pub fn new(ids: impl IntoIterator<Item = VertexId>) -> Self {
        let mut ids: Vec<VertexId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        QuerySet { ids }
    }

    /// Builds a query set from raw `u32` indices.
    pub fn from_indices(ids: impl IntoIterator<Item = u32>) -> Self {
        QuerySet::new(ids.into_iter().map(VertexId::new))
    }

    /// Deterministically samples `count` distinct vertices out of
    /// `0..num_vertices` (hash-ranked, so independent of any RNG state).
    ///
    /// Sampling at least `num_vertices` ids returns every vertex.
    pub fn sample(num_vertices: usize, count: usize, seed: u64) -> Self {
        if count >= num_vertices {
            return QuerySet::from_indices(0..num_vertices as u32);
        }
        let mut ranked: Vec<(u64, u32)> = (0..num_vertices as u32)
            .map(|v| (hash2(seed, v as u64, 0x5e7), v))
            .collect();
        ranked.sort_unstable();
        ranked.truncate(count);
        QuerySet::from_indices(ranked.into_iter().map(|(_, v)| v))
    }

    /// Number of queried vertices.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty (a valid request: no rows are produced).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The sorted queried ids.
    pub fn as_slice(&self) -> &[VertexId] {
        &self.ids
    }

    /// Iterates the queried ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.ids.iter().copied()
    }

    /// Whether `v` is queried.
    pub fn contains(&self, v: VertexId) -> bool {
        self.ids.binary_search(&v).is_ok()
    }

    /// Largest queried id, if any.
    pub fn max_id(&self) -> Option<VertexId> {
        self.ids.last().copied()
    }

    /// The query set as an active-vertex mask over `num_vertices`.
    ///
    /// # Panics
    ///
    /// Panics when an id is out of range; [`PredictRequest::validate`]
    /// reports that case as an error before backends get here.
    pub fn to_mask(&self, num_vertices: usize) -> VertexMask {
        VertexMask::from_vertices(num_vertices, self.iter())
    }
}

impl FromIterator<VertexId> for QuerySet {
    fn from_iter<I: IntoIterator<Item = VertexId>>(iter: I) -> Self {
        QuerySet::new(iter)
    }
}

/// One prediction call: the graph and cluster to run on, plus optional
/// per-vertex attributes and an optional query subset.
///
/// Requests are cheap reference bundles — build one per run with
/// [`PredictRequest::new`] and the `with_*` builders.
#[derive(Clone, Copy, Debug)]
pub struct PredictRequest<'a> {
    prepare: PrepareRequest<'a>,
    execute: ExecuteRequest<'a>,
}

impl<'a> PredictRequest<'a> {
    /// Creates an all-vertices request without attributes.
    pub fn new(graph: &'a dyn GraphStore, cluster: &'a ClusterSpec) -> Self {
        PredictRequest {
            prepare: PrepareRequest::new(graph, cluster),
            execute: ExecuteRequest::new(),
        }
    }

    /// Attaches per-vertex content attributes: `attributes[i]` becomes
    /// vertex `i`'s tag bag, visible to content-aware similarities such as
    /// [`similarity::ContentBlend`](crate::similarity::ContentBlend).
    pub fn with_attributes(mut self, attributes: &'a [Vec<u32>]) -> Self {
        self.execute = self.execute.with_attributes(attributes);
        self
    }

    /// Restricts prediction to the sources in `queries`.
    pub fn with_queries(mut self, queries: &'a QuerySet) -> Self {
        self.execute = self.execute.with_queries(queries);
        self
    }

    /// The graph to predict over.
    pub fn graph(&self) -> &'a dyn GraphStore {
        self.prepare.graph()
    }

    /// The simulated cluster to run on.
    pub fn cluster(&self) -> &'a ClusterSpec {
        self.prepare.cluster()
    }

    /// Per-vertex content attributes, if attached.
    pub fn attributes(&self) -> Option<&'a [Vec<u32>]> {
        self.execute.attributes()
    }

    /// The query subset, if any (`None` means all vertices).
    pub fn queries(&self) -> Option<&'a QuerySet> {
        self.execute.queries()
    }

    /// Checks the request's internal consistency (see
    /// [`ExecuteRequest::validate_for`]).
    ///
    /// Backends call this first; it is public so front ends can fail fast
    /// before spending work.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] describing the mismatch.
    pub fn validate(&self) -> Result<(), SnapleError> {
        self.execute.validate_for(self.graph())
    }

    /// The active-vertex mask of the query subset (`None` for
    /// all-vertices requests).
    pub fn query_mask(&self) -> Option<VertexMask> {
        self.execute.query_mask(self.graph())
    }
}

/// The *prepare* half of a prediction lifecycle: the graph and the
/// simulated cluster the heavy per-graph state should be built for.
#[derive(Clone, Copy, Debug)]
pub struct PrepareRequest<'a> {
    graph: &'a dyn GraphStore,
    cluster: &'a ClusterSpec,
}

impl<'a> PrepareRequest<'a> {
    /// Creates a prepare request.
    pub fn new(graph: &'a dyn GraphStore, cluster: &'a ClusterSpec) -> Self {
        PrepareRequest { graph, cluster }
    }

    /// The graph to prepare for.
    pub fn graph(&self) -> &'a dyn GraphStore {
        self.graph
    }

    /// The simulated cluster to prepare for.
    pub fn cluster(&self) -> &'a ClusterSpec {
        self.cluster
    }
}

/// The *execute* half of a prediction lifecycle: everything that may vary
/// per request against a prepared graph/cluster — the query subset,
/// optional per-vertex attributes, and an optional seed override for the
/// randomized parts of a run (neighborhood truncation, `klocal` sampling,
/// walk steps; the prepared partition layout is fixed and unaffected).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecuteRequest<'a> {
    queries: Option<&'a QuerySet>,
    attributes: Option<&'a [Vec<u32>]>,
    seed: Option<u64>,
}

impl<'a> ExecuteRequest<'a> {
    /// Creates an all-vertices request without attributes, running with
    /// the predictor's configured seed.
    pub fn new() -> Self {
        ExecuteRequest::default()
    }

    /// Restricts execution to the sources in `queries`.
    pub fn with_queries(mut self, queries: &'a QuerySet) -> Self {
        self.queries = Some(queries);
        self
    }

    /// Attaches per-vertex content attributes (see
    /// [`PredictRequest::with_attributes`]).
    pub fn with_attributes(mut self, attributes: &'a [Vec<u32>]) -> Self {
        self.attributes = Some(attributes);
        self
    }

    /// Overrides the seed of the run's randomized parts.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The query subset, if any (`None` means all vertices).
    pub fn queries(&self) -> Option<&'a QuerySet> {
        self.queries
    }

    /// Per-vertex content attributes, if attached.
    pub fn attributes(&self) -> Option<&'a [Vec<u32>]> {
        self.attributes
    }

    /// The seed override, if any.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Checks the request against the prepared graph: attributes must
    /// cover every vertex and queried ids must exist.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] describing the mismatch.
    pub fn validate_for(&self, graph: &dyn GraphStore) -> Result<(), SnapleError> {
        let n = graph.num_vertices();
        if let Some(attrs) = self.attributes.filter(|a| a.len() != n) {
            return Err(SnapleError::InvalidConfig(format!(
                "attributes cover {} vertices but the graph has {n}",
                attrs.len()
            )));
        }
        let max = self.queries.and_then(QuerySet::max_id);
        if let Some(max) = max.filter(|q| q.index() >= n) {
            return Err(SnapleError::InvalidConfig(format!(
                "query vertex {max} out of range: the graph has {n} vertices"
            )));
        }
        Ok(())
    }

    /// The active-vertex mask of the query subset over `graph` (`None`
    /// for all-vertices requests).
    pub fn query_mask(&self, graph: &dyn GraphStore) -> Option<VertexMask> {
        self.queries.map(|q| q.to_mask(graph.num_vertices()))
    }
}

/// One-time setup costs captured by [`Predictor::prepare`].
#[derive(Clone, Debug, Default)]
pub struct SetupStats {
    /// Total host wall-clock seconds the `prepare` call took (partition
    /// build plus backend-specific precomputation).
    pub prepare_wall_seconds: f64,
    /// Host wall-clock seconds of the vertex-cut partition build alone
    /// (zero for backends that do not partition, e.g. random walks).
    pub partition_build_seconds: f64,
    /// Replication factor of the prepared partition (1.0 for
    /// non-partitioning backends).
    pub replication_factor: f64,
}

/// A predictor with its heavy per-graph state already built: the *execute
/// many* half of the serving lifecycle.
///
/// Partition-backed backends get it from the generic [`Prepared`] over
/// their [`ScoringProgram`]; partition-free ones implement it directly.
/// Either way it answers any number of [`ExecuteRequest`]s against the
/// prepared state. `execute` must be deterministic: the same request
/// always returns bit-identical rows, and those rows match a fresh
/// one-shot [`Predictor::predict`] with the same graph, cluster,
/// configuration and seed.
///
/// # Sharing contract
///
/// `execute` takes `&self` and every per-run mutable state (engine
/// accounting, vertex state vectors, RNG-free hash seeds) must be truly
/// per-call, so one prepared predictor can serve **concurrent** callers:
/// the trait requires `Send + Sync`, and
/// [`ConcurrentServer`](crate::concurrent::ConcurrentServer) shares one
/// snapshot across its whole worker pool behind an `Arc`. Mutation goes
/// through two distinct paths:
///
/// * [`apply_delta`](PreparedPredictor::apply_delta) (`&mut self`) —
///   refreshes this predictor **in place**; cheapest, but requires
///   exclusive access (the sequential [`Server`](crate::serve::Server)
///   uses it).
/// * [`fork_with_delta`](PreparedPredictor::fork_with_delta) (`&self`) —
///   builds the post-delta snapshot **off to the side** and leaves `self`
///   untouched, so in-flight readers finish on the old state; the
///   concurrent server publishes the fork as a new epoch.
pub trait PreparedPredictor: Send + Sync {
    /// Answers one request against the prepared state.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] for malformed requests (out-of-range
    /// queries, short attribute tables, attributes on a structural-only
    /// backend); [`SnapleError::Engine`] when the simulated cluster cannot
    /// execute the run, or with
    /// [`EngineError::GraphFault`](snaple_gas::EngineError::GraphFault)
    /// when a section of a file-backed graph failed to load.
    fn execute(&self, req: &ExecuteRequest<'_>) -> Result<Prediction, SnapleError>;

    /// Ingests a batch of edge insertions/removals *without* rebuilding
    /// the heavy prepared state from scratch — the streaming half of the
    /// serving lifecycle (`prepare → execute → apply_delta → execute`).
    ///
    /// The contract mirrors the determinism guarantee of
    /// [`execute`](PreparedPredictor::execute): after an applied delta,
    /// every subsequent request returns rows bit-identical to a cold
    /// [`Predictor::prepare`] on the mutated graph. Partition-backed
    /// implementations re-route only the touched vertex-cut partitions
    /// (see [`snaple_gas::Deployment::apply_delta`]); partition-free
    /// backends just refresh their per-graph tables.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError::Engine`] from the underlying deployment
    /// refresh, including
    /// [`EngineError::GraphFault`](snaple_gas::EngineError::GraphFault)
    /// when a section of a file-backed graph failed to load.
    fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError>;

    /// Builds the post-delta snapshot **off to the side**: a fully owned
    /// (`'static`) copy of the prepared state with `delta` applied, while
    /// `self` stays untouched and keeps answering requests.
    ///
    /// This is the write path of epoch-based concurrent serving
    /// ([`ConcurrentServer`](crate::concurrent::ConcurrentServer)): the
    /// fork is built while readers execute on the current snapshot, then
    /// atomically published; in-flight reads finish on the old epoch and
    /// never block on the update. The copy is memcpy-bound (graph arrays,
    /// partition edge lists — see
    /// [`snaple_gas::Deployment::detach`]); the delta application on the
    /// fork is the same incremental routine as
    /// [`apply_delta`](PreparedPredictor::apply_delta), so the fork's
    /// subsequent results are bit-identical to a cold
    /// [`Predictor::prepare`] on the mutated graph.
    ///
    /// # Errors
    ///
    /// As [`apply_delta`](PreparedPredictor::apply_delta); on error no
    /// snapshot is produced and `self` is unchanged.
    fn fork_with_delta(
        &self,
        delta: &GraphDelta,
    ) -> Result<(Box<dyn PreparedPredictor>, DeltaStats), SnapleError>;

    /// The setup costs paid at prepare time — what repeated `execute`
    /// calls amortize.
    fn setup(&self) -> &SetupStats;
}

/// A scoring program that runs on a prepared vertex-cut [`Deployment`]:
/// the one method a partition-backed backend implements. Programs are
/// owned and cheap to clone, so an epoch fork carries its own copy.
pub trait ScoringProgram: Clone + Send + Sync + 'static {
    /// Answers one request on a deployment shared with other callers.
    ///
    /// # Errors
    ///
    /// As [`PreparedPredictor::execute`].
    fn execute_on(
        &self,
        deployment: &Deployment<'_>,
        req: &ExecuteRequest<'_>,
    ) -> Result<Prediction, SnapleError>;
}

/// A [`ScoringProgram`] with its [`Deployment`] (partition layout,
/// presence masks, cost model) built once: the [`PreparedPredictor`] of
/// every partition-backed backend. A fork detaches the deployment,
/// applies the delta to the copy and clones the program.
pub struct Prepared<'a, P> {
    program: P,
    deployment: Deployment<'a>,
    setup: SetupStats,
}

impl<'a, P: ScoringProgram> Prepared<'a, P> {
    /// Partitions the request's graph over its cluster with `strategy`
    /// and `seed`, timing the build into [`SetupStats`].
    ///
    /// # Errors
    ///
    /// [`SnapleError::Engine`] for unusable cluster shapes, or with
    /// [`EngineError::GraphFault`](snaple_gas::EngineError::GraphFault)
    /// when a section the partition build read failed to load.
    pub fn new(
        program: P,
        req: &PrepareRequest<'a>,
        strategy: PartitionStrategy,
        seed: u64,
    ) -> Result<Self, SnapleError> {
        let started = Instant::now();
        let deployment = Deployment::new(req.graph(), req.cluster().clone(), strategy, seed)?;
        let setup = SetupStats {
            prepare_wall_seconds: started.elapsed().as_secs_f64(),
            partition_build_seconds: deployment.partition_build_seconds(),
            replication_factor: deployment.replication_factor(),
        };
        Ok(Prepared {
            program,
            deployment,
            setup,
        })
    }

    /// The program this predictor executes.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The deployment the program executes on.
    pub fn deployment(&self) -> &Deployment<'a> {
        &self.deployment
    }

    /// Ingests a graph delta into the deployment in place (see
    /// [`PreparedPredictor::apply_delta`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapleError::Engine`] from the deployment refresh.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError> {
        Ok(self.deployment.apply_delta(delta)?)
    }
}

impl<P: ScoringProgram> PreparedPredictor for Prepared<'_, P> {
    fn execute(&self, req: &ExecuteRequest<'_>) -> Result<Prediction, SnapleError> {
        let prediction = self.program.execute_on(&self.deployment, req)?;
        // A section that failed to load during the run was read as empty
        // lists, so the rows cannot be trusted.
        self.deployment.graph().check_fault()?;
        Ok(prediction)
    }

    fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaStats, SnapleError> {
        Prepared::apply_delta(self, delta)
    }

    fn fork_with_delta(
        &self,
        delta: &GraphDelta,
    ) -> Result<(Box<dyn PreparedPredictor>, DeltaStats), SnapleError> {
        let mut deployment = self.deployment.detach();
        let applied = deployment.apply_delta(delta)?;
        let fork = Prepared {
            program: self.program.clone(),
            deployment,
            setup: self.setup.clone(),
        };
        Ok((Box::new(fork), applied))
    }

    fn setup(&self) -> &SetupStats {
        &self.setup
    }
}

/// The unified prediction interface every backend implements.
///
/// Backends implement [`Predictor::prepare`]; the one-shot
/// [`Predictor::predict`] is a provided `prepare` + `execute` composition,
/// so implementations must honor the whole request there: run on
/// [`PredictRequest::graph`] and [`PredictRequest::cluster`], respect
/// [`PredictRequest::queries`] exactly (queried rows bit-identical to an
/// all-vertices run, all other rows empty), and either consume or reject
/// [`PredictRequest::attributes`].
pub trait Predictor {
    /// Builds the heavy per-graph state once, returning a
    /// [`PreparedPredictor`] that answers many [`ExecuteRequest`]s.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] for unusable configurations or
    /// cluster shapes.
    fn prepare<'a>(
        &'a self,
        req: &PrepareRequest<'a>,
    ) -> Result<Box<dyn PreparedPredictor + 'a>, SnapleError>;

    /// Runs one prediction request: `prepare` + a single `execute`.
    ///
    /// The returned statistics include the partition build this one-shot
    /// call paid for ([`snaple_gas::RunStats::partition_build_seconds`]);
    /// a prepared predictor's `execute` reports zero there.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] for unusable configurations or
    /// malformed requests; [`SnapleError::Engine`] when the simulated
    /// cluster cannot execute the run (e.g. memory exhaustion).
    fn predict(&self, req: &PredictRequest<'_>) -> Result<Prediction, SnapleError> {
        req.validate()?;
        let prepared = self.prepare(&req.prepare)?;
        let mut prediction = prepared.execute(&req.execute)?;
        prediction.stats.partition_build_seconds += prepared.setup().partition_build_seconds;
        Ok(prediction)
    }
}

impl<P: Predictor + ?Sized> Predictor for &P {
    fn prepare<'a>(
        &'a self,
        req: &PrepareRequest<'a>,
    ) -> Result<Box<dyn PreparedPredictor + 'a>, SnapleError> {
        (**self).prepare(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snaple_graph::CsrGraph;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn query_sets_sort_and_dedup() {
        let q = QuerySet::from_indices([5, 1, 5, 3, 1]);
        assert_eq!(q.as_slice(), &[v(1), v(3), v(5)]);
        assert_eq!(q.len(), 3);
        assert!(q.contains(v(3)));
        assert!(!q.contains(v(2)));
        assert_eq!(q.max_id(), Some(v(5)));
    }

    #[test]
    fn sampling_is_deterministic_distinct_and_bounded() {
        let a = QuerySet::sample(1_000, 50, 7);
        let b = QuerySet::sample(1_000, 50, 7);
        let c = QuerySet::sample(1_000, 50, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds must sample differently");
        assert_eq!(a.len(), 50);
        assert!(a.iter().all(|id| id.index() < 1_000));
        assert_eq!(QuerySet::sample(10, 99, 1).len(), 10);
    }

    #[test]
    fn validation_catches_out_of_range_queries_and_short_attributes() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let cluster = ClusterSpec::type_i(1);
        assert!(PredictRequest::new(&g, &cluster).validate().is_ok());

        let bad_q = QuerySet::from_indices([0, 3]);
        let req = PredictRequest::new(&g, &cluster).with_queries(&bad_q);
        assert!(matches!(req.validate(), Err(SnapleError::InvalidConfig(_))));

        let attrs = vec![vec![1u32]; 2];
        let req = PredictRequest::new(&g, &cluster).with_attributes(&attrs);
        assert!(matches!(req.validate(), Err(SnapleError::InvalidConfig(_))));

        let ok_q = QuerySet::from_indices([0, 2]);
        let attrs = vec![vec![1u32]; 3];
        let req = PredictRequest::new(&g, &cluster)
            .with_attributes(&attrs)
            .with_queries(&ok_q);
        assert!(req.validate().is_ok());
        assert_eq!(req.query_mask().unwrap().len(), 2);
    }
}

//! Multi-score plans compiled to **fused** single-sweep execution.
//!
//! The paper's experiments sweep many scoring configurations over the same
//! graph, and the supervised re-ranker extracts several score columns per
//! candidate. Run naively, each configuration pays its own three-superstep
//! GAS program — N configurations, N full traversals, even though every
//! one of them gathers the *same* neighborhoods and walks the *same* 2-hop
//! paths.
//!
//! A [`ScorePlan`] removes that redundancy. It holds N declarative
//! [`ScoreSpec`] columns and compiles them into **one** masked superstep
//! sweep: the neighborhood step runs once, the similarity step computes
//! each neighbor pair's [`NeighborhoodView`] once
//! and feeds it to every column's kernel, and the scoring step walks each
//! sampled 2-hop path once, combining and aggregating per column. The
//! result is a [`ScoreMatrix`]: per-vertex top-`k` predictions per column,
//! each column **bit-identical** to running its spec alone as a standalone
//! [`Snaple`] — at roughly one sweep's gather cost instead
//! of N.
//!
//! What must be shared for columns to ride one sweep — and is therefore
//! validated at plan construction: the truncation threshold `thrΓ`, the
//! sampling parameter `klocal`, the sampling policy and its selection
//! similarity (eq. 11's `f`), the scored path length, the seed and the
//! partition strategy ([`PlanConfig`]). Everything else — kernels,
//! combinators, aggregators, `α`, per-column `k`, column weights — varies
//! freely per column.
//!
//! ```
//! use snaple_core::{ExecuteRequest, PrepareRequest, ScorePlan};
//! use snaple_gas::ClusterSpec;
//! use snaple_graph::gen::datasets;
//!
//! let graph = datasets::GOWALLA.emulate(0.01, 42);
//! let cluster = ClusterSpec::type_ii(4);
//!
//! // Four scores, one traversal:
//! let plan = ScorePlan::parse("linearSum, counter, jaccard@agg=max, cosine*0.7+common@k3")?;
//! let prepared = plan.prepare_plan(&PrepareRequest::new(&graph, &cluster))?;
//! let matrix = prepared.execute_matrix(&ExecuteRequest::new())?;
//! assert_eq!(matrix.num_columns(), 4);
//! for col in 0..matrix.num_columns() {
//!     // Each column is bit-identical to a standalone run of that spec.
//!     let _rows = matrix.column(col);
//! }
//! # Ok::<(), snaple_core::SnapleError>(())
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use snaple_gas::size::COLLECTION_OVERHEAD;
use snaple_gas::{
    Deployment, Engine, GasStep, GatherCtx, GatherOverflow, NeighborStates, PartitionStrategy,
    RunBudget, RunStats, ScratchArena, SizeEstimate, WorkTally,
};
use snaple_graph::hash::{edge_unit, hash2};
use snaple_graph::{RankedMask, VertexId, VertexMask};

use crate::config::{PathLength, SelectionPolicy, SnapleConfig};
use crate::error::SnapleError;
use crate::predictor::{Prediction, RowIndex, Snaple, StepMasks};
use crate::predictor_api::{
    ExecuteRequest, Predictor, PrepareRequest, Prepared, PreparedPredictor, ScoringProgram,
};
use crate::similarity::NeighborhoodView;
use crate::spec::{Registry, ScoreSpec};
use crate::steps::SecondHop;
use crate::topk::{bottom_k_by_score, top_k_by_score};

/// Sweep-wide configuration shared by every column of a [`ScorePlan`].
///
/// Defaults mirror [`SnapleConfig`]'s paper defaults. Spec strings may
/// pin the plan-scoped fields (`@klocal…`, `@thr…`, `@depth…`, `@sel…`);
/// [`ScorePlan::with_config`] merges those requests into the plan's
/// config and rejects conflicts between columns.
#[derive(Clone, Debug)]
pub struct PlanConfig {
    /// Default predictions per vertex for columns without `@k`.
    pub k: usize,
    /// Sampling parameter `klocal`; `None` disables sampling.
    pub klocal: Option<usize>,
    /// Truncation threshold `thrΓ`; `None` disables truncation.
    pub thr_gamma: Option<usize>,
    /// Neighbor-sampling policy of the shared similarity step.
    pub selection: SelectionPolicy,
    /// Seed driving every randomized decision of the sweep.
    pub seed: u64,
    /// Edge-placement strategy of the underlying engine.
    pub partition: PartitionStrategy,
    /// How many hops the scored paths span.
    pub path_length: PathLength,
}

impl Default for PlanConfig {
    fn default() -> Self {
        let base = SnapleConfig::new(crate::config::NamedScore::LinearSum);
        PlanConfig {
            k: base.k,
            klocal: base.klocal,
            thr_gamma: base.thr_gamma,
            selection: base.selection,
            seed: base.seed,
            partition: base.partition,
            path_length: base.path_length,
        }
    }
}

impl PlanConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        PlanConfig::default()
    }

    /// Sets the default per-column number of predictions.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the sampling parameter (`None` = no sampling).
    pub fn klocal(mut self, klocal: Option<usize>) -> Self {
        self.klocal = klocal;
        self
    }

    /// Sets the truncation threshold (`None` = no truncation).
    pub fn thr_gamma(mut self, thr: Option<usize>) -> Self {
        self.thr_gamma = thr;
        self
    }

    /// Sets the neighbor-sampling policy.
    pub fn selection(mut self, policy: SelectionPolicy) -> Self {
        self.selection = policy;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the partition strategy.
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.partition = strategy;
        self
    }

    /// Sets the scored path length.
    pub fn path_length(mut self, length: PathLength) -> Self {
        self.path_length = length;
        self
    }
}

/// A declarative multi-score plan compiled to one fused sweep.
///
/// See the [module docs](self) for the execution model and an example.
#[derive(Clone, Debug)]
pub struct ScorePlan {
    specs: Vec<ScoreSpec>,
    config: PlanConfig,
    /// Resolved per-column `k` (spec override or plan default).
    ks: Vec<usize>,
}

impl ScorePlan {
    /// Builds a plan over `specs` with the default [`PlanConfig`].
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] for empty plans, invalid per-column
    /// parameters, or columns whose plan-scoped requests
    /// (`klocal`/`thr`/`depth`/`sel`, selection similarity) conflict.
    pub fn new(specs: Vec<ScoreSpec>) -> Result<Self, SnapleError> {
        ScorePlan::with_config(specs, PlanConfig::default())
    }

    /// Builds a plan over `specs`, merging their plan-scoped requests
    /// into `config`.
    ///
    /// # Errors
    ///
    /// As [`ScorePlan::new`].
    pub fn with_config(specs: Vec<ScoreSpec>, mut config: PlanConfig) -> Result<Self, SnapleError> {
        if specs.is_empty() {
            return Err(SnapleError::InvalidConfig(
                "a score plan needs at least one spec".to_owned(),
            ));
        }
        for spec in &specs {
            spec.validate()?;
        }

        // Merge plan-scoped spec requests; columns must agree because the
        // whole plan shares one neighborhood/similarity sweep.
        fn merge<T: PartialEq + Copy + std::fmt::Debug>(
            what: &str,
            specs: &[ScoreSpec],
            select: impl Fn(&ScoreSpec) -> Option<T>,
            slot: &mut T,
        ) -> Result<(), SnapleError> {
            let mut pinned: Option<(usize, T)> = None;
            for (col, spec) in specs.iter().enumerate() {
                let Some(value) = select(spec) else { continue };
                match pinned {
                    None => pinned = Some((col, value)),
                    Some((first, prev)) if prev != value => {
                        return Err(SnapleError::InvalidConfig(format!(
                            "plan columns disagree on {what}: column {first} \
                             ({:?}) pins {prev:?} but column {col} ({:?}) pins \
                             {value:?}; {what} is shared by the fused sweep",
                            specs[first].label(),
                            spec.label(),
                        )))
                    }
                    Some(_) => {}
                }
            }
            if let Some((_, value)) = pinned {
                *slot = value;
            }
            Ok(())
        }
        merge(
            "klocal",
            &specs,
            |s| s.shared_params().klocal,
            &mut config.klocal,
        )?;
        merge(
            "thrΓ",
            &specs,
            |s| s.shared_params().thr_gamma,
            &mut config.thr_gamma,
        )?;
        merge(
            "depth",
            &specs,
            |s| s.shared_params().depth,
            &mut config.path_length,
        )?;
        merge(
            "selection policy",
            &specs,
            |s| s.shared_params().selection,
            &mut config.selection,
        )?;

        let selection_name = specs[0].components().selection_similarity.name().to_owned();
        for (col, spec) in specs.iter().enumerate().skip(1) {
            let name = spec.components().selection_similarity.name();
            if name != selection_name {
                return Err(SnapleError::InvalidConfig(format!(
                    "plan columns disagree on the selection similarity: column 0 \
                     ranks sampled neighbors by {selection_name:?} but column {col} \
                     ({:?}) by {name:?}; eq. 11's `f` is shared by the fused sweep",
                    spec.label(),
                )));
            }
        }

        if config.k == 0 {
            return Err(SnapleError::InvalidConfig(
                "plan k must be at least 1".to_owned(),
            ));
        }
        if config.klocal == Some(0) {
            return Err(SnapleError::InvalidConfig(
                "plan klocal must be at least 1 (use None to disable sampling)".to_owned(),
            ));
        }
        let ks = specs
            .iter()
            .map(|s| s.k_override().unwrap_or(config.k))
            .collect();
        Ok(ScorePlan { specs, config, ks })
    }

    /// Parses a comma-separated plan string (`"linearSum, jaccard@k16"`)
    /// against the built-in [`Registry`].
    ///
    /// # Errors
    ///
    /// As [`ScorePlan::new`], plus parse errors from
    /// [`ScoreSpec::parse`].
    pub fn parse(s: &str) -> Result<Self, SnapleError> {
        ScorePlan::parse_with(&Registry::builtin(), s, PlanConfig::default())
    }

    /// Parses a comma-separated plan string with an explicit registry and
    /// base configuration.
    ///
    /// # Errors
    ///
    /// As [`ScorePlan::parse`].
    pub fn parse_with(
        registry: &Registry,
        s: &str,
        config: PlanConfig,
    ) -> Result<Self, SnapleError> {
        let specs = s
            .split(',')
            .map(|token| ScoreSpec::parse_with(registry, token))
            .collect::<Result<Vec<_>, _>>()?;
        ScorePlan::with_config(specs, config)
    }

    /// The plan's columns.
    pub fn specs(&self) -> &[ScoreSpec] {
        &self.specs
    }

    /// The merged sweep configuration.
    pub fn config(&self) -> &PlanConfig {
        &self.config
    }

    /// Number of score columns.
    pub fn num_columns(&self) -> usize {
        self.specs.len()
    }

    /// Column labels, in column order.
    pub fn labels(&self) -> Vec<String> {
        self.specs.iter().map(|s| s.label().to_owned()).collect()
    }

    /// Resolved per-column `k`.
    pub fn column_k(&self, col: usize) -> usize {
        self.ks[col]
    }

    /// The [`SnapleConfig`] a *standalone* run of column `col` would use —
    /// the fused column is bit-identical to executing
    /// [`ScorePlan::column_snaple`] with this configuration.
    pub fn snaple_config(&self, col: usize) -> SnapleConfig {
        SnapleConfig::new(crate::config::NamedScore::LinearSum)
            .k(self.ks[col])
            .klocal(self.config.klocal)
            .thr_gamma(self.config.thr_gamma)
            .alpha(self.specs[col].alpha())
            .selection(self.config.selection)
            .seed(self.config.seed)
            .partition(self.config.partition)
            .path_length(self.config.path_length)
    }

    /// A standalone [`Snaple`] predictor equivalent to column `col` — the
    /// 1-spec special case the fused sweep generalizes.
    pub fn column_snaple(&self, col: usize) -> Snaple {
        Snaple::with_components(
            self.snaple_config(col),
            self.specs[col].components().clone(),
        )
    }

    /// The 1-spec plan a [`Snaple`] predictor prepares.
    pub(crate) fn from_snaple(snaple: &Snaple) -> Result<ScorePlan, SnapleError> {
        let config = snaple.config();
        let spec = ScoreSpec::from_components(
            snaple.components().name.clone(),
            snaple.components().clone(),
        )
        .k(config.k);
        ScorePlan::with_config(
            vec![spec],
            PlanConfig {
                k: config.k,
                klocal: config.klocal,
                thr_gamma: config.thr_gamma,
                selection: config.selection,
                seed: config.seed,
                partition: config.partition,
                path_length: config.path_length,
            },
        )
    }

    /// The `k` of the plan's [combined](ScoreMatrix::combined) ranking:
    /// the largest per-column `k`.
    pub fn combined_k(&self) -> usize {
        self.ks.iter().copied().max().unwrap_or(1)
    }

    /// Builds the plan's deployment once, returning a concrete
    /// [`PreparedPlan`] whose [`execute_matrix`](PreparedPlan::execute_matrix)
    /// answers requests with full [`ScoreMatrix`] results (the trait-level
    /// [`Predictor::prepare`] boxes the same value).
    ///
    /// # Errors
    ///
    /// [`SnapleError::Engine`] for unusable cluster shapes.
    pub fn prepare_plan<'a>(
        &self,
        req: &PrepareRequest<'a>,
    ) -> Result<PreparedPlan<'a>, SnapleError> {
        Prepared::new(self.clone(), req, self.config.partition, self.config.seed)
    }

    /// Runs the fused sweep on a prepared [`Deployment`], evaluating
    /// every column in one pass.
    ///
    /// With [`ExecuteRequest::queries`] the sweep runs under the same
    /// shrinking active-vertex masks as a targeted [`Snaple`] run; each
    /// queried row of each column is bit-identical to the standalone
    /// all-vertices run of that column, non-queried rows are empty.
    ///
    /// A query-subset sweep costs its read set, not the graph: per-vertex
    /// state exists only for the vertices the first step can read (the
    /// queries plus their lookahead neighborhoods, one hop wider), each
    /// superstep walks only its active vertices' edges (see
    /// [`Engine::run_step_sparse`]), and the matrix keeps rows for the
    /// queries alone. What still scales with the graph is a few passes
    /// over vertex bitmasks (`|V| / 64` words each). An all-vertices
    /// request runs the dense sweep.
    ///
    /// Every fused step declares
    /// [`GasStep::apply_disjoint_from_gather`], so the engine runs each
    /// superstep in gatherer blocks: an all-vertices sweep holds one
    /// block's candidate partials at a time, and each stored top-k row is
    /// allocated at exactly its length (see [`top_k_by_score`]). Host
    /// memory of the sweep is then the per-vertex state and the rows,
    /// ≈90–130 B per edge on emulated gowalla, not every candidate of
    /// every vertex.
    ///
    /// # Errors
    ///
    /// [`SnapleError::InvalidConfig`] for malformed requests,
    /// [`SnapleError::Engine`] when the simulated cluster cannot execute
    /// the sweep.
    pub fn execute_on(
        &self,
        deployment: &Deployment<'_>,
        req: &ExecuteRequest<'_>,
    ) -> Result<ScoreMatrix, SnapleError> {
        let graph = deployment.graph();
        req.validate_for(graph)?;
        let ncols = self.specs.len();
        let mut engine = Engine::on(deployment).with_seed(req.seed().unwrap_or(self.config.seed));
        let masks = req
            .query_mask(graph)
            .map(|q| StepMasks::build(graph, &q, self.config.path_length));
        // State slots of a query-subset sweep: the first (widest) step's
        // read set, which covers every later step's.
        let slots: Option<RankedMask> = masks
            .as_ref()
            .map(|m| RankedMask::new(m.neighborhood.expand_out(graph)));
        let mut state = vec![
            PlanVertex::default();
            slots.as_ref().map_or(graph.num_vertices(), RankedMask::len)
        ];
        if let Some(attrs) = req.attributes() {
            let slot_tags: Box<dyn Iterator<Item = &Vec<u32>>> = match &slots {
                None => Box::new(attrs.iter()),
                Some(s) => Box::new(s.mask().iter().filter_map(|v| attrs.get(v.index()))),
            };
            for (vertex, tags) in state.iter_mut().zip(slot_tags) {
                let mut tags = tags.clone();
                tags.sort_unstable();
                tags.dedup();
                vertex.tags = tags;
            }
        }
        let col_ops: Vec<AtomicU64> = (0..ncols).map(|_| AtomicU64::new(0)).collect();
        let slots = slots.as_ref();

        run_plan_step(
            &mut engine,
            &PlanNeighborhoodStep {
                thr_gamma: self.config.thr_gamma,
            },
            &mut state,
            slots,
            masks.as_ref().map(|m| &m.neighborhood),
        )?;
        run_plan_step(
            &mut engine,
            &PlanSimilarityStep {
                columns: &self.specs,
                klocal: self.config.klocal,
                selection: self.config.selection,
                col_ops: &col_ops,
            },
            &mut state,
            slots,
            masks.as_ref().map(|m| &m.similarity),
        )?;
        if self.config.path_length == PathLength::Three {
            // The recursive longer-path extension, fused: compute each
            // column's 2-hop scores, promote them into per-column path
            // tables, then combine once more (see `steps::PromoteScoresStep`).
            let keeps: Vec<usize> = self
                .ks
                .iter()
                .map(|&k| self.config.klocal.unwrap_or(k.max(20)))
                .collect();
            let promote_mask = masks.as_ref().and_then(|m| m.promote.as_ref());
            run_plan_step(
                &mut engine,
                &PlanScoreStep {
                    columns: &self.specs,
                    ks: &keeps,
                    second_hop: SecondHop::Sims,
                    col_ops: &col_ops,
                },
                &mut state,
                slots,
                promote_mask,
            )?;
            run_plan_step(
                &mut engine,
                &PlanPromoteStep { keeps: &keeps },
                &mut state,
                slots,
                promote_mask,
            )?;
        }
        let second_hop = match self.config.path_length {
            PathLength::Two => SecondHop::Sims,
            PathLength::Three => SecondHop::Paths,
        };
        run_plan_step(
            &mut engine,
            &PlanScoreStep {
                columns: &self.specs,
                ks: &self.ks,
                second_hop,
                col_ops: &col_ops,
            },
            &mut state,
            slots,
            masks.as_ref().map(|m| &m.score),
        )?;

        // Rows: every vertex's, or the queries' alone (ascending).
        let sources: Option<Vec<VertexId>> = masks.as_ref().map(|m| m.score.iter().collect());
        let scored: Vec<PlanVertex> = match (&sources, slots) {
            (Some(sources), Some(slots)) => sources
                .iter()
                .filter_map(|&v| slots.rank(v))
                .filter_map(|i| state.get_mut(i).map(std::mem::take))
                .collect(),
            _ => state,
        };
        let mut columns: Vec<Vec<Vec<(VertexId, f32)>>> = (0..ncols)
            .map(|_| Vec::with_capacity(scored.len()))
            .collect();
        for vertex in scored {
            let mut predictions = vertex.predictions;
            predictions.resize(ncols, Vec::new());
            for (col, rows) in predictions.into_iter().enumerate() {
                columns[col].push(rows);
            }
        }
        let index = match sources {
            None => RowIndex::dense(graph.num_vertices()),
            Some(sources) => RowIndex::sparse(graph.num_vertices(), sources),
        };
        Ok(ScoreMatrix {
            labels: self.labels(),
            weights: self.specs.iter().map(ScoreSpec::column_weight).collect(),
            index,
            columns,
            column_ops: col_ops.into_iter().map(AtomicU64::into_inner).collect(),
            stats: engine.into_stats(),
        })
    }
}

/// Runs one fused superstep on slotted plan state (a query-subset sweep)
/// or dense state (an all-vertices sweep).
fn run_plan_step<S: GasStep<Vertex = PlanVertex>>(
    engine: &mut Engine<'_>,
    step: &S,
    state: &mut [PlanVertex],
    slots: Option<&RankedMask>,
    mask: Option<&VertexMask>,
) -> Result<(), SnapleError> {
    match (slots, mask) {
        (Some(slots), Some(mask)) => engine.run_step_sparse(step, state, slots, mask)?,
        _ => engine.run_step_masked(step, state, mask)?,
    };
    Ok(())
}

/// A [`ScorePlan`] with its deployment built: the execute-many half of
/// plan serving. [`PreparedPlan::execute_matrix`] returns full
/// [`ScoreMatrix`] results; the [`PreparedPredictor`] impl answers with
/// the plan's [combined](ScoreMatrix::combined) ranking.
pub type PreparedPlan<'a> = Prepared<'a, ScorePlan>;

impl PreparedPlan<'_> {
    /// Answers one request with all columns.
    ///
    /// # Errors
    ///
    /// As [`ScorePlan::execute_on`].
    pub fn execute_matrix(&self, req: &ExecuteRequest<'_>) -> Result<ScoreMatrix, SnapleError> {
        self.program().execute_on(self.deployment(), req)
    }
}

impl ScoringProgram for ScorePlan {
    /// Runs the fused sweep and answers with the plan's weighted
    /// [combined](ScoreMatrix::combined) ranking. A one-column plan of
    /// weight 1 (every [`Snaple`]) ranks as its column, so the column is
    /// moved out instead of re-pooled.
    fn execute_on(
        &self,
        deployment: &Deployment<'_>,
        req: &ExecuteRequest<'_>,
    ) -> Result<Prediction, SnapleError> {
        let matrix = ScorePlan::execute_on(self, deployment, req)?;
        match self.specs.as_slice() {
            [only] if only.column_weight() == 1.0 => Ok(matrix.into_column(0)),
            _ => Ok(matrix.combined(self.combined_k())),
        }
    }
}

impl Predictor for ScorePlan {
    /// Prepares the plan's shared deployment; the boxed predictor's
    /// `execute` answers with the plan's weighted
    /// [combined](ScoreMatrix::combined) ranking. Use
    /// [`ScorePlan::prepare_plan`] to keep the concrete [`PreparedPlan`]
    /// and read full matrices.
    ///
    /// # Errors
    ///
    /// As [`ScorePlan::prepare_plan`].
    fn prepare<'a>(
        &'a self,
        req: &PrepareRequest<'a>,
    ) -> Result<Box<dyn PreparedPredictor + 'a>, SnapleError> {
        Ok(Box::new(self.prepare_plan(req)?))
    }
}

/// The result of a fused [`ScorePlan`] sweep: per-vertex top-`k`
/// predictions per column, the shared run's [`RunStats`], and per-column
/// work attribution.
///
/// A query-subset sweep stores rows for its queries only; every other
/// vertex reads as an empty row, so the matrix still ranges over all
/// [`num_vertices`](ScoreMatrix::num_vertices).
#[derive(Clone, Debug)]
pub struct ScoreMatrix {
    labels: Vec<String>,
    weights: Vec<f32>,
    index: RowIndex,
    /// Per column, one row per stored vertex, in [`RowIndex`] order.
    columns: Vec<Vec<Vec<(VertexId, f32)>>>,
    column_ops: Vec<u64>,
    /// Statistics of the shared sweep (one run covering every column).
    pub stats: RunStats,
}

impl ScoreMatrix {
    /// Number of score columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of vertices the matrix ranges over.
    pub fn num_vertices(&self) -> usize {
        self.index.num_vertices()
    }

    /// Column labels, in column order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Predicted `(target, score)` pairs of column `col` for vertex `u`,
    /// best first (empty for vertices the sweep did not query).
    pub fn scores(&self, col: usize, u: VertexId) -> &[(VertexId, f32)] {
        self.index
            .row(u)
            .and_then(|r| self.columns[col].get(r))
            .map_or(&[], Vec::as_slice)
    }

    /// Iterates `(source, predictions)` rows of column `col` over every
    /// vertex, in id order.
    pub fn column_rows(
        &self,
        col: usize,
    ) -> impl Iterator<Item = (VertexId, &[(VertexId, f32)])> + '_ {
        (0..self.num_vertices() as u32).map(move |u| {
            let u = VertexId::new(u);
            (u, self.scores(col, u))
        })
    }

    /// Column `col` as a standalone [`Prediction`] (rows cloned, stats
    /// shared-by-copy).
    pub fn column(&self, col: usize) -> Prediction {
        Prediction::from_index(
            self.index.clone(),
            self.columns[col].clone(),
            self.stats.clone(),
        )
    }

    /// Consumes the matrix, returning column `col` as a [`Prediction`]
    /// without cloning its rows.
    pub fn into_column(mut self, col: usize) -> Prediction {
        let rows = std::mem::take(&mut self.columns[col]);
        Prediction::from_index(self.index, rows, self.stats)
    }

    /// Work units attributed to column `col` alone: its kernel
    /// evaluations beyond the shared selection similarity plus its path
    /// combination and merge work. The difference between
    /// [`RunStats::total_work_ops`] and the summed attributions is the
    /// *shared* sweep work every additional column rides for free.
    pub fn column_work_ops(&self, col: usize) -> u64 {
        self.column_ops[col]
    }

    /// Iterates `(label, attributed work ops)` per column.
    pub fn column_attribution(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.labels
            .iter()
            .map(String::as_str)
            .zip(self.column_ops.iter().copied())
    }

    /// The plan's weighted ensemble ranking: per vertex, every candidate
    /// proposed by any column scores `Σ weight_c · score_c` (absent
    /// columns contribute zero) and the top-`k` survive. Only stored rows
    /// are ranked; the others stay empty.
    ///
    /// For a 1-column plan with weight 1 this is exactly the column.
    pub fn combined(&self, k: usize) -> Prediction {
        let stored = self.columns.first().map_or(0, Vec::len);
        let mut rows: Vec<Vec<(VertexId, f32)>> = Vec::with_capacity(stored);
        for r in 0..stored {
            let mut pooled: Vec<(VertexId, f32)> = Vec::new();
            for (column, weight) in self.columns.iter().zip(&self.weights) {
                for &(z, score) in &column[r] {
                    match pooled.binary_search_by_key(&z, |&(id, _)| id) {
                        Ok(i) => pooled[i].1 += weight * score,
                        Err(i) => pooled.insert(i, (z, weight * score)),
                    }
                }
            }
            rows.push(top_k_by_score(pooled, k));
        }
        Prediction::from_index(self.index.clone(), rows, self.stats.clone())
    }
}

// --------------------------------------------------------------------------
// Fused vertex state and steps.
// --------------------------------------------------------------------------

/// Per-vertex state of a fused plan sweep: one shared neighborhood plus
/// per-column similarity/score tables in column-major stripes.
#[derive(Clone, Debug, Default, PartialEq)]
struct PlanVertex {
    /// Truncated neighborhood `Γ̂(u)`, sorted by vertex id (shared).
    gamma: Vec<VertexId>,
    /// Sorted content tags (shared).
    tags: Vec<u32>,
    /// True out-degree `|Γ(u)|`.
    out_degree: u32,
    /// Kept sampled neighbors, sorted by vertex id (shared across
    /// columns — the plan validates that sampling parameters agree).
    sim_ids: Vec<VertexId>,
    /// Per-neighbor, per-column raw similarities:
    /// `sim_vals[n·ncols + c]` is neighbor `n`'s similarity in column `c`.
    sim_vals: Vec<f32>,
    /// Per-column promoted multi-hop path tables (3-hop runs only).
    paths: Vec<Vec<(VertexId, f32)>>,
    /// Per-column top-`k` predictions, best first.
    predictions: Vec<Vec<(VertexId, f32)>>,
}

impl PlanVertex {
    /// Index of sampled neighbor `v` in `sim_ids`, if kept.
    #[inline]
    fn sim_index(&self, v: VertexId) -> Option<usize> {
        self.sim_ids.binary_search(&v).ok()
    }

    /// Whether `v` is in the truncated neighborhood `Γ̂(u)`.
    #[inline]
    fn in_gamma(&self, v: VertexId) -> bool {
        self.gamma.binary_search(&v).is_ok()
    }
}

impl SizeEstimate for PlanVertex {
    fn estimated_bytes(&self) -> u64 {
        let nested: u64 = self
            .paths
            .iter()
            .chain(self.predictions.iter())
            .map(|t| COLLECTION_OVERHEAD + t.len() as u64 * 8)
            .sum();
        6 * COLLECTION_OVERHEAD
            + 4
            + self.gamma.len() as u64 * 4
            + self.tags.len() as u64 * 4
            + self.sim_ids.len() as u64 * 4
            + self.sim_vals.len() as u64 * 4
            + nested
    }
}

/// Fused step 1: identical to [`steps::NeighborhoodStep`]
/// (crate::steps::NeighborhoodStep) — collect `Γ̂` once for all columns.
#[derive(Clone, Debug)]
struct PlanNeighborhoodStep {
    thr_gamma: Option<usize>,
}

impl GasStep for PlanNeighborhoodStep {
    type Vertex = PlanVertex;
    type Gather = Vec<VertexId>;

    fn name(&self) -> &str {
        "plan-1-neighborhood"
    }

    /// Gather reads no vertex state at all (only degrees and the seed).
    fn apply_disjoint_from_gather(&self) -> bool {
        true
    }

    fn gather(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        _u_data: &PlanVertex,
        v: VertexId,
        _v_data: &PlanVertex,
        _work: &mut WorkTally,
    ) -> Option<Vec<VertexId>> {
        if let Some(thr) = self.thr_gamma {
            let degree = ctx.out_degree(u);
            if degree > thr {
                let keep_probability = thr as f64 / degree as f64;
                if edge_unit(ctx.seed(), u.as_u32(), v.as_u32()) > keep_probability {
                    return None;
                }
            }
        }
        Some(vec![v])
    }

    fn sum(&self, mut a: Vec<VertexId>, b: Vec<VertexId>, work: &mut WorkTally) -> Vec<VertexId> {
        work.add(b.len() as u64);
        a.extend(b);
        a
    }

    #[allow(clippy::too_many_arguments)]
    fn gather_run(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        _u_data: &PlanVertex,
        neighbors: &[VertexId],
        _states: &NeighborStates<'_, PlanVertex>,
        budget: &mut RunBudget<'_>,
        _scratch: &mut ScratchArena,
        work: &mut WorkTally,
    ) -> Result<Option<(Vec<VertexId>, u64)>, GatherOverflow> {
        // The per-pair path charges one single-neighbor `Vec` per kept
        // edge; the batched path charges the same bytes but collects the
        // kept neighbors into one buffer instead of folding N allocations.
        let pair_bytes = COLLECTION_OVERHEAD + 4;
        let keep_probability = self.thr_gamma.and_then(|thr| {
            let degree = ctx.out_degree(u);
            (degree > thr).then(|| thr as f64 / degree as f64)
        });
        let mut kept: Vec<VertexId> = Vec::new();
        let mut bytes = 0u64;
        for &v in neighbors {
            budget.count_gather();
            work.add(1);
            if let Some(p) = keep_probability {
                if edge_unit(ctx.seed(), u.as_u32(), v.as_u32()) > p {
                    continue;
                }
            }
            budget.charge(pair_bytes)?;
            if !kept.is_empty() {
                budget.count_sum();
                work.add(2);
            }
            kept.push(v);
            bytes += pair_bytes;
        }
        Ok(if kept.is_empty() {
            None
        } else {
            Some((kept, bytes))
        })
    }

    fn apply(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        data: &mut PlanVertex,
        acc: Option<Vec<VertexId>>,
        work: &mut WorkTally,
    ) {
        let mut gamma = acc.unwrap_or_default();
        gamma.sort_unstable();
        gamma.dedup();
        work.add(gamma.len() as u64);
        data.gamma = gamma;
        data.out_degree = ctx.out_degree(u) as u32;
    }
}

/// Accumulator of the fused similarity step: candidate neighbors with
/// their shared selection similarity and per-column scoring similarities
/// (column-major stripes, `vals[n·ncols + c]`).
#[derive(Clone, Debug, Default)]
struct SimGather {
    ids: Vec<VertexId>,
    sels: Vec<f32>,
    vals: Vec<f32>,
}

impl SimGather {
    /// Accounted bytes of a single-pair accumulator with `ncols` columns —
    /// kept in sync with the [`SizeEstimate`] impl below so the batched
    /// gather charges exactly what the per-pair path charges per edge.
    fn pair_bytes(ncols: usize) -> u64 {
        3 * COLLECTION_OVERHEAD + 4 + 4 + ncols as u64 * 4
    }
}

impl SizeEstimate for SimGather {
    fn estimated_bytes(&self) -> u64 {
        3 * COLLECTION_OVERHEAD
            + self.ids.len() as u64 * 4
            + self.sels.len() as u64 * 4
            + self.vals.len() as u64 * 4
    }
}

/// Fused step 2: compute each neighbor pair's [`NeighborhoodView`] once,
/// feed every column's kernel, and keep one shared `klocal` sample.
#[derive(Debug)]
struct PlanSimilarityStep<'p> {
    columns: &'p [ScoreSpec],
    klocal: Option<usize>,
    selection: SelectionPolicy,
    col_ops: &'p [AtomicU64],
}

impl GasStep for PlanSimilarityStep<'_> {
    type Vertex = PlanVertex;
    type Gather = SimGather;

    fn name(&self) -> &str {
        "plan-2-similarity"
    }

    /// Gather reads `gamma`, `out_degree` and `tags`; apply writes only
    /// `sim_ids` and `sim_vals`.
    fn apply_disjoint_from_gather(&self) -> bool {
        true
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        u_data: &PlanVertex,
        v: VertexId,
        v_data: &PlanVertex,
        work: &mut WorkTally,
    ) -> Option<SimGather> {
        let merge_cost = (u_data.gamma.len() + v_data.gamma.len()) as u64;
        // One linear set-intersection for the shared selection similarity.
        work.add(merge_cost);
        let u_view =
            NeighborhoodView::with_tags(&u_data.gamma, u_data.out_degree as usize, &u_data.tags);
        let v_view =
            NeighborhoodView::with_tags(&v_data.gamma, v_data.out_degree as usize, &v_data.tags);
        let selection = &self.columns[0].components().selection_similarity;
        let selection_ptr = std::sync::Arc::as_ptr(selection) as *const u8;
        let sel = selection.score(u_view, v_view);
        let mut vals = Vec::with_capacity(self.columns.len());
        for (col, spec) in self.columns.iter().enumerate() {
            let components = spec.components();
            // The fusion win: a kernel that IS the shared selection
            // similarity (same Arc — identity, never name, so a custom
            // kernel with a colliding name() is still evaluated) costs
            // nothing extra; different kernels re-read the (already
            // materialized) views.
            let is_selection = std::ptr::eq(
                std::sync::Arc::as_ptr(&components.similarity) as *const u8,
                selection_ptr,
            );
            let score = if is_selection {
                sel
            } else {
                work.add(merge_cost);
                self.col_ops[col].fetch_add(merge_cost, Ordering::Relaxed);
                components.similarity.score(u_view, v_view)
            };
            vals.push(score);
        }
        Some(SimGather {
            ids: vec![v],
            sels: vec![sel],
            vals,
        })
    }

    fn sum(&self, mut a: SimGather, b: SimGather, work: &mut WorkTally) -> SimGather {
        work.add(b.ids.len() as u64);
        a.ids.extend(b.ids);
        a.sels.extend(b.sels);
        a.vals.extend(b.vals);
        a
    }

    /// Batched stripe execution of the fused similarity step: build every
    /// pair's [`NeighborhoodView`] once for the whole run, feed each
    /// kernel a contiguous stripe of views via
    /// [`Similarity::score_stripe`](crate::similarity::Similarity::score_stripe),
    /// and assemble one accumulator per run instead of folding N
    /// single-pair allocations. Scores, accounting, and memory charges are
    /// bit-identical to the per-pair [`gather`](GasStep::gather) path.
    #[allow(clippy::too_many_arguments)]
    fn gather_run(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        u_data: &PlanVertex,
        neighbors: &[VertexId],
        states: &NeighborStates<'_, PlanVertex>,
        budget: &mut RunBudget<'_>,
        scratch: &mut ScratchArena,
        work: &mut WorkTally,
    ) -> Result<Option<(SimGather, u64)>, GatherOverflow> {
        let n = neighbors.len();
        if n == 0 {
            return Ok(None);
        }
        let ncols = self.columns.len();
        let pair_bytes = SimGather::pair_bytes(ncols);
        let u_view =
            NeighborhoodView::with_tags(&u_data.gamma, u_data.out_degree as usize, &u_data.tags);
        let views: Vec<NeighborhoodView<'_>> = neighbors
            .iter()
            .map(|&v| {
                let vd = states.get(v);
                NeighborhoodView::with_tags(&vd.gamma, vd.out_degree as usize, &vd.tags)
            })
            .collect();
        // Replay the per-pair accounting protocol in edge order: one
        // engine op plus one selection merge per pair, one byte charge per
        // pair, and the engine+program fold ops for every pair after the
        // first — so a memory overflow fires at the same pair with the
        // same required bytes.
        let mut total_merge = 0u64;
        for (i, view) in views.iter().enumerate() {
            budget.count_gather();
            work.add(1);
            let merge_cost = (u_data.gamma.len() + view.neighbors.len()) as u64;
            total_merge += merge_cost;
            work.add(merge_cost);
            budget.charge(pair_bytes)?;
            if i > 0 {
                budget.count_sum();
                work.add(2);
            }
        }
        let selection = &self.columns[0].components().selection_similarity;
        let selection_ptr = std::sync::Arc::as_ptr(selection) as *const u8;
        let mut sels = vec![0f32; n];
        selection.score_stripe(u_view, &views, &mut sels);
        let mut vals = vec![0f32; n * ncols];
        let mut col_stripe = scratch.lease_f32(n);
        for (col, spec) in self.columns.iter().enumerate() {
            let components = spec.components();
            let is_selection = std::ptr::eq(
                std::sync::Arc::as_ptr(&components.similarity) as *const u8,
                selection_ptr,
            );
            if is_selection {
                for (slot, &s) in vals.iter_mut().skip(col).step_by(ncols).zip(&sels) {
                    *slot = s;
                }
            } else {
                work.add(total_merge);
                self.col_ops[col].fetch_add(total_merge, Ordering::Relaxed);
                components
                    .similarity
                    .score_stripe(u_view, &views, &mut col_stripe);
                for (slot, &s) in vals.iter_mut().skip(col).step_by(ncols).zip(&col_stripe) {
                    *slot = s;
                }
            }
        }
        scratch.release_f32(col_stripe);
        Ok(Some((
            SimGather {
                ids: neighbors.to_vec(),
                sels,
                vals,
            },
            pair_bytes * n as u64,
        )))
    }

    fn apply(
        &self,
        ctx: &GatherCtx<'_>,
        u: VertexId,
        data: &mut PlanVertex,
        acc: Option<SimGather>,
        work: &mut WorkTally,
    ) {
        let ncols = self.columns.len();
        let candidates = acc.unwrap_or_default();
        work.add(candidates.ids.len() as u64);
        // Rank by the shared selection similarity — the same ranking every
        // standalone run of any column would produce.
        let ranked: Vec<(VertexId, f32)> = candidates
            .ids
            .iter()
            .copied()
            .zip(candidates.sels.iter().copied())
            .collect();
        let kept_ids: Vec<VertexId> = match self.klocal {
            None => ranked.into_iter().map(|(v, _)| v).collect(),
            Some(klocal) => match self.selection {
                SelectionPolicy::Max => top_k_by_score(ranked, klocal)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect(),
                SelectionPolicy::Min => bottom_k_by_score(ranked, klocal)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect(),
                SelectionPolicy::Random => {
                    let mut hashed: Vec<(u64, VertexId)> = ranked
                        .into_iter()
                        .map(|(v, _)| (hash2(ctx.seed(), u.as_u32() as u64, v.as_u32() as u64), v))
                        .collect();
                    hashed.sort_unstable();
                    hashed.truncate(klocal);
                    hashed.into_iter().map(|(_, v)| v).collect()
                }
            },
        };
        let mut kept_ids = kept_ids;
        kept_ids.sort_unstable();
        let mut kept: Vec<(VertexId, usize)> = candidates
            .ids
            .iter()
            .enumerate()
            .filter(|(_, v)| kept_ids.binary_search(v).is_ok())
            .map(|(i, &v)| (v, i))
            .collect();
        kept.sort_unstable_by_key(|&(v, _)| v);
        kept.dedup_by_key(|&mut (v, _)| v);
        data.sim_ids = kept.iter().map(|&(v, _)| v).collect();
        let mut vals = Vec::with_capacity(kept.len() * ncols);
        for &(_, i) in &kept {
            vals.extend_from_slice(&candidates.vals[i * ncols..(i + 1) * ncols]);
        }
        data.sim_vals = vals;
    }
}

/// Accumulator of the fused score step: per column, the sorted
/// `(candidate, ⊕pre-accumulated lifted path similarity, path count)`
/// triples of [`steps::ScoreStep`](crate::steps::ScoreStep).
#[derive(Clone, Debug, Default)]
struct ScoreGather {
    cols: Vec<Vec<(VertexId, f32, u32)>>,
}

impl SizeEstimate for ScoreGather {
    fn estimated_bytes(&self) -> u64 {
        COLLECTION_OVERHEAD
            + self
                .cols
                .iter()
                .map(|c| COLLECTION_OVERHEAD + c.len() as u64 * 12)
                .sum::<u64>()
    }
}

/// Fused step 3: walk each sampled 2-hop path once, combining and
/// aggregating per column.
#[derive(Debug)]
struct PlanScoreStep<'p> {
    columns: &'p [ScoreSpec],
    ks: &'p [usize],
    second_hop: SecondHop,
    col_ops: &'p [AtomicU64],
}

impl GasStep for PlanScoreStep<'_> {
    type Vertex = PlanVertex;
    type Gather = ScoreGather;

    fn name(&self) -> &str {
        "plan-3-score"
    }

    /// Gather reads `gamma`, `sim_ids`, `sim_vals` and `paths`; apply
    /// writes only `predictions`.
    fn apply_disjoint_from_gather(&self) -> bool {
        true
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        u: VertexId,
        u_data: &PlanVertex,
        v: VertexId,
        v_data: &PlanVertex,
        work: &mut WorkTally,
    ) -> Option<ScoreGather> {
        let ncols = self.columns.len();
        let uv = u_data.sim_index(v)?;
        let sims_uv = &u_data.sim_vals[uv * ncols..(uv + 1) * ncols];
        let mut cols: Vec<Vec<(VertexId, f32, u32)>> = vec![Vec::new(); ncols];
        match self.second_hop {
            SecondHop::Sims => {
                // One scan of the shared second-hop table serves every
                // column; only the per-path combine is per-column work.
                work.add(v_data.sim_ids.len() as u64);
                let mut combines = 0u64;
                for (second, &z) in v_data.sim_ids.iter().enumerate() {
                    if z == u || u_data.in_gamma(z) {
                        continue;
                    }
                    combines += 1;
                    let sims_vz = &v_data.sim_vals[second * ncols..(second + 1) * ncols];
                    for (col, spec) in self.columns.iter().enumerate() {
                        let components = spec.components();
                        let path = components.combinator.combine(sims_uv[col], sims_vz[col]);
                        cols[col].push((z, components.aggregator.lift(path), 1));
                    }
                }
                if combines > 0 {
                    work.add(combines * ncols as u64);
                    for ops in self.col_ops {
                        ops.fetch_add(combines, Ordering::Relaxed);
                    }
                }
            }
            SecondHop::Paths => {
                // Promoted path tables are per column (each column kept
                // its own 2-hop scores), so the scan is per column too.
                for (col, spec) in self.columns.iter().enumerate() {
                    let components = spec.components();
                    let Some(second) = v_data.paths.get(col) else {
                        continue;
                    };
                    work.add(second.len() as u64);
                    self.col_ops[col].fetch_add(second.len() as u64, Ordering::Relaxed);
                    for &(z, sim_vz) in second {
                        if z == u || u_data.in_gamma(z) {
                            continue;
                        }
                        let path = components.combinator.combine(sims_uv[col], sim_vz);
                        cols[col].push((z, components.aggregator.lift(path), 1));
                    }
                }
            }
        }
        if cols.iter().all(Vec::is_empty) {
            None
        } else {
            Some(ScoreGather { cols })
        }
    }

    fn sum(&self, a: ScoreGather, b: ScoreGather, work: &mut WorkTally) -> ScoreGather {
        let ncols = self.columns.len();
        let take = |mut g: ScoreGather| -> Vec<Vec<(VertexId, f32, u32)>> {
            g.cols.resize(ncols, Vec::new());
            g.cols
        };
        let (a, b) = (take(a), take(b));
        let mut cols = Vec::with_capacity(ncols);
        for (col, (ca, cb)) in a.into_iter().zip(b).enumerate() {
            let cost = (ca.len() + cb.len()) as u64;
            work.add(cost);
            self.col_ops[col].fetch_add(cost, Ordering::Relaxed);
            cols.push(merge_column(&self.columns[col], ca, cb));
        }
        ScoreGather { cols }
    }

    fn apply(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        data: &mut PlanVertex,
        acc: Option<ScoreGather>,
        work: &mut WorkTally,
    ) {
        let ncols = self.columns.len();
        let mut merged = acc.unwrap_or_default();
        merged.cols.resize(ncols, Vec::new());
        data.predictions = merged
            .cols
            .into_iter()
            .enumerate()
            .map(|(col, triples)| {
                work.add(triples.len() as u64);
                let aggregator = &self.columns[col].components().aggregator;
                let scored: Vec<(VertexId, f32)> = triples
                    .into_iter()
                    .map(|(z, sigma, n)| (z, aggregator.post(sigma, n)))
                    .collect();
                top_k_by_score(scored, self.ks[col])
            })
            .collect();
    }
}

/// The paper's `merge` (line 16) for one column: a sorted-merge folding
/// same-candidate entries with the column's `⊕pre` — the exact fold of
/// [`steps::ScoreStep`](crate::steps::ScoreStep)'s `sum`.
fn merge_column(
    spec: &ScoreSpec,
    a: Vec<(VertexId, f32, u32)>,
    b: Vec<(VertexId, f32, u32)>,
) -> Vec<(VertexId, f32, u32)> {
    let aggregator = &spec.components().aggregator;
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let (z, sa, na) = a[i];
                let (_, sb, nb) = b[j];
                out.push((z, aggregator.pre(sa, sb), na + nb));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Fused promotion step of the 3-hop extension: move each column's 2-hop
/// scores into its path table. Apply-only, like
/// [`steps::PromoteScoresStep`](crate::steps::PromoteScoresStep).
#[derive(Clone, Debug)]
struct PlanPromoteStep<'p> {
    keeps: &'p [usize],
}

impl GasStep for PlanPromoteStep<'_> {
    type Vertex = PlanVertex;
    type Gather = ();

    fn name(&self) -> &str {
        "plan-3b-promote"
    }

    /// Gather reads no vertex state (it gathers nothing).
    fn apply_disjoint_from_gather(&self) -> bool {
        true
    }

    fn gather(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        _u_data: &PlanVertex,
        _v: VertexId,
        _v_data: &PlanVertex,
        _work: &mut WorkTally,
    ) -> Option<()> {
        None
    }

    fn sum(&self, _a: (), _b: (), _work: &mut WorkTally) {}

    fn apply(
        &self,
        _ctx: &GatherCtx<'_>,
        _u: VertexId,
        data: &mut PlanVertex,
        _acc: Option<()>,
        work: &mut WorkTally,
    ) {
        let ncols = self.keeps.len();
        let mut predictions = std::mem::take(&mut data.predictions);
        predictions.resize(ncols, Vec::new());
        data.paths = predictions
            .into_iter()
            .enumerate()
            .map(|(col, scores)| {
                let mut promoted = top_k_by_score(scores, self.keeps[col]);
                work.add(promoted.len() as u64);
                promoted.sort_unstable_by_key(|&(v, _)| v);
                promoted
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NamedScore;
    use crate::predictor_api::{PredictRequest, QuerySet};
    use snaple_gas::ClusterSpec;
    use snaple_graph::gen::datasets;

    fn four_spec_plan() -> ScorePlan {
        ScorePlan::parse("linearSum, counter, PPR, jaccard@agg=max").unwrap()
    }

    #[test]
    fn construction_rejects_empty_and_conflicting_plans() {
        assert!(matches!(
            ScorePlan::new(vec![]),
            Err(SnapleError::InvalidConfig(_))
        ));
        let err = ScorePlan::parse("jaccard@klocal8, cosine@klocal16").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("disagree on klocal"), "{msg}");
        let err = ScorePlan::parse("jaccard@depth2, cosine@depth3").unwrap_err();
        assert!(err.to_string().contains("disagree on depth"));
        // Agreeing pins are fine and land in the merged config.
        let plan = ScorePlan::parse("jaccard@klocal8, cosine@klocal8, counter").unwrap();
        assert_eq!(plan.config().klocal, Some(8));
    }

    #[test]
    fn plan_scoped_requests_override_the_base_config() {
        let plan = ScorePlan::parse("jaccard@thrinf@selmin@depth3").unwrap();
        assert_eq!(plan.config().thr_gamma, None);
        assert_eq!(plan.config().selection, SelectionPolicy::Min);
        assert_eq!(plan.config().path_length, PathLength::Three);
    }

    #[test]
    fn per_column_k_resolves_spec_override_or_plan_default() {
        let plan = ScorePlan::parse_with(
            &Registry::builtin(),
            "jaccard@k16, counter",
            PlanConfig::default().k(7),
        )
        .unwrap();
        assert_eq!(plan.column_k(0), 16);
        assert_eq!(plan.column_k(1), 7);
        assert_eq!(plan.combined_k(), 16);
    }

    #[test]
    fn fused_columns_match_standalone_snaple_runs_bit_for_bit() {
        let graph = datasets::GOWALLA.emulate(0.005, 3);
        let cluster = ClusterSpec::type_ii(4);
        let plan = four_spec_plan();
        let prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        assert_eq!(matrix.num_columns(), 4);
        for col in 0..plan.num_columns() {
            let standalone = plan.column_snaple(col);
            let solo =
                Predictor::predict(&standalone, &PredictRequest::new(&graph, &cluster)).unwrap();
            for (u, rows) in matrix.column_rows(col) {
                assert_eq!(
                    rows,
                    solo.for_vertex(u),
                    "column {col} ({}) row {u} diverged",
                    matrix.labels()[col]
                );
            }
        }
    }

    #[test]
    fn fused_sweep_shares_gather_work_across_columns() {
        let graph = datasets::GOWALLA.emulate(0.005, 3);
        let cluster = ClusterSpec::type_ii(4);
        let plan = four_spec_plan();
        let prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        let fused_gathers: u64 = matrix.stats.steps.iter().map(|s| s.gather_calls).sum();
        let mut independent_gathers = 0u64;
        for col in 0..plan.num_columns() {
            let solo = Predictor::predict(
                &plan.column_snaple(col),
                &PredictRequest::new(&graph, &cluster),
            )
            .unwrap();
            independent_gathers += solo.stats.steps.iter().map(|s| s.gather_calls).sum::<u64>();
        }
        // The acceptance bar: an N-spec plan costs < 60% of N sweeps; a
        // fully fused 2-hop plan costs ~1/N.
        assert!(
            (fused_gathers as f64) < 0.6 * independent_gathers as f64,
            "fused {fused_gathers} gathers !< 60% of independent {independent_gathers}"
        );
        // Attribution: per-column ops are recorded and sum to less than
        // the total (the remainder is the shared sweep).
        let attributed: u64 = (0..4).map(|c| matrix.column_work_ops(c)).sum();
        assert!(attributed > 0);
        assert!(attributed < matrix.stats.total_work_ops());
        assert_eq!(matrix.column_attribution().count(), 4);
    }

    #[test]
    fn targeted_plan_rows_match_the_full_sweep() {
        let graph = datasets::GOWALLA.emulate(0.005, 7);
        let cluster = ClusterSpec::type_ii(4);
        let plan = ScorePlan::parse("linearSum, counter@k3").unwrap();
        let prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let full = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        let queries = QuerySet::sample(graph.num_vertices(), graph.num_vertices() / 20, 11);
        let targeted = prepared
            .execute_matrix(&ExecuteRequest::new().with_queries(&queries))
            .unwrap();
        for col in 0..plan.num_columns() {
            for (u, rows) in targeted.column_rows(col) {
                if queries.contains(u) {
                    assert_eq!(rows, full.scores(col, u), "column {col} row {u}");
                } else {
                    assert!(rows.is_empty(), "non-queried row {u} must stay empty");
                }
            }
        }
        assert!(targeted.stats.total_work_ops() < full.stats.total_work_ops());
    }

    #[test]
    fn three_hop_plans_fuse_too() {
        let graph = datasets::POKEC.emulate(0.002, 9);
        let cluster = ClusterSpec::type_ii(2);
        let plan = ScorePlan::parse_with(
            &Registry::builtin(),
            "counter@depth3, linearSum",
            PlanConfig::default().klocal(Some(10)),
        )
        .unwrap();
        assert_eq!(plan.config().path_length, PathLength::Three);
        let prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        assert_eq!(matrix.stats.steps.len(), 5, "3-hop adds two fused steps");
        for col in 0..plan.num_columns() {
            let solo = Predictor::predict(
                &plan.column_snaple(col),
                &PredictRequest::new(&graph, &cluster),
            )
            .unwrap();
            for (u, rows) in matrix.column_rows(col) {
                assert_eq!(rows, solo.for_vertex(u), "column {col} row {u}");
            }
        }
    }

    #[test]
    fn combined_ranking_is_the_weighted_sum_of_columns() {
        let graph = datasets::GOWALLA.emulate(0.004, 5);
        let cluster = ClusterSpec::type_ii(2);
        let plan = ScorePlan::parse("counter@w0.25, jaccard@w2").unwrap();
        let prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        let combined = matrix.combined(5);
        let mut checked = 0;
        for (u, rows) in combined.iter() {
            for &(z, score) in rows {
                let want: f32 = [0.25f32, 2.0]
                    .iter()
                    .enumerate()
                    .map(|(col, w)| {
                        matrix
                            .scores(col, u)
                            .iter()
                            .find(|&&(id, _)| id == z)
                            .map_or(0.0, |&(_, s)| w * s)
                    })
                    .sum();
                assert!((score - want).abs() < 1e-6, "vertex {u} candidate {z}");
                checked += 1;
            }
        }
        assert!(checked > 0);

        // A 1-column weight-1 plan's combined ranking IS the column.
        let single = ScorePlan::parse("linearSum").unwrap();
        let prepared = single
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        let combined = matrix.combined(single.combined_k());
        for (u, rows) in combined.iter() {
            assert_eq!(rows, matrix.scores(0, u));
        }
    }

    #[test]
    fn prepared_plan_serves_deltas_bit_identical_to_cold_rebuilds() {
        use snaple_graph::GraphDelta;
        let graph = datasets::GOWALLA.emulate(0.004, 5);
        let cluster = ClusterSpec::type_ii(4);
        let plan = ScorePlan::parse("linearSum, counter").unwrap();
        let mut prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();

        let mut delta = GraphDelta::new();
        for (u, v) in graph.edges().take(5) {
            delta.remove(u.as_u32(), v.as_u32());
        }
        let n = graph.num_vertices() as u32;
        delta.insert(0, n - 1).insert(1, n - 2);
        let applied = prepared.apply_delta(&delta).unwrap();
        assert_eq!(applied.removed_edges, 5);

        let mutated = graph.compact(&delta);
        let cold = plan
            .prepare_plan(&PrepareRequest::new(&mutated, &cluster))
            .unwrap();
        let warm_matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        let cold_matrix = cold.execute_matrix(&ExecuteRequest::new()).unwrap();
        for col in 0..plan.num_columns() {
            for (u, rows) in warm_matrix.column_rows(col) {
                assert_eq!(rows, cold_matrix.scores(col, u), "column {col} row {u}");
            }
        }
    }

    #[test]
    fn plan_predictor_trait_round_trip() {
        let graph = datasets::GOWALLA.emulate(0.004, 5);
        let cluster = ClusterSpec::type_ii(2);
        let plan = four_spec_plan();
        // Through the boxed Predictor surface: prediction = combined view.
        let via_trait = Predictor::predict(&plan, &PredictRequest::new(&graph, &cluster)).unwrap();
        let prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        let combined = matrix.combined(plan.combined_k());
        for (u, rows) in via_trait.iter() {
            assert_eq!(rows, combined.for_vertex(u));
        }
    }

    #[test]
    fn name_colliding_kernels_are_still_evaluated_in_fused_sweeps() {
        use crate::similarity::{NeighborhoodView, Similarity};
        use std::sync::Arc;
        // Regression for the Arc-identity sharing rule: a custom kernel
        // whose name() collides with the selection similarity must score
        // with its own function in the fused sweep, bit-identical to its
        // standalone run — not be silently replaced by the Jaccard value.
        #[derive(Debug)]
        struct FakeJaccard;
        impl Similarity for FakeJaccard {
            fn name(&self) -> &str {
                "jaccard"
            }
            fn score(&self, _u: NeighborhoodView<'_>, _v: NeighborhoodView<'_>) -> f32 {
                0.125
            }
        }
        let mut registry = Registry::builtin();
        registry.register_kernel("fakejac", || Arc::new(FakeJaccard));
        let graph = datasets::GOWALLA.emulate(0.003, 5);
        let cluster = ClusterSpec::type_ii(2);
        let plan = ScorePlan::parse_with(
            &registry,
            "fakejac, jaccard",
            PlanConfig::default().klocal(Some(8)),
        )
        .unwrap();
        let prepared = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let matrix = prepared.execute_matrix(&ExecuteRequest::new()).unwrap();
        let mut columns_differ = false;
        for col in 0..2 {
            let solo = Predictor::predict(
                &plan.column_snaple(col),
                &PredictRequest::new(&graph, &cluster),
            )
            .unwrap();
            for (u, rows) in matrix.column_rows(col) {
                assert_eq!(rows, solo.for_vertex(u), "column {col} row {u}");
                if rows != matrix.scores((col + 1) % 2, u) {
                    columns_differ = true;
                }
            }
        }
        assert!(
            columns_differ,
            "the constant fake kernel must produce different rankings than real Jaccard"
        );
    }

    #[test]
    fn snaple_is_the_one_spec_special_case() {
        let graph = datasets::GOWALLA.emulate(0.004, 7);
        let cluster = ClusterSpec::type_ii(4);
        let snaple = Snaple::new(
            SnapleConfig::new(NamedScore::LinearSum)
                .k(5)
                .klocal(Some(10)),
        );
        let plan = ScorePlan::from_snaple(&snaple).unwrap();
        assert_eq!(plan.num_columns(), 1);
        let deployment = plan
            .prepare_plan(&PrepareRequest::new(&graph, &cluster))
            .unwrap();
        let matrix = deployment.execute_matrix(&ExecuteRequest::new()).unwrap();
        let direct = Predictor::predict(&snaple, &PredictRequest::new(&graph, &cluster)).unwrap();
        // ...and both match the unfused reference implementation.
        let reference = snaple
            .execute_unfused_on(deployment.deployment(), &ExecuteRequest::new())
            .unwrap();
        for (u, rows) in matrix.column_rows(0) {
            assert_eq!(rows, direct.for_vertex(u), "row {u}");
            assert_eq!(rows, reference.for_vertex(u), "reference row {u}");
        }
    }
}

//! `snaple-cli` — command-line front end for the SNAPLE workspace.
//!
//! ```bash
//! # Emulate a dataset and write it as a binary graph file
//! snaple-cli emulate --dataset livejournal --scale 0.005 --out lj.snplg
//!
//! # Inspect any edge-list or binary graph
//! snaple-cli stats --graph lj.snplg
//!
//! # Predict missing links and print them as TSV
//! snaple-cli predict --graph lj.snplg --score linearSum --k 5 --klocal 20 \
//!     --nodes 4 --machine type-ii
//!
//! # Serve a query subset: only these users' rows are computed
//! snaple-cli predict --graph lj.snplg --queries 17,42,1001
//! snaple-cli predict --graph lj.snplg --query-sample 1000
//!
//! # Serve a *stream* of requests: prepare once, coalesce batches
//! snaple-cli serve --graph lj.snplg --requests stream.txt --batch 8
//! snaple-cli serve --graph lj.snplg --request-count 100 --request-size 50
//!
//! # Serve a *mixed* stream: predictions interleaved with edge updates
//! # (add/remove lines mutate the served graph in place)
//! snaple-cli serve --graph lj.snplg --updates mixed.txt --batch 8
//!
//! # Restartable serving: persist updates into a data dir; re-running
//! # recovers snapshot + log tail bit-identically after a crash
//! snaple-cli serve --graph lj.snplg --updates mixed.txt --data-dir ./state
//! snaple-cli serve --graph lj.snplg --requests stream.txt --data-dir ./state
//!
//! # Evaluate prediction quality under the paper's hold-out protocol
//! snaple-cli evaluate --graph lj.snplg --score counter --removals 1
//! ```

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Arc;

use snaple::core::concurrent::{
    ConcurrentOptions, ConcurrentServer, PendingPrediction, ServeHandle,
};
use snaple::core::serve::{Server, ServerStats};
use snaple::core::shard::{PendingRows, ShardOptions, ShardRouter, ShardSpec, ShardTransport};
use snaple::core::store::{Durability, DurabilityOptions, FsyncPolicy, RecoveryReport};
use snaple::core::{
    ExecuteRequest, GraphDelta, NamedScore, PlanConfig, PredictRequest, Prediction, Predictor,
    PrepareRequest, QuerySet, ScorePlan, ScoreSpec, SnapleError,
};
use snaple::eval::{metrics, HoldOut, TextTable};
use snaple::gas::{ClusterSpec, DeltaStats};
use snaple::graph::gen::datasets;
use snaple::graph::gen::rmat::RmatConfig;
use snaple::graph::stats::GraphSummary;
use snaple::graph::{io, v2, CsrGraph, ExternalGraphBuilder, GraphStore};

/// Flags of every command that opens `--graph` (`--symmetrize` applies
/// to text edge lists).
const GRAPH_IN: &str = "--graph --symmetrize";
/// Flags of the one score plan ([`Options::score_plan`]) and the
/// simulated cluster it runs on.
const SCORING: &str = "--score --scores --alpha --k --klocal --thr-gamma --seed --nodes --machine";

/// Flags only `serve` reads.
const SERVE: &str = "--out --requests --updates --request-count --request-size --batch \
                     --workers --shards --shard-procs --data-dir --fsync --snapshot-every --retain";

/// A command's entry point and the flags it reads, in space-separated
/// groups.
type Command = (fn(&Options) -> Result<(), String>, &'static [&'static str]);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage("");
    };
    let (command, rest) = match (command.as_str(), rest.split_first()) {
        // `graph` takes a sub-subcommand before the flags.
        ("graph", Some((sub, rest))) => (format!("graph {sub}"), rest),
        ("graph", None) => usage("graph needs a subcommand: convert or gen"),
        _ => (command.clone(), rest),
    };
    let (run, reads): Command = match command.as_str() {
        "emulate" => (cmd_emulate, &["--dataset --scale --seed --out"]),
        "stats" => (cmd_stats, &[GRAPH_IN, "--seed"]),
        "predict" => (
            cmd_predict,
            &[GRAPH_IN, SCORING, "--out --queries --query-sample"],
        ),
        "serve" => (cmd_serve, &[GRAPH_IN, SCORING, SERVE]),
        "evaluate" => (
            cmd_evaluate,
            &[GRAPH_IN, SCORING, "--removals --queries --query-sample"],
        ),
        "sweep" => (cmd_sweep, &[GRAPH_IN, SCORING, "--removals --compare"]),
        "graph convert" => (
            cmd_graph_convert,
            &["--graph --out --graph-format --chunk-edges --symmetrize"],
        ),
        "graph gen" => (
            cmd_graph_gen,
            &["--out --rmat-scale --edges --seed --chunk-edges --symmetrize"],
        ),
        "--help" | "-h" | "help" | "graph --help" | "graph -h" | "graph help" => usage(""),
        other => match other.strip_prefix("graph ") {
            Some(sub) => usage(&format!(
                "unknown graph subcommand {sub:?} (expected convert or gen)"
            )),
            None => usage(&format!("unknown command {other:?}")),
        },
    };
    let opts = Options::parse(rest);
    if let Err(e) = opts.check_reads(&command, reads).and_then(|()| run(&opts)) {
        eprintln!("error: {e}");
        exit(1);
    }
}

/// Flat flag bag shared by all subcommands; each command rejects the
/// flags it does not read ([`Options::check_reads`]).
#[derive(Debug, Default)]
struct Options {
    graph: Option<PathBuf>,
    out: Option<PathBuf>,
    dataset: Option<String>,
    scale: f64,
    seed: u64,
    score: String,
    k: usize,
    klocal: Option<usize>,
    thr_gamma: Option<usize>,
    alpha: Option<f32>,
    nodes: usize,
    machine: String,
    removals: usize,
    symmetrize: bool,
    scores: Option<String>,
    compare: bool,
    queries: Option<String>,
    query_sample: Option<usize>,
    requests: Option<String>,
    updates: Option<String>,
    batch: usize,
    request_count: Option<usize>,
    request_size: usize,
    workers: usize,
    shards: Option<usize>,
    shard_procs: bool,
    data_dir: Option<PathBuf>,
    fsync: String,
    snapshot_every: usize,
    retain: usize,
    graph_format: Option<String>,
    chunk_edges: Option<usize>,
    rmat_scale: Option<u32>,
    edges: Option<u64>,
    /// The flags given, in command-line order.
    given: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Options {
        let mut o = Options {
            scale: 0.01,
            seed: 42,
            score: "linearSum".into(),
            k: 5,
            klocal: Some(20),
            thr_gamma: Some(200),
            nodes: 4,
            machine: "type-ii".into(),
            removals: 1,
            batch: 8,
            request_size: 50,
            fsync: "always".into(),
            snapshot_every: 64,
            retain: 2,
            ..Options::default()
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> String {
                it.next()
                    .cloned()
                    .unwrap_or_else(|| usage(&format!("{name} needs a value")))
            };
            match flag.as_str() {
                "--graph" => o.graph = Some(PathBuf::from(value("--graph"))),
                "--out" => o.out = Some(PathBuf::from(value("--out"))),
                "--dataset" => o.dataset = Some(value("--dataset")),
                "--scale" => o.scale = parse_num(&value("--scale"), "--scale"),
                "--seed" => o.seed = parse_num(&value("--seed"), "--seed"),
                "--score" => o.score = value("--score"),
                "--k" => o.k = parse_num(&value("--k"), "--k"),
                "--klocal" => {
                    let v = value("--klocal");
                    o.klocal = if v == "inf" {
                        None
                    } else {
                        Some(parse_num(&v, "--klocal"))
                    };
                }
                "--thr-gamma" => {
                    let v = value("--thr-gamma");
                    o.thr_gamma = if v == "inf" {
                        None
                    } else {
                        Some(parse_num(&v, "--thr-gamma"))
                    };
                }
                "--alpha" => o.alpha = Some(parse_num(&value("--alpha"), "--alpha")),
                "--nodes" => o.nodes = parse_num(&value("--nodes"), "--nodes"),
                "--machine" => o.machine = value("--machine"),
                "--removals" => o.removals = parse_num(&value("--removals"), "--removals"),
                "--symmetrize" => o.symmetrize = true,
                "--scores" => o.scores = Some(value("--scores")),
                "--compare" => o.compare = true,
                "--queries" => o.queries = Some(value("--queries")),
                "--query-sample" => {
                    o.query_sample = Some(parse_num(&value("--query-sample"), "--query-sample"))
                }
                "--requests" => o.requests = Some(value("--requests")),
                "--updates" => o.updates = Some(value("--updates")),
                "--batch" => o.batch = parse_num(&value("--batch"), "--batch"),
                "--request-count" => {
                    o.request_count = Some(parse_num(&value("--request-count"), "--request-count"))
                }
                "--request-size" => {
                    o.request_size = parse_num(&value("--request-size"), "--request-size")
                }
                "--workers" => o.workers = parse_num(&value("--workers"), "--workers"),
                "--shards" => o.shards = Some(parse_num(&value("--shards"), "--shards")),
                "--shard-procs" => o.shard_procs = true,
                "--data-dir" => o.data_dir = Some(PathBuf::from(value("--data-dir"))),
                "--fsync" => o.fsync = value("--fsync"),
                "--snapshot-every" => {
                    o.snapshot_every = parse_num(&value("--snapshot-every"), "--snapshot-every")
                }
                "--retain" => o.retain = parse_num(&value("--retain"), "--retain"),
                "--graph-format" => o.graph_format = Some(value("--graph-format")),
                "--chunk-edges" => {
                    o.chunk_edges = Some(parse_num(&value("--chunk-edges"), "--chunk-edges"))
                }
                "--rmat-scale" => {
                    o.rmat_scale = Some(parse_num(&value("--rmat-scale"), "--rmat-scale"))
                }
                "--edges" => o.edges = Some(parse_num(&value("--edges"), "--edges")),
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other:?}")),
            }
            o.given.push(flag.clone());
        }
        o
    }

    /// Rejects the first given flag that `command` does not read, so a
    /// flag is never silently ignored.
    fn check_reads(&self, command: &str, reads: &[&str]) -> Result<(), String> {
        let reads: Vec<&str> = reads.iter().flat_map(|g| g.split_whitespace()).collect();
        match self
            .given
            .iter()
            .find(|flag| !reads.contains(&flag.as_str()))
        {
            Some(flag) => Err(format!(
                "{command} does not read {flag} (it reads {})",
                reads.join(", ")
            )),
            None => Ok(()),
        }
    }

    fn cluster(&self) -> Result<ClusterSpec, String> {
        match self.machine.as_str() {
            "type-i" => Ok(ClusterSpec::type_i(self.nodes)),
            "type-ii" => Ok(ClusterSpec::type_ii(self.nodes)),
            "single" => Ok(ClusterSpec::single_machine(20, 128 << 30)),
            other => Err(format!(
                "unknown machine type {other:?} (expected type-i, type-ii or single)"
            )),
        }
    }

    /// The one score plan every scoring command runs, with its spec
    /// strings (what `serve --shards` ships to the shards): `--scores
    /// PLAN`, or `--score S [--alpha A]` as the one-column plan `S`
    /// (`S@alphaA`). `--k`, `--klocal`, `--thr-gamma` and `--seed` seed
    /// the plan-level defaults; per-spec `@` parameters win over them, and
    /// conflicting plan-scoped parameters are rejected with the parser's
    /// error.
    fn score_plan(&self) -> Result<(Vec<String>, ScorePlan), String> {
        let specs: Vec<String> = match (&self.scores, self.alpha) {
            (Some(_), _) if self.given.iter().any(|f| f == "--score") => {
                return Err("--score and --scores are mutually exclusive: \
                            --score S is the one-column plan --scores S"
                    .into())
            }
            (Some(_), Some(alpha)) => {
                return Err(format!(
                    "--alpha does not apply to --scores plans ({alpha} would be \
                     silently ignored); pin it per spec instead, e.g. \
                     'linearSum@alpha{alpha}'"
                ))
            }
            (Some(scores), None) => scores.split(',').map(|s| s.trim().to_owned()).collect(),
            (None, alpha) => {
                // `--score` stays limited to the Table-3 names.
                let score = NamedScore::parse(&self.score).ok_or_else(|| {
                    format!(
                        "unknown score {:?}; available: {}",
                        self.score,
                        NamedScore::all().map(|s| s.name()).join(", ")
                    )
                })?;
                vec![match alpha {
                    Some(alpha) => format!("{}@alpha{alpha}", score.name()),
                    None => score.name().to_owned(),
                }]
            }
        };
        let config = PlanConfig::default()
            .k(self.k)
            .klocal(self.klocal)
            .thr_gamma(self.thr_gamma)
            .seed(self.seed);
        let columns: Result<Vec<ScoreSpec>, _> =
            specs.iter().map(|s| ScoreSpec::parse(s)).collect();
        let plan = columns
            .and_then(|columns| ScorePlan::with_config(columns, config))
            .map_err(|e| e.to_string())?;
        Ok((specs, plan))
    }

    /// Opens `--out`, or stdout without it.
    fn output(&self) -> Result<Box<dyn Write>, String> {
        Ok(match &self.out {
            Some(p) => Box::new(BufWriter::new(
                File::create(p).map_err(|e| format!("{}: {e}", p.display()))?,
            )),
            None => Box::new(std::io::stdout().lock()),
        })
    }

    /// Resolves `--queries`/`--query-sample` into a query set, validating
    /// every explicit id against the loaded graph *before* any heavy work
    /// starts — an out-of-range id gets a proper error naming it instead
    /// of surfacing from deep inside mask construction.
    fn query_set(&self, graph: &dyn GraphStore) -> Result<Option<QuerySet>, String> {
        match (&self.queries, self.query_sample) {
            (Some(_), Some(_)) => Err("--queries and --query-sample are mutually exclusive".into()),
            (Some(list), None) => {
                let ids: Result<Vec<u32>, _> =
                    list.split(',').map(|s| s.trim().parse::<u32>()).collect();
                let ids = ids.map_err(|_| {
                    format!("--queries expects comma-separated vertex ids, got {list:?}")
                })?;
                let num_vertices = graph.num_vertices();
                if let Some(&bad) = ids.iter().find(|&&id| id as usize >= num_vertices) {
                    return Err(format!(
                        "--queries: vertex id {bad} is out of range — the graph has \
                         {num_vertices} vertices (valid ids are 0..={})",
                        num_vertices.saturating_sub(1)
                    ));
                }
                Ok(Some(QuerySet::from_indices(ids)))
            }
            (None, Some(count)) => Ok(Some(QuerySet::sample(
                graph.num_vertices(),
                count,
                self.seed,
            ))),
            (None, None) => Ok(None),
        }
    }
}

/// The serve-config blob snapshots record, compared on reopen to warn
/// about restarts with changed prediction flags.
fn serve_config_blob(opts: &Options) -> String {
    format!(
        "score={} scores={} k={} klocal={} thr_gamma={} alpha={} seed={}",
        opts.score,
        opts.scores.as_deref().unwrap_or("-"),
        opts.k,
        opts.klocal.map_or("inf".into(), |v: usize| v.to_string()),
        opts.thr_gamma
            .map_or("inf".into(), |v: usize| v.to_string()),
        opts.alpha.map_or("-".into(), |v: f32| v.to_string()),
        opts.seed,
    )
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage(&format!("invalid value {s:?} for {flag}")))
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "snaple-cli — link prediction from the command line

commands:
  emulate   --dataset NAME --scale F [--seed N] --out FILE
            synthesize a stand-in for a paper dataset (gowalla, pokec,
            orkut, livejournal, twitter-rv) and write it out
  stats     --graph FILE
            print structural statistics of a graph
  predict   --graph FILE [--score S [--alpha F] | --scores PLAN] [--k N]
            [--klocal N|inf] [--thr-gamma N|inf] [--nodes N]
            [--machine type-i|type-ii|single] [--out FILE]
            [--queries IDS | --query-sample N]
            run SNAPLE and emit 'source target score' lines;
            --queries (comma-separated ids) or --query-sample (random
            subset of N sources) restrict the run to those users.
            --score S (a Table-3 name, default linearSum) is the
            one-column plan 'S', or 'S@alphaF' with --alpha F in [0, 1]
            (default 0.9). --scores takes a comma-separated score plan
            (e.g. 'linearSum, jaccard@k16, cosine*0.7+common') evaluated
            in ONE fused sweep, emitting 'label source target score'
            lines — see the snaple_core::spec docs for the grammar
  serve     --graph FILE [prediction flags] [--batch N] [--workers N]
            [--shards N [--shard-procs]] [--out FILE]
            [--data-dir DIR [--fsync always|batch] [--snapshot-every K]
             [--retain N]]
            (--requests FILE|- | --updates FILE|- |
             --request-count N [--request-size M])
            prepare once, then answer a stream of query-set requests,
            coalescing up to --batch requests per shared superstep run;
            --requests reads one request per line (comma-separated
            vertex ids; '-' reads stdin), --request-count samples a
            synthetic stream; emits 'request source target score' lines
            and a throughput/latency summary (p50/p95/p99).
            --updates reads a *mixed* predict/update stream instead:
            'predict IDS' (or a bare id list) requests predictions,
            'add U V [W]' / 'remove U V' mutate the served graph
            (consecutive mutations coalesce into one delta batch;
            predictions after an update reflect the mutated graph,
            bit-identical to a cold restart on it).
            --workers N serves through the concurrent runtime instead:
            a pool of N threads, each coalescing up to --batch
            requests, executes against one shared snapshot and updates
            swap in post-delta epochs without stalling reads — rows
            stay bit-identical to the sequential server
            --shards N serves through the scatter-gather shard router:
            N isolated shard runtimes each own the vertices whose
            master partition falls in their block (N must be 1..=the
            cluster's --nodes); requests scatter to the owning shards,
            updates broadcast to all of them, and rows stay
            bit-identical to the single-process paths. --shard-procs
            hosts each shard in a snaple-shardd child process speaking
            the checksummed wire protocol over pipes (default:
            in-process threads exchanging the same frames)
            --data-dir DIR makes the server RESTARTABLE: updates append
            to an fsync'd, checksummed commitlog before applying, and
            every --snapshot-every K updates (default 64) a compacted
            checkpoint is written (keeping --retain N, default 2).
            Re-running with the same --data-dir recovers the newest
            valid snapshot + log tail — bit-identical to a server that
            never stopped; torn log tails and corrupt snapshots are
            repaired and reported, never fatal. --fsync batch trades
            the per-update fsync for one every 32 appends.
            (--data-dir works on the sequential and --workers paths,
            not --shards)
  evaluate  --graph FILE [--removals N] [prediction flags]
            [--queries IDS | --query-sample N]
            hold out edges, predict, and report recall/precision/MRR;
            with a query subset, metrics range over the queried
            sources only
  sweep     --graph FILE [--removals N] [--compare] [prediction flags]
            evaluate every column of a score plan under the hold-out
            protocol in ONE fused sweep: prints a config x metric table
            (recall/precision/MRR + per-column work); --compare also
            runs each column standalone (N extra traversals) to print
            the fused-vs-independent gather-op comparison
  graph convert --graph FILE --out FILE [--graph-format v2|varint|v1]
            [--chunk-edges N] [--symmetrize]
            re-encode a graph between formats. Text edge lists convert
            to raw SNPLG2 OUT-OF-CORE: edges are chunk-sorted into spill
            runs of --chunk-edges each (default 4M) and k-way merged
            straight to disk, so inputs larger than RAM convert fine
  graph gen --rmat-scale S [--edges M] [--seed N] [--chunk-edges N]
            --out FILE
            stream a synthetic RMAT/Kronecker graph with 2^S vertices
            (default M = 16*2^S edges) through the out-of-core builder
            directly to a raw SNPLG2 file — graph size is bounded by
            disk, not RAM

serve, evaluate and sweep take --score or --scores too; serve and
evaluate rank by the plan's weighted combined ranking (one fused sweep
per coalesced batch), which for a --score plan is its one column.

every command rejects a flag it does not read, naming both.

predict/serve take the storage backend from the graph file itself: a
raw SNPLG2 file opens file-backed ('file-csr': open reads only the
header and the section table, each section loads whole into RAM on
first touch, and a run that gathers only out-edges never loads the
in-sections); the varint SNPLG2 flavor and SNPLG1 load into RAM
('csr'); text edge lists parse in RAM. Rows are bit-identical across
backends. 'graph convert --graph-format varint' writes the varint
flavor (about 2x smaller); 'graph convert' back to raw v2 gives a file
that opens file-backed again.

large graphs — quickstart:
  snaple-cli graph gen --rmat-scale 25 --out big.snplg     # ~0.5G edges
  snaple-cli graph convert --graph edges.txt --out big.snplg  # or yours
  snaple-cli predict --graph big.snplg --query-sample 64 --out rows.txt
the generator and converter never hold the graph in memory (chunked
spill runs + k-way merge), so graphs bigger than RAM build fine;
predict and serve need every section a run touches to fit in RAM.

graph files: '.snplg' binary (from emulate/--out) or text edge lists
(one 'src dst [weight]' per line; add --symmetrize for undirected input)."
    );
    exit(if error.is_empty() { 0 } else { 2 })
}

fn load_graph(opts: &Options) -> Result<CsrGraph, String> {
    let path = graph_path(opts)?;
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let reader = BufReader::new(file);
    let result = if is_binary(path) {
        io::read_binary(reader)
    } else {
        io::read_edge_list(reader, opts.symmetrize)
    };
    result.map_err(|e| format!("{}: {e}", path.display()))
}

/// The `--graph` path. `--symmetrize` shapes how a text edge list is
/// read; a binary graph file holds its edges as they were built, so the
/// flag is rejected there rather than silently ignored.
fn graph_path(opts: &Options) -> Result<&Path, String> {
    let path = opts.graph.as_deref().ok_or("missing --graph")?;
    if opts.symmetrize && is_binary(path) {
        return Err(format!(
            "--symmetrize applies to text edge lists only, and {} is a binary graph file \
             (symmetrize when building it: graph convert/gen --symmetrize)",
            path.display()
        ));
    }
    Ok(path)
}

fn is_binary(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "snplg")
}

/// Opens `--graph` as the backend its format calls for: binary files
/// through [`io::open_store`], which dispatches on the magic (file-backed
/// `file-csr` for raw `SNPLG2`, in-RAM `csr` for the varint flavor and
/// legacy `SNPLG1`); text edge lists parse in RAM.
fn open_auto(opts: &Options) -> Result<Arc<dyn GraphStore>, String> {
    let path = graph_path(opts)?;
    if is_binary(path) {
        io::open_store(path).map_err(|e| format!("{}: {e}", path.display()))
    } else {
        Ok(Arc::new(load_graph(opts)?))
    }
}

/// `graph convert` — re-encode any readable graph into the requested
/// on-disk format (default: raw `SNPLG2`). Text edge lists stream
/// through the out-of-core [`ExternalGraphBuilder`], so inputs larger
/// than RAM convert in bounded memory.
fn cmd_graph_convert(opts: &Options) -> Result<(), String> {
    let input = opts.graph.as_ref().ok_or("missing --graph")?;
    let out = opts.out.as_ref().ok_or("missing --out")?;
    let format = match opts.graph_format.as_deref().unwrap_or("v2") {
        "auto" | "file" | "v2" => "v2",
        "varint" => "varint",
        "v1" => "v1",
        other => {
            return Err(format!(
                "graph convert --graph-format expects v2 (default), varint or v1, \
                 got {other:?}"
            ))
        }
    };

    if !is_binary(input) && format == "v2" {
        // Out-of-core path: the edge list streams through the external
        // builder and never materializes in RAM.
        let mut builder = match opts.chunk_edges {
            Some(c) => ExternalGraphBuilder::with_chunk_edges(c),
            None => ExternalGraphBuilder::new(),
        };
        builder.symmetrize(opts.symmetrize);
        let file = File::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
        for (lineno, line) in BufReader::new(file).lines().enumerate() {
            let line = line.map_err(|e| format!("{}: {e}", input.display()))?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let err = || {
                format!(
                    "{} line {}: expected 'src dst [weight]', got {line:?}",
                    input.display(),
                    lineno + 1
                )
            };
            let u: u32 = fields.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
            let v: u32 = fields.next().and_then(|s| s.parse().ok()).ok_or_else(err)?;
            match fields.next() {
                Some(w) => {
                    let w: f32 = w.parse().map_err(|_| err())?;
                    builder
                        .add_weighted_edge(u, v, w)
                        .map_err(|e| e.to_string())?;
                }
                None => builder.add_edge(u, v).map_err(|e| e.to_string())?,
            }
        }
        let stats = builder.build(out).map_err(|e| e.to_string())?;
        println!(
            "wrote {}: {} vertices, {} edges ({} records via {} sorted runs, {} bytes)",
            out.display(),
            stats.vertices,
            stats.edges,
            stats.records,
            stats.runs.max(1),
            stats.output_bytes,
        );
        return Ok(());
    }

    // In-RAM re-encode between binary flavors (or into v1/varint).
    let store = open_auto(opts)?;
    let file = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut writer = BufWriter::new(file);
    match format {
        "v2" => io::write_binary(store.as_ref(), &mut writer).map_err(|e| e.to_string())?,
        "varint" => v2::write_v2_varint(store.as_ref(), &mut writer).map_err(|e| e.to_string())?,
        _ => io::write_binary_v1(&store.to_csr(), &mut writer).map_err(|e| e.to_string())?,
    }
    // A section of a file-backed input that failed to load was written
    // out as empty lists.
    store.check_fault().map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({format}): {} vertices, {} edges",
        out.display(),
        store.num_vertices(),
        store.num_edges(),
    );
    Ok(())
}

/// `graph gen` — stream an RMAT/Kronecker draw straight to a raw
/// `SNPLG2` file; the edge list never exists in RAM, so generated
/// graphs can exceed memory.
fn cmd_graph_gen(opts: &Options) -> Result<(), String> {
    let out = opts.out.as_ref().ok_or("missing --out")?;
    let scale = opts
        .rmat_scale
        .ok_or("missing --rmat-scale (log2 of the vertex count)")?;
    if scale > 31 {
        return Err(format!(
            "--rmat-scale {scale} exceeds the 31-bit vertex-id space"
        ));
    }
    let config = RmatConfig {
        scale,
        edges: opts.edges.unwrap_or(16u64 << scale),
        seed: opts.seed,
        ..RmatConfig::default()
    };
    let mut builder = match opts.chunk_edges {
        Some(c) => ExternalGraphBuilder::with_chunk_edges(c),
        None => ExternalGraphBuilder::new(),
    };
    builder.symmetrize(opts.symmetrize);
    let stats = config
        .generate_with(builder, out)
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {}: RMAT scale {scale} seed {} — {} vertices, {} edges \
         ({} drawn, {} sorted runs, {} bytes)",
        out.display(),
        opts.seed,
        stats.vertices,
        stats.edges,
        stats.records,
        stats.runs.max(1),
        stats.output_bytes,
    );
    Ok(())
}

fn cmd_emulate(opts: &Options) -> Result<(), String> {
    let name = opts.dataset.as_deref().ok_or("missing --dataset")?;
    let spec = datasets::by_name(name).ok_or_else(|| {
        format!(
            "unknown dataset {name:?}; available: {}",
            datasets::all().map(|d| d.name).join(", ")
        )
    })?;
    let graph = spec.emulate(opts.scale, opts.seed);
    let out = opts.out.as_ref().ok_or("missing --out")?;
    let file = File::create(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut writer = BufWriter::new(file);
    if is_binary(out) {
        io::write_binary(&graph, &mut writer).map_err(|e| e.to_string())?;
    } else {
        io::write_edge_list(&graph, &mut writer).map_err(|e| e.to_string())?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    println!(
        "wrote {}: {} vertices, {} edges (scale {} of {})",
        out.display(),
        graph.num_vertices(),
        graph.num_edges(),
        opts.scale,
        spec.name
    );
    Ok(())
}

fn cmd_stats(opts: &Options) -> Result<(), String> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let graph = load_graph(opts)?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let s = GraphSummary::compute(&graph, 1_000, &mut rng);
    println!("vertices      {}", s.vertices);
    println!("edges         {}", s.edges);
    println!("mean degree   {:.2}", s.out_degree.mean);
    println!("max degree    {}", s.out_degree.max);
    println!(
        "p50/p90/p99   {}/{}/{}",
        s.out_degree.p50, s.out_degree.p90, s.out_degree.p99
    );
    println!("reciprocity   {:.3}", s.reciprocity);
    println!("clustering    {:.3} (sampled)", s.clustering);
    Ok(())
}

/// `predict` — one fused sweep of the score plan. A `--scores` run emits
/// `label source target score` lines, column by column; a `--score` run
/// is the one-column plan and emits `source target score`.
fn cmd_predict(opts: &Options) -> Result<(), String> {
    let store = open_auto(opts)?;
    let graph = store.as_ref();
    let cluster = opts.cluster()?;
    let (_, plan) = opts.score_plan()?;
    let queries = opts.query_set(graph)?;
    let prepared = plan
        .prepare_plan(&PrepareRequest::new(graph, &cluster))
        .map_err(|e| e.to_string())?;
    let mut exec = ExecuteRequest::new();
    if let Some(q) = &queries {
        exec = exec.with_queries(q);
    }
    let matrix = prepared.execute_matrix(&exec).map_err(|e| e.to_string())?;

    let mut out = opts.output()?;
    let mut total = 0usize;
    for (col, label) in matrix.labels().iter().enumerate() {
        let label = match opts.scores {
            Some(_) => format!("{label}\t"),
            None => String::new(),
        };
        for (u, preds) in matrix.column_rows(col) {
            for (z, score) in preds {
                writeln!(out, "{label}{}\t{}\t{score}", u.as_u32(), z.as_u32())
                    .map_err(|e| e.to_string())?;
                total += 1;
            }
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    let scope = match &queries {
        Some(q) => format!("{} queried sources", q.len()),
        None => format!("{} sources", graph.num_vertices()),
    };
    let attribution: Vec<String> = matrix
        .column_attribution()
        .map(|(label, ops)| format!("{label} {ops}"))
        .collect();
    eprintln!(
        "predicted {total} edges for {scope} across {} score column(s) in one fused \
         sweep ({:.2} simulated seconds on {}, {} cores, {} backend); traffic {:.1} MB, \
         replication {:.2}; total work {} ops, per-column extra [{}]",
        matrix.num_columns(),
        matrix.stats.simulated_seconds(),
        cluster.name,
        cluster.total_cores(),
        graph.backend_name(),
        matrix.stats.total_network_bytes() as f64 / 1e6,
        matrix.stats.replication_factor,
        matrix.stats.total_work_ops(),
        attribution.join(", "),
    );
    Ok(())
}

/// Parses a request stream: one request per line, comma-separated vertex
/// ids; blank lines and `#` comments are skipped.
fn parse_request_stream(reader: impl BufRead) -> Result<Vec<QuerySet>, String> {
    let mut requests = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("request stream: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let ids: Result<Vec<u32>, _> = line.split(',').map(|s| s.trim().parse::<u32>()).collect();
        let ids = ids.map_err(|_| {
            format!(
                "request stream line {}: expected comma-separated vertex ids, got {line:?}",
                lineno + 1
            )
        })?;
        requests.push(QuerySet::from_indices(ids));
    }
    Ok(requests)
}

/// One event of a mixed predict/update stream.
enum ServeEvent {
    Predict(QuerySet),
    /// A contiguous run of `add`/`remove` lines, merged into one delta.
    Update(GraphDelta),
}

/// Parses a mixed predict/update stream: `predict IDS` (or a bare
/// comma-separated id list), `add U V [W]`, `remove U V`; blank lines and
/// `#` comments are skipped. Consecutive add/remove lines coalesce into
/// one update batch.
fn parse_update_stream(reader: impl BufRead) -> Result<Vec<ServeEvent>, String> {
    let mut events: Vec<ServeEvent> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("update stream: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("update stream line {}: {what}, got {line:?}", lineno + 1);
        let mut fields = line.split_whitespace();
        let keyword = fields.next().expect("non-empty line");
        let parse_id = |s: Option<&str>, what: &str| -> Result<u32, String> {
            s.and_then(|x| x.parse().ok()).ok_or_else(|| err(what))
        };
        match keyword {
            "add" | "remove" => {
                let u = parse_id(fields.next(), "expected 'add U V [W]' / 'remove U V'")?;
                let v = parse_id(fields.next(), "expected 'add U V [W]' / 'remove U V'")?;
                let weight: Option<f32> = match (keyword, fields.next()) {
                    ("add", Some(w)) => Some(w.parse().map_err(|_| err("invalid weight"))?),
                    ("add", None) => None,
                    ("remove", Some(_)) => return Err(err("'remove' takes exactly two ids")),
                    _ => None,
                };
                if fields.next().is_some() {
                    return Err(err("trailing fields"));
                }
                let delta = match events.last_mut() {
                    Some(ServeEvent::Update(delta)) => delta,
                    _ => {
                        events.push(ServeEvent::Update(GraphDelta::new()));
                        match events.last_mut() {
                            Some(ServeEvent::Update(delta)) => delta,
                            _ => unreachable!("just pushed"),
                        }
                    }
                };
                match (keyword, weight) {
                    ("add", Some(w)) => {
                        delta.insert_weighted(u, v, w);
                    }
                    ("add", None) => {
                        delta.insert(u, v);
                    }
                    _ => {
                        delta.remove(u, v);
                    }
                }
            }
            _ => {
                let ids_str = match keyword {
                    "predict" => {
                        let ids = fields
                            .next()
                            .ok_or_else(|| err("'predict' needs comma-separated vertex ids"))?;
                        if fields.next().is_some() {
                            // `predict 5 7` would otherwise serve vertex 5
                            // and silently drop the rest.
                            return Err(err(
                                "'predict' ids must be comma-separated without spaces",
                            ));
                        }
                        ids
                    }
                    _ => line, // bare id list, same format as --requests
                };
                let ids: Result<Vec<u32>, _> = ids_str
                    .split(',')
                    .map(|s| s.trim().parse::<u32>())
                    .collect();
                let ids = ids.map_err(|_| err("expected comma-separated vertex ids"))?;
                events.push(ServeEvent::Predict(QuerySet::from_indices(ids)));
            }
        }
    }
    Ok(events)
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    // Shard-count validation up front, before the graph is even loaded:
    // a bad deployment shape deserves an immediate, specific answer.
    if let Some(shards) = opts.shards {
        if shards == 0 {
            return Err("--shards must be at least 1 (every shard owns \
                        at least one partition)"
                .into());
        }
        if shards > opts.nodes {
            return Err(format!(
                "--shards {shards} exceeds --nodes {}; every shard must own \
                 at least one of the cluster's partitions — lower --shards \
                 or raise --nodes",
                opts.nodes
            ));
        }
        if opts.workers > 0 {
            return Err("--shards and --workers are mutually exclusive \
                        serving runtimes; pick one"
                .into());
        }
    } else if opts.shard_procs {
        return Err("--shard-procs needs --shards N".into());
    }
    // Every request's rows are the plan's combined ranking, computed from
    // one fused sweep per coalesced batch (a `--score` plan's one column).
    let (specs, plan) = opts.score_plan()?;
    let store = open_auto(opts)?;
    // Restartable serving: open (or recover) the data dir before anything
    // else sees the graph — recovery may replace it with the newest
    // snapshot, and the unsnapshotted log tail replays below.
    // The opened store plus the recovered log tail still to replay.
    let mut durable: Option<(Durability, Vec<GraphDelta>)> = None;
    let mut recovered_graph: Option<CsrGraph> = None;
    if let Some(dir) = &opts.data_dir {
        if opts.shards.is_some() {
            return Err("--data-dir does not combine with --shards: shards are \
                        stateless workers behind a router — persist through the \
                        single-process paths (sequential or --workers) instead"
                .into());
        }
        let policy = FsyncPolicy::parse(&opts.fsync)
            .ok_or_else(|| format!("--fsync expects 'always' or 'batch', got {:?}", opts.fsync))?;
        let store_opts = DurabilityOptions::default()
            .fsync(policy)
            .snapshot_every(opts.snapshot_every)
            .retain(opts.retain);
        let config_blob = serve_config_blob(opts);
        let (d, recovered, report): (_, _, RecoveryReport) =
            Durability::open(dir, store.as_ref(), config_blob.as_bytes(), store_opts)
                .map_err(|e| format!("{}: {e}", dir.display()))?;
        let opened = match &recovered {
            Some(_) => report.summary(),
            None => "new, seeded snapshot@0 from the base graph".to_string(),
        };
        eprintln!("data dir {}: {opened}", dir.display());
        let mut replay = Vec::new();
        if let Some(state) = recovered {
            if !state.config.is_empty() && state.config != config_blob.as_bytes() {
                eprintln!(
                    "note: serve flags changed since {} was created \
                     (snapshot recorded {:?})",
                    dir.display(),
                    String::from_utf8_lossy(&state.config),
                );
            }
            replay = state.replay;
            recovered_graph = Some(state.graph);
        }
        durable = Some((d, replay));
    }
    let graph: &dyn GraphStore = match &recovered_graph {
        Some(g) => g,
        None => store.as_ref(),
    };
    let cluster = opts.cluster()?;
    let events: Vec<ServeEvent> = match (&opts.requests, &opts.updates, opts.request_count) {
        (Some(_), Some(_), _) | (_, Some(_), Some(_)) | (Some(_), _, Some(_)) => {
            return Err("--requests, --updates and --request-count are mutually exclusive".into())
        }
        (Some(path), None, None) if path == "-" => parse_request_stream(std::io::stdin().lock())?
            .into_iter()
            .map(ServeEvent::Predict)
            .collect(),
        (Some(path), None, None) => {
            let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            parse_request_stream(BufReader::new(file))?
                .into_iter()
                .map(ServeEvent::Predict)
                .collect()
        }
        (None, Some(path), None) if path == "-" => parse_update_stream(std::io::stdin().lock())?,
        (None, Some(path), None) => {
            let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
            parse_update_stream(BufReader::new(file))?
        }
        (None, None, Some(count)) => (0..count)
            .map(|i| {
                ServeEvent::Predict(QuerySet::sample(
                    graph.num_vertices(),
                    opts.request_size,
                    opts.seed.wrapping_add(i as u64),
                ))
            })
            .collect(),
        (None, None, None) => {
            return Err("missing --requests FILE, --updates FILE or --request-count N".into())
        }
    };
    if opts.batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let mut out = opts.output()?;
    let (served, stats) = if let Some(shards) = opts.shards {
        let spec = ShardSpec::Plan {
            specs,
            config: plan.config().clone(),
        };
        serve_sharded(opts, shards, &spec, graph, &cluster, events, &mut *out)?
    } else if opts.workers > 0 {
        serve_concurrent(opts, graph, &cluster, &plan, events, durable, &mut *out)?
    } else {
        let mut server = Server::new(&plan, graph, &cluster).map_err(|e| e.to_string())?;
        if let Some((d, replay)) = durable {
            // Fold the recovered log tail back in BEFORE attaching, so the
            // replayed deltas are not logged a second time.
            for delta in &replay {
                server.apply_update(delta).map_err(|e| e.to_string())?;
            }
            server.attach_durability(d);
        }
        let served = serve_events(
            &mut server,
            events,
            opts.batch,
            &mut *out,
            Server::serve_batch,
            Server::apply_update,
        )?;
        server.sync_durability().map_err(|e| e.to_string())?;
        (served, server.stats().clone())
    };
    out.flush().map_err(|e| e.to_string())?;
    let over = match opts.shards {
        Some(shards) if opts.shard_procs => format!(" over {shards} process shard(s)"),
        Some(shards) => format!(" over {shards} thread shard(s)"),
        None => String::new(),
    };
    eprintln!(
        "served {served} requests{over} on {} ({} cores): {}",
        cluster.name,
        cluster.total_cores(),
        stats.summary()
    );
    Ok(())
}

/// The one serve event loop behind every `serve` path. Predictions
/// gather into windows of up to `window` requests; `serve` answers a
/// window and its rows are written as TSV in request order. An update
/// is a serialization point: the open window is answered first, so
/// everything before the update sees the old graph and everything after
/// it the new one; then `update` applies it. Returns the number of
/// requests served.
fn serve_events<S>(
    server: &mut S,
    events: Vec<ServeEvent>,
    window: usize,
    out: &mut dyn Write,
    mut serve: impl FnMut(&mut S, &[QuerySet]) -> Result<Vec<Prediction>, SnapleError>,
    mut update: impl FnMut(&mut S, &GraphDelta) -> Result<DeltaStats, SnapleError>,
) -> Result<usize, String> {
    let mut served = 0usize;
    let mut flush = |server: &mut S, requests: &mut Vec<QuerySet>| -> Result<(), String> {
        if requests.is_empty() {
            return Ok(());
        }
        let responses = serve(server, requests).map_err(|e| e.to_string())?;
        for (request, response) in requests.iter().zip(&responses) {
            for q in request.iter() {
                for (z, score) in response.for_vertex(q) {
                    writeln!(out, "{served}\t{}\t{}\t{score}", q.as_u32(), z.as_u32())
                        .map_err(|e| e.to_string())?;
                }
            }
            served += 1;
        }
        requests.clear();
        Ok(())
    };
    let mut requests = Vec::with_capacity(window);
    let mut epoch = 0u64;
    for event in events {
        match event {
            ServeEvent::Predict(q) => {
                requests.push(q);
                if requests.len() >= window {
                    flush(&mut *server, &mut requests)?;
                }
            }
            ServeEvent::Update(delta) => {
                flush(&mut *server, &mut requests)?;
                let applied = update(&mut *server, &delta).map_err(|e| e.to_string())?;
                epoch += 1;
                eprintln!(
                    "applied update (epoch {epoch}): +{} -{} edges (+{} vertices), \
                     {} partitions touched, {:.2} ms",
                    applied.inserted_edges,
                    applied.removed_edges,
                    applied.grown_vertices,
                    applied.touched_partitions,
                    applied.apply_wall_seconds * 1e3,
                );
            }
        }
    }
    flush(server, &mut requests)?;
    Ok(served)
}

/// The `--workers N` serve path: the event loop over the
/// [`ConcurrentServer`] worker pool. A window holds `--batch` requests
/// per worker and is submitted whole before any response is awaited, so
/// every worker can coalesce a full batch at once.
fn serve_concurrent(
    opts: &Options,
    graph: &dyn GraphStore,
    cluster: &ClusterSpec,
    predictor: &dyn Predictor,
    events: Vec<ServeEvent>,
    durable: Option<(Durability, Vec<GraphDelta>)>,
    out: &mut dyn Write,
) -> Result<(usize, ServerStats), String> {
    let options = ConcurrentOptions::default()
        .workers(opts.workers)
        .batch(opts.batch);
    let body = |mut handle: ServeHandle<'_, '_>| {
        serve_events(
            &mut handle,
            events,
            opts.batch * opts.workers,
            out,
            |h, window| {
                let tickets: Vec<_> = window
                    .iter()
                    .map(|q| h.submit(q))
                    .collect::<Result<_, _>>()?;
                tickets.into_iter().map(PendingPrediction::wait).collect()
            },
            |h, delta| h.apply_update(delta),
        )
    };
    let outcome = match durable {
        Some((d, replay)) => {
            // Durable run: prepare explicitly so the recovered log tail
            // folds in BEFORE the store attaches (replays are already
            // logged — they must not log twice).
            let mut prepared = predictor
                .prepare(&PrepareRequest::new(graph, cluster))
                .map_err(|e| e.to_string())?;
            for delta in &replay {
                prepared.apply_delta(delta).map_err(|e| e.to_string())?;
            }
            ConcurrentServer::run_prepared_durable(prepared, options, d, body)
        }
        None => ConcurrentServer::run(predictor, graph, cluster, options, body),
    }
    .map_err(|e| e.to_string())?;
    Ok((outcome.value?, outcome.stats))
}

/// The `--shards N` serve path: the event loop over the scatter-gather
/// [`ShardRouter`]. A window of `--batch` requests is scattered whole
/// before any gather is awaited; an update broadcasts to every shard.
fn serve_sharded(
    opts: &Options,
    shards: usize,
    spec: &ShardSpec,
    graph: &dyn GraphStore,
    cluster: &ClusterSpec,
    events: Vec<ServeEvent>,
    out: &mut dyn Write,
) -> Result<(usize, ServerStats), String> {
    let transport = if opts.shard_procs {
        ShardTransport::Processes
    } else {
        ShardTransport::Threads
    };
    let options = ShardOptions::new().shards(shards).transport(transport);
    let outcome = ShardRouter::run(spec, graph, cluster, options, |mut handle| {
        serve_events(
            &mut handle,
            events,
            opts.batch,
            out,
            |h, window| {
                let pending: Vec<_> = window
                    .iter()
                    .map(|q| h.submit(q))
                    .collect::<Result<_, _>>()?;
                pending.into_iter().map(PendingRows::wait).collect()
            },
            |h, delta| h.apply_update(delta),
        )
    })
    .map_err(|e| e.to_string())?;
    Ok((outcome.value?, outcome.stats))
}

/// `sweep` — evaluate a whole score plan under the hold-out protocol in
/// **one** fused sweep, emitting a configuration × metric table. With
/// `--compare`, additionally runs every column standalone (N extra full
/// traversals!) to print the fused-vs-independent gather-op comparison.
fn cmd_sweep(opts: &Options) -> Result<(), String> {
    let graph = load_graph(opts)?;
    let cluster = opts.cluster()?;
    let (_, plan) = opts.score_plan()?;
    let holdout = HoldOut::remove_edges(&graph, opts.removals.max(1), opts.seed);

    let prepared = plan
        .prepare_plan(&PrepareRequest::new(&holdout.train, &cluster))
        .map_err(|e| e.to_string())?;
    let matrix = prepared
        .execute_matrix(&ExecuteRequest::new())
        .map_err(|e| e.to_string())?;
    let fused_gathers: u64 = matrix.stats.steps.iter().map(|s| s.gather_calls).sum();

    let mut header = vec!["score", "k", "recall", "precision", "mrr", "column ops"];
    if opts.compare {
        header.push("indep. gathers");
    }
    let mut table = TextTable::new(header);
    let mut independent_gathers = 0u64;
    for col in 0..plan.num_columns() {
        let column = matrix.column(col);
        let mut row = vec![
            matrix.labels()[col].clone(),
            plan.column_k(col).to_string(),
            format!("{:.4}", metrics::recall(&column, &holdout)),
            format!("{:.4}", metrics::precision(&column, &holdout)),
            format!("{:.4}", metrics::mean_reciprocal_rank(&column, &holdout)),
            matrix.column_work_ops(col).to_string(),
        ];
        if opts.compare {
            // The naive path this plan replaces: one full run per config.
            let standalone = plan.column_snaple(col);
            let solo =
                Predictor::predict(&standalone, &PredictRequest::new(&holdout.train, &cluster))
                    .map_err(|e| e.to_string())?;
            let solo_gathers: u64 = solo.stats.steps.iter().map(|s| s.gather_calls).sum();
            independent_gathers += solo_gathers;
            row.push(solo_gathers.to_string());
        }
        table.row(row);
    }
    println!("{}", table.render());
    if opts.compare {
        let ratio = fused_gathers as f64 / independent_gathers.max(1) as f64;
        println!(
            "fused sweep: {fused_gathers} gather calls for {} columns vs \
             {independent_gathers} independent ({:.1}% — one traversal instead of {})",
            plan.num_columns(),
            ratio * 100.0,
            plan.num_columns(),
        );
    } else {
        println!(
            "fused sweep: {fused_gathers} gather calls for all {} columns \
             (--compare re-runs each column standalone for the ratio)",
            plan.num_columns(),
        );
    }
    Ok(())
}

fn cmd_evaluate(opts: &Options) -> Result<(), String> {
    let graph = load_graph(opts)?;
    let holdout = HoldOut::remove_edges(&graph, opts.removals.max(1), opts.seed);
    let cluster = opts.cluster()?;
    let (_, plan) = opts.score_plan()?;
    let queries = opts.query_set(&holdout.train)?;
    let mut req = PredictRequest::new(&holdout.train, &cluster);
    if let Some(q) = &queries {
        req = req.with_queries(q);
    }
    let prediction = Predictor::predict(&plan, &req).map_err(|e| e.to_string())?;
    let q = queries.as_ref();
    if let Some(q) = q {
        // Metrics over the queried sources only — the all-vertices
        // denominator would misread a targeted run as low recall.
        println!("queried sources {}", q.len());
    }
    println!("held-out edges  {}", holdout.num_removed());
    println!(
        "recall          {:.4}",
        metrics::recall_for(&prediction, &holdout, q)
    );
    println!(
        "precision       {:.4}",
        metrics::precision_for(&prediction, &holdout, q)
    );
    println!(
        "mrr             {:.4}",
        metrics::mean_reciprocal_rank_for(&prediction, &holdout, q)
    );
    println!("sim. time       {:.2}s", prediction.simulated_seconds());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph10() -> CsrGraph {
        CsrGraph::from_edges(10, &[(0, 1), (1, 2), (2, 3)])
    }

    fn parse(args: &[&str]) -> Options {
        Options::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn serve_config_blob_is_stable_for_every_scoring_form() {
        // Snapshots record this string, and a data dir reopens without
        // the "serve flags changed" note only while it stays the same.
        assert_eq!(
            serve_config_blob(&parse(&["--score", "counter"])),
            "score=counter scores=- k=5 klocal=20 thr_gamma=200 alpha=- seed=42"
        );
        assert_eq!(
            serve_config_blob(&parse(&["--score", "linearSum", "--alpha", "0.5"])),
            "score=linearSum scores=- k=5 klocal=20 thr_gamma=200 alpha=0.5 seed=42"
        );
        assert_eq!(
            serve_config_blob(&parse(&[
                "--scores",
                "linearSum, PPR@k3",
                "--klocal",
                "inf"
            ])),
            "score=linearSum scores=linearSum, PPR@k3 k=5 klocal=inf thr_gamma=200 alpha=- seed=42"
        );
    }

    #[test]
    fn score_flags_build_a_one_column_plan() {
        let (specs, plan) = parse(&["--score", "counter", "--alpha", "0.5", "--k", "3"])
            .score_plan()
            .unwrap();
        assert_eq!(specs, ["counter@alpha0.5"]);
        assert_eq!(plan.num_columns(), 1);
        assert_eq!(plan.column_k(0), 3);
        let (specs, _) = parse(&[]).score_plan().unwrap();
        assert_eq!(specs, ["linearSum"]);
        let (specs, plan) = parse(&["--scores", "linearSum, PPR@k3"])
            .score_plan()
            .unwrap();
        assert_eq!(specs, ["linearSum", "PPR@k3"]);
        assert_eq!(plan.num_columns(), 2);

        for (args, error) in [
            (&["--score", "nope"][..], "unknown score"),
            (
                &["--scores", "counter", "--alpha", "0.5"],
                "--alpha does not apply",
            ),
            (
                &["--score", "counter", "--scores", "PPR"],
                "mutually exclusive",
            ),
            (&["--alpha", "1.5"], "[0, 1]"),
        ] {
            let err = parse(args).score_plan().unwrap_err();
            assert!(err.contains(error), "{args:?}: {err}");
        }
    }

    fn opts_with_queries(list: &str) -> Options {
        Options {
            queries: Some(list.to_owned()),
            ..Options::default()
        }
    }

    #[test]
    fn in_range_queries_resolve() {
        let q = opts_with_queries("0, 3,9")
            .query_set(&graph10())
            .unwrap()
            .unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn out_of_range_query_ids_error_up_front_naming_the_id() {
        // Regression: ids >= num_vertices used to travel all the way into
        // the predictor before being rejected; they must fail during flag
        // resolution with a message naming the offending id.
        let err = opts_with_queries("3,10,4")
            .query_set(&graph10())
            .unwrap_err();
        assert!(err.contains("vertex id 10"), "{err}");
        assert!(err.contains("10 vertices"), "{err}");
        assert!(err.contains("0..=9"), "{err}");

        // The first offending id is named, even when several are bad.
        let err = opts_with_queries("99,10")
            .query_set(&graph10())
            .unwrap_err();
        assert!(err.contains("vertex id 99"), "{err}");

        // Boundary: the largest valid id passes, one past it fails.
        assert!(opts_with_queries("9").query_set(&graph10()).is_ok());
        assert!(opts_with_queries("10").query_set(&graph10()).is_err());
    }

    #[test]
    fn malformed_and_conflicting_query_flags_error() {
        let err = opts_with_queries("1,x").query_set(&graph10()).unwrap_err();
        assert!(err.contains("comma-separated"), "{err}");
        let both = Options {
            queries: Some("1".into()),
            query_sample: Some(3),
            ..Options::default()
        };
        assert!(both.query_set(&graph10()).is_err());
    }

    #[test]
    fn query_sample_is_always_in_range() {
        let opts = Options {
            query_sample: Some(50),
            ..Options::default()
        };
        let q = opts.query_set(&graph10()).unwrap().unwrap();
        assert_eq!(q.len(), 10, "oversampling clamps to the vertex count");
        assert!(q.iter().all(|v| v.index() < 10));
    }
}

//! Who-to-Follow: account recommendation on a Twitter-like follower graph.
//!
//! The paper motivates SNAPLE with exactly this workload — Twitter moved
//! its Who-to-Follow service from a single machine (Cassovary) to a
//! distributed deployment (§2.2, [12]). This example compares the two
//! approaches head-to-head on an emulated follower graph, reproducing the
//! spirit of the paper's Table 6 on example scale.
//!
//! ```bash
//! cargo run --release --example who_to_follow
//! ```

use snaple::cassovary::{RandomWalkConfig, RandomWalkPpr};
use snaple::core::serve::Server;
use snaple::core::{NamedScore, PredictRequest, Predictor, QuerySet, Snaple, SnapleConfig};
use snaple::eval::table::fmt_millis;
use snaple::eval::{metrics, HoldOut, TextTable};
use snaple::gas::ClusterSpec;
use snaple::graph::gen::datasets;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An emulation of the twitter-rv follower graph at 1/5000 scale:
    // ~8k accounts, ~290k follow edges, low reciprocity, heavy-tailed
    // follower counts.
    let graph = datasets::TWITTER_RV.emulate(0.0002, 2024);
    println!(
        "follower graph: {} accounts, {} follow edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // Hide one followed account per user; a good recommender should surface
    // it again.
    let holdout = HoldOut::remove_edges(&graph, 1, 99);
    println!("hidden follows: {}", holdout.num_removed());
    println!();

    let mut table = TextTable::new(vec![
        "recommender",
        "deployment",
        "recall@5",
        "sim. time (s)",
    ]);

    // Contender 1: single-machine random-walk PPR (the Cassovary way).
    let machine = ClusterSpec::single_machine(20, 128 << 30);
    let ppr = RandomWalkPpr::new(RandomWalkConfig::new().walks(100).depth(3).k(5));
    let walks = Predictor::predict(&ppr, &PredictRequest::new(&holdout.train, &machine))?;
    table.row(vec![
        "random-walk PPR (w=100, d=3)".into(),
        "1 machine, 20 cores".into(),
        format!("{:.3}", metrics::recall(&walks, &holdout)),
        format!("{:.1}", walks.simulated_seconds()),
    ]);

    // Contender 2: SNAPLE on the same single machine.
    let snaple = Snaple::new(SnapleConfig::new(NamedScore::LinearSum).klocal(Some(20)));
    let single = Predictor::predict(&snaple, &PredictRequest::new(&holdout.train, &machine))?;
    table.row(vec![
        "SNAPLE linearSum (klocal=20)".into(),
        "1 machine, 20 cores".into(),
        format!("{:.3}", metrics::recall(&single, &holdout)),
        format!("{:.1}", single.simulated_seconds()),
    ]);

    // Contender 3: SNAPLE scaled out to 8 machines.
    let cluster = ClusterSpec::type_ii(8);
    let distributed = Predictor::predict(&snaple, &PredictRequest::new(&holdout.train, &cluster))?;
    table.row(vec![
        "SNAPLE linearSum (klocal=20)".into(),
        "8 machines, 160 cores".into(),
        format!("{:.3}", metrics::recall(&distributed, &holdout)),
        format!("{:.1}", distributed.simulated_seconds()),
    ]);

    println!("{}", table.render());
    println!(
        "note: SNAPLE's predictions are identical on both deployments — the \
         engine guarantees distribution does not change results."
    );

    // Show recommendations for the most-followed account's followers,
    // counted from the follow edges in one pass.
    let mut followers = vec![0usize; holdout.train.num_vertices()];
    for (_, z) in holdout.train.edges() {
        followers[z.index()] += 1;
    }
    let celebrity = holdout
        .train
        .vertices()
        .max_by_key(|&u| followers[u.index()])
        .expect("nonempty graph");
    println!();
    println!(
        "most-followed account: {celebrity} ({} followers)",
        followers[celebrity.index()]
    );
    if let Some((follower, _)) = holdout.train.edges().find(|&(_, z)| z == celebrity) {
        let recs = distributed.for_vertex(follower);
        println!("recommendations for one of its followers ({follower}):");
        for (z, score) in recs {
            println!("  follow {z}  (score {score:.3})");
        }
    }

    // --- Serving mode: a stream of requests from users coming online. ----
    //
    // A production Who-to-Follow deployment does not refresh every account
    // on every request — it answers for the users who are active, as they
    // arrive. `Server` prepares the heavy state (the vertex-cut partition
    // of the follower graph) once, then coalesces concurrent requests into
    // shared masked superstep runs. Every served row is bit-identical to
    // the batch run above.
    let mut server = Server::new(&snaple, &holdout.train, &cluster)?;
    let requests: Vec<QuerySet> = (0..30)
        .map(|wave| QuerySet::sample(holdout.train.num_vertices(), 40, 7 + wave))
        .collect();
    for wave in requests.chunks(6) {
        let responses = server.serve_batch(wave)?;
        for (request, response) in wave.iter().zip(&responses) {
            for user in request.iter() {
                assert_eq!(response.for_vertex(user), distributed.for_vertex(user));
            }
        }
    }
    let stats = server.stats();
    println!();
    println!(
        "serving mode: {} requests of 40 active users each, coalesced into \
         {} shared runs — all rows identical to the batch run",
        stats.requests, stats.batches
    );
    let mut costs = TextTable::new(vec!["cost", "ms", "paid"]);
    costs.row(vec![
        "partition build (setup)".into(),
        fmt_millis(stats.partition_build_seconds),
        "once per stream".into(),
    ]);
    costs.row(vec![
        "mean serve latency".into(),
        fmt_millis(stats.mean_latency_seconds()),
        "per request".into(),
    ]);
    println!("{}", costs.render());
    println!(
        "  {:.0} requests/s served, coalescing factor {:.2}x",
        stats.throughput_rps(),
        stats.coalescing_factor()
    );
    Ok(())
}

//! Reproduces **Figure 6** — the effect of the truncation threshold `thrΓ`:
//!
//! * 6a–c: out-degree CDFs of orkut, livejournal and twitter-rv, sampled at
//!   the candidate thresholds {10, 20, 40, 80, 100};
//! * 6d: relative recall improvement over `thrΓ = 10` for the same
//!   thresholds (linearSum, `klocal = 80`).
//!
//! The paper's observation: once `thrΓ` covers ≈80% of the vertices, recall
//! stops improving.

use snaple_bench::{banner, dataset, emit, scaled_cluster, ExpArgs};
use snaple_core::{NamedScore, Snaple, SnapleConfig};
use snaple_eval::{Runner, TextTable};
use snaple_gas::ClusterSpec;
use snaple_graph::stats::degree_coverage;

const THRESHOLDS: [usize; 5] = [10, 20, 40, 80, 100];

fn main() {
    let args = ExpArgs::parse(
        "exp-fig6",
        "Figure 6: degree CDFs and recall sensitivity to thrΓ",
    );
    banner("exp-fig6", "paper Figure 6 (§5.5)", &args);

    let datasets: &[&str] = if args.quick {
        &["livejournal"]
    } else {
        &["orkut", "livejournal", "twitter-rv"]
    };

    // 6a–c: CDF coverage at each threshold.
    let mut cdf = TextTable::new(vec![
        "dataset",
        "thrΓ=10",
        "thrΓ=20",
        "thrΓ=40",
        "thrΓ=80",
        "thrΓ=100",
    ]);
    for name in datasets {
        let ds = dataset(&args, name);
        let graph = ds.load(args.seed);
        let mut row = vec![(*name).to_owned()];
        for thr in THRESHOLDS {
            row.push(format!("{:.1}%", 100.0 * degree_coverage(&graph, thr)));
        }
        cdf.row(row);
    }
    println!("share of vertices with out-degree <= thrΓ (Figure 6a–c):");
    emit(&args, "fig6-cdf", &cdf);

    // 6d: recall improvement relative to thrΓ = 10.
    let klocal = if args.quick { 20 } else { 80 };
    let mut recall_table = TextTable::new(vec!["dataset", "thrΓ", "recall", "improvement %"]);
    for name in datasets {
        let ds = dataset(&args, name);
        let (_graph, holdout) = ds.load_with_holdout(args.seed, 1);
        let runner = Runner::new(&holdout);
        // Recall experiments run on type-II nodes: the paper's 256-core
        // type-I deployment is memory-tight at tiny dataset scales (state
        // per vertex does not shrink with scale), and cluster choice does
        // not affect recall.
        let cluster = scaled_cluster(ClusterSpec::type_ii(8), &ds);
        let mut base_recall = None;
        for thr in THRESHOLDS {
            let config = SnapleConfig::new(NamedScore::LinearSum)
                .klocal(Some(klocal))
                .thr_gamma(Some(thr))
                .seed(args.seed);
            let m = runner.run("linearSum", &Snaple::new(config), &runner.request(&cluster));
            if !m.outcome.is_completed() {
                recall_table.row(vec![
                    (*name).to_owned(),
                    thr.to_string(),
                    "OOM".into(),
                    "-".into(),
                ]);
                continue;
            }
            let base = *base_recall.get_or_insert(m.recall);
            recall_table.row(vec![
                (*name).to_owned(),
                thr.to_string(),
                format!("{:.3}", m.recall),
                format!("{:+.1}", 100.0 * (m.recall / base.max(1e-9) - 1.0)),
            ]);
        }
    }
    println!("relative recall improvement over thrΓ = 10 (Figure 6d, klocal = {klocal}):");
    emit(&args, "fig6-recall", &recall_table);
}

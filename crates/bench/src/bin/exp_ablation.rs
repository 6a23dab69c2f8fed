//! Ablation study beyond the paper's figures: sensitivity of recall to
//! the linear combinator's `α` (the paper reports `α = 0.9` "was found to
//! return the best predictions" on its datasets — §5.2) and to the
//! emulator's triad-closure probability (how much 2-hop structure the
//! synthetic datasets carry).

use snaple_bench::{banner, dataset, emit, scaled_cluster, ExpArgs};
use snaple_core::{NamedScore, Snaple, SnapleConfig};
use snaple_eval::{HoldOut, Runner, TextTable};
use snaple_gas::ClusterSpec;

fn main() {
    let args = ExpArgs::parse(
        "exp-ablation",
        "ablations: linear-combinator alpha and emulator triad closure",
    );
    banner(
        "exp-ablation",
        "ablations beyond the paper's figures (alpha, triad closure)",
        &args,
    );

    // --- alpha sweep -----------------------------------------------------
    let alphas: &[f32] = if args.quick {
        &[0.1, 0.5, 0.9]
    } else {
        &[0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    };
    let mut alpha_table = TextTable::new(vec!["dataset", "alpha", "recall(linearSum)"]);
    for name in ["gowalla", "livejournal"] {
        let ds = dataset(&args, name);
        let (_graph, holdout) = ds.load_with_holdout(args.seed, 1);
        let runner = Runner::new(&holdout);
        let cluster = scaled_cluster(ClusterSpec::type_ii(4), &ds);
        for &alpha in alphas {
            let config = SnapleConfig::new(NamedScore::LinearSum)
                .klocal(Some(20))
                .alpha(alpha)
                .seed(args.seed);
            let m = runner.run("linearSum", &Snaple::new(config), &runner.request(&cluster));
            alpha_table.row(vec![
                name.into(),
                format!("{alpha:.1}"),
                format!("{:.3}", m.recall),
            ]);
        }
    }
    println!("alpha sensitivity (linear combinator, klocal = 20):");
    emit(&args, "ablation-alpha", &alpha_table);

    // --- triad-closure sweep ----------------------------------------------
    let triads: &[f64] = if args.quick {
        &[0.2, 0.6]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8]
    };
    let mut triad_table = TextTable::new(vec![
        "p_triad",
        "clustering-proxy recall(counter)",
        "recall(linearSum)",
    ]);
    let ds = dataset(&args, "livejournal");
    for &p in triads {
        // Re-emulate livejournal with an overridden closure probability.
        let spec = snaple_graph::gen::datasets::DatasetSpec {
            triad_closure: p,
            ..ds.spec.clone()
        };
        let graph = spec.emulate(ds.scale, args.seed);
        let holdout = HoldOut::remove_edges(&graph, 1, args.seed ^ 0x0ed6e);
        let runner = Runner::new(&holdout);
        let cluster = scaled_cluster(ClusterSpec::type_ii(4), &ds);
        let counter = runner.run(
            "counter",
            &Snaple::new(
                SnapleConfig::new(NamedScore::Counter)
                    .klocal(Some(20))
                    .seed(args.seed),
            ),
            &runner.request(&cluster),
        );
        let linear = runner.run(
            "linearSum",
            &Snaple::new(
                SnapleConfig::new(NamedScore::LinearSum)
                    .klocal(Some(20))
                    .seed(args.seed),
            ),
            &runner.request(&cluster),
        );
        triad_table.row(vec![
            format!("{p:.1}"),
            format!("{:.3}", counter.recall),
            format!("{:.3}", linear.recall),
        ]);
    }
    println!("emulator triad-closure sensitivity (livejournal shape):");
    emit(&args, "ablation-triad", &triad_table);
}

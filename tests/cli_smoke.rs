//! End-to-end smoke tests of the `snaple-cli` binary: every subcommand,
//! both graph formats, and error paths.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_snaple-cli"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("snaple-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn emulate_stats_predict_evaluate_pipeline() {
    let graph_path = tmp("pipeline.snplg");
    let out = run(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.005",
        "--seed",
        "7",
        "--out",
        graph_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(graph_path.exists());

    let out = run(&["stats", "--graph", graph_path.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("vertices"), "{stdout}");
    assert!(stdout.contains("reciprocity"), "{stdout}");

    let out = run(&[
        "predict",
        "--graph",
        graph_path.to_str().unwrap(),
        "--score",
        "counter",
        "--k",
        "3",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = stdout.lines().next().expect("at least one prediction");
    assert_eq!(first.split('\t').count(), 3, "TSV rows: {first}");

    let out = run(&[
        "evaluate",
        "--graph",
        graph_path.to_str().unwrap(),
        "--score",
        "counter",
        "--removals",
        "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("recall"), "{stdout}");
    let recall: f64 = stdout
        .lines()
        .find(|l| l.starts_with("recall"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("recall line parses");
    assert!((0.0..=1.0).contains(&recall));
    let _ = std::fs::remove_file(graph_path);
}

#[test]
fn text_edge_lists_work_too() {
    let graph_path = tmp("text.txt");
    std::fs::write(&graph_path, "# tiny\n0 1\n1 2\n2 0\n2 3\n").unwrap();
    let out = run(&["stats", "--graph", graph_path.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("edges         4"));
    let _ = std::fs::remove_file(graph_path);
}

#[test]
fn helpful_errors_for_bad_input() {
    let out = run(&["predict", "--graph", "/nonexistent/file"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));

    let out = run(&["emulate", "--dataset", "friendster", "--out", "/tmp/x"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset"));

    let out = run(&["frobnicate"]);
    assert!(!out.status.success());

    let graph_path = tmp("err.txt");
    std::fs::write(&graph_path, "0 1\n").unwrap();
    let out = run(&[
        "predict",
        "--graph",
        graph_path.to_str().unwrap(),
        "--score",
        "not-a-score",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown score"));
    let _ = std::fs::remove_file(graph_path);
}

/// A varint file predicts the raw file's rows; a raw file with a corrupt
/// section fails `predict` (with and without queries) and `serve` with a
/// non-zero exit naming the checksum failure, never "predicted 0 edges".
#[test]
fn varint_files_predict_like_raw_ones_and_corrupt_sections_fail_the_run() {
    let raw = tmp("flavors.snplg");
    let vz = tmp("flavors.vz.snplg");
    let (raw_s, vz_s) = (raw.to_str().unwrap(), vz.to_str().unwrap());
    let ok = |args: &[&str]| {
        let out = run(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    ok(&["graph", "gen", "--rmat-scale", "10", "--out", raw_s]);
    ok(&[
        "graph",
        "convert",
        "--graph",
        raw_s,
        "--graph-format",
        "varint",
        "--out",
        vz_s,
    ]);
    let predict = |g: &str| ok(&["predict", "--graph", g, "--query-sample", "16"]).stdout;
    let rows = predict(raw_s);
    assert!(!rows.is_empty());
    assert_eq!(rows, predict(vz_s));
    let out = run(&["predict", "--graph", raw_s, "--graph-format", "varint"]);
    assert!(!out.status.success());

    let mut bytes = std::fs::read(&raw).unwrap();
    let header = snaple::graph::v2::parse_header(&bytes, bytes.len() as u64).unwrap();
    let at = header
        .section(snaple::graph::v2::SEC_OUT_TARGETS)
        .unwrap()
        .offset as usize
        + 1;
    bytes[at] ^= 0xff;
    std::fs::write(&raw, &bytes).unwrap();
    for args in [
        &["predict", "--graph", raw_s, "--query-sample", "16"][..],
        &["predict", "--graph", raw_s],
        &["serve", "--graph", raw_s, "--request-count", "4"],
    ] {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?}: {stderr}");
        assert!(stderr.contains("checksum mismatch"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(raw);
    let _ = std::fs::remove_file(vz);
}

#[test]
fn help_lists_all_commands() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    for cmd in ["emulate", "stats", "predict", "serve", "evaluate"] {
        assert!(text.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn serve_answers_request_streams_from_file_and_synthetic() {
    let graph_path = tmp("serve.snplg");
    let out = run(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.004",
        "--seed",
        "3",
        "--out",
        graph_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // A request stream file: three requests, comments and blanks skipped.
    let stream_path = tmp("serve-requests.txt");
    std::fs::write(&stream_path, "# online users\n0,1,2\n\n3, 4\n2,5\n").unwrap();
    let out = run(&[
        "serve",
        "--graph",
        graph_path.to_str().unwrap(),
        "--requests",
        stream_path.to_str().unwrap(),
        "--batch",
        "2",
        "--k",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines() {
        assert_eq!(line.split('\t').count(), 4, "TSV rows: {line}");
    }
    // Rows are demultiplexed per request: indices stay in 0..3 (sources
    // with no candidates legitimately produce no rows).
    let request_ids: std::collections::HashSet<usize> = stdout
        .lines()
        .filter_map(|l| l.split('\t').next())
        .map(|id| id.parse().unwrap())
        .collect();
    assert!(!request_ids.is_empty(), "{stdout}");
    assert!(request_ids.iter().all(|&id| id < 3), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("served 3 requests"), "{stderr}");
    assert!(stderr.contains("req/s"), "{stderr}");

    // Synthetic streams work too, and conflicting flags are rejected.
    let out = run(&[
        "serve",
        "--graph",
        graph_path.to_str().unwrap(),
        "--request-count",
        "4",
        "--request-size",
        "10",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run(&["serve", "--graph", graph_path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--requests"));

    let _ = std::fs::remove_file(graph_path);
    let _ = std::fs::remove_file(stream_path);
}

#[test]
fn serve_data_dir_reports_a_new_dir_then_its_recovery() {
    let graph_path = tmp("data-dir.snplg");
    let data_dir = tmp("data-dir-state");
    let _ = std::fs::remove_dir_all(&data_dir);
    let out = run(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.003",
        "--seed",
        "7",
        "--out",
        graph_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let serve = || {
        let out = run(&[
            "serve",
            "--graph",
            graph_path.to_str().unwrap(),
            "--request-count",
            "2",
            "--data-dir",
            data_dir.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        stderr
    };

    let first = serve();
    assert!(
        first.contains("new, seeded snapshot@0 from the base graph"),
        "{first}"
    );
    assert!(!first.contains("recovered"), "{first}");
    let second = serve();
    assert!(second.contains("recovered from snapshot@0"), "{second}");

    let _ = std::fs::remove_file(graph_path);
    let _ = std::fs::remove_dir_all(data_dir);
}

#[test]
fn serve_with_workers_matches_the_sequential_server() {
    let graph_path = tmp("serve-workers.snplg");
    let out = run(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.004",
        "--seed",
        "3",
        "--out",
        graph_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // A mixed predict/update stream, served sequentially and through the
    // worker pool: the emitted TSV rows must be identical.
    let stream_path = tmp("serve-workers-updates.txt");
    std::fs::write(
        &stream_path,
        "predict 0,1,2\nadd 0 40\nremove 1 2\npredict 0,1,2\n3,4,5\n",
    )
    .unwrap();
    let base_args = [
        "serve",
        "--graph",
        graph_path.to_str().unwrap(),
        "--updates",
        stream_path.to_str().unwrap(),
        "--k",
        "3",
        "--batch",
        "2",
    ];
    let sequential = run(&base_args);
    assert!(
        sequential.status.success(),
        "{}",
        String::from_utf8_lossy(&sequential.stderr)
    );
    let concurrent = run(&[&base_args[..], &["--workers", "3"]].concat());
    assert!(
        concurrent.status.success(),
        "{}",
        String::from_utf8_lossy(&concurrent.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&sequential.stdout),
        String::from_utf8_lossy(&concurrent.stdout),
        "worker-pool rows must be bit-identical to the sequential server"
    );
    let stderr = String::from_utf8_lossy(&concurrent.stderr);
    assert!(stderr.contains("3 workers"), "{stderr}");
    assert!(stderr.contains("p50/p95/p99"), "{stderr}");
    assert!(stderr.contains("epoch 1"), "{stderr}");

    let _ = std::fs::remove_file(graph_path);
    let _ = std::fs::remove_file(stream_path);
}

#[test]
fn out_of_range_queries_error_up_front_with_the_offending_id() {
    let graph_path = tmp("bad-queries.snplg");
    let out = run(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.004",
        "--seed",
        "3",
        "--out",
        graph_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let out = run(&[
        "predict",
        "--graph",
        graph_path.to_str().unwrap(),
        "--queries",
        "0,999999",
    ]);
    assert!(!out.status.success(), "out-of-range ids must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("vertex id 999999"), "{stderr}");
    assert!(stderr.contains("out of range"), "{stderr}");

    let _ = std::fs::remove_file(graph_path);
}

#[test]
fn serve_with_shards_matches_the_sequential_server_on_both_transports() {
    let graph_path = tmp("serve-shards.snplg");
    let out = run(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.004",
        "--seed",
        "3",
        "--out",
        graph_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    // The same mixed predict/update stream through the sequential
    // server, the thread-shard router, and the process-shard router:
    // the TSV output must be byte-identical all three ways.
    let stream_path = tmp("serve-shards-updates.txt");
    std::fs::write(
        &stream_path,
        "predict 0,1,2\nadd 0 40\nremove 1 2\npredict 0,1,2\n3,4,5\n",
    )
    .unwrap();
    let base_args = [
        "serve",
        "--graph",
        graph_path.to_str().unwrap(),
        "--updates",
        stream_path.to_str().unwrap(),
        "--k",
        "3",
        "--batch",
        "2",
    ];
    let sequential = run(&base_args);
    assert!(
        sequential.status.success(),
        "{}",
        String::from_utf8_lossy(&sequential.stderr)
    );

    let threads = run(&[&base_args[..], &["--shards", "3"]].concat());
    assert!(
        threads.status.success(),
        "{}",
        String::from_utf8_lossy(&threads.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&sequential.stdout),
        String::from_utf8_lossy(&threads.stdout),
        "thread-shard rows must be byte-identical to the sequential server"
    );
    let stderr = String::from_utf8_lossy(&threads.stderr);
    assert!(stderr.contains("3 thread shard(s)"), "{stderr}");
    assert!(stderr.contains("epoch 1"), "{stderr}");

    let procs = cli()
        .args([&base_args[..], &["--shards", "2", "--shard-procs"]].concat())
        .env("SNAPLE_SHARDD", env!("CARGO_BIN_EXE_snaple-shardd"))
        .output()
        .expect("binary runs");
    assert!(
        procs.status.success(),
        "{}",
        String::from_utf8_lossy(&procs.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&sequential.stdout),
        String::from_utf8_lossy(&procs.stdout),
        "process-shard rows must be byte-identical to the sequential server"
    );
    assert!(
        String::from_utf8_lossy(&procs.stderr).contains("2 process shard(s)"),
        "{}",
        String::from_utf8_lossy(&procs.stderr)
    );

    let _ = std::fs::remove_file(graph_path);
    let _ = std::fs::remove_file(stream_path);
}

#[test]
fn unusable_shard_flags_are_rejected_with_specific_messages() {
    // Validation fires before the graph is even loaded, so no fixture
    // file is needed — the flag errors must name the offending value.
    let zero = run(&[
        "serve",
        "--graph",
        "missing.snplg",
        "--request-count",
        "1",
        "--shards",
        "0",
    ]);
    assert!(!zero.status.success());
    let stderr = String::from_utf8_lossy(&zero.stderr);
    assert!(stderr.contains("--shards must be at least 1"), "{stderr}");

    let too_many = run(&[
        "serve",
        "--graph",
        "missing.snplg",
        "--request-count",
        "1",
        "--nodes",
        "4",
        "--shards",
        "9",
    ]);
    assert!(!too_many.status.success());
    let stderr = String::from_utf8_lossy(&too_many.stderr);
    assert!(stderr.contains("--shards 9 exceeds --nodes 4"), "{stderr}");

    let orphan = run(&[
        "serve",
        "--graph",
        "missing.snplg",
        "--request-count",
        "1",
        "--shard-procs",
    ]);
    assert!(!orphan.status.success());
    let stderr = String::from_utf8_lossy(&orphan.stderr);
    assert!(stderr.contains("--shard-procs needs --shards"), "{stderr}");

    let both = run(&[
        "serve",
        "--graph",
        "missing.snplg",
        "--request-count",
        "1",
        "--shards",
        "2",
        "--workers",
        "2",
    ]);
    assert!(!both.status.success());
    let stderr = String::from_utf8_lossy(&both.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

/// Every command rejects a flag it does not read, naming the flag and
/// the command, instead of running as if the flag were absent.
#[test]
fn commands_reject_flags_they_do_not_read() {
    let emulated = tmp("unread-emulated.snplg");
    let out = run(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.002",
        "--out",
        emulated.to_str().unwrap(),
        "--graph-format",
        "varint",
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("emulate does not read --graph-format"),
        "{stderr}"
    );
    assert!(!emulated.exists(), "a rejected run writes nothing");

    let graph_path = tmp("unread.snplg");
    let g = graph_path.to_str().unwrap();
    let ok = |args: &[&str]| {
        let out = run(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    ok(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.005",
        "--seed",
        "7",
        "--out",
        g,
    ]);
    let out = run(&["stats", "--graph", g, "--graph-format", "csr"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stats does not read --graph-format"),
        "{stderr}"
    );

    // `--symmetrize` only shapes how a text edge list is read: every
    // command that opens a binary file rejects it by name, writing
    // nothing.
    let rows = tmp("unread-symmetrized.tsv");
    let r = rows.to_str().unwrap();
    for args in [
        &["predict", "--graph", g, "--symmetrize", "--out", r][..],
        &["stats", "--graph", g, "--symmetrize"][..],
        &["evaluate", "--graph", g, "--symmetrize"][..],
        &[
            "serve",
            "--graph",
            g,
            "--symmetrize",
            "--request-count",
            "2",
            "--out",
            r,
        ][..],
        &["graph", "convert", "--graph", g, "--symmetrize", "--out", r][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--symmetrize"), "{args:?}: {stderr}");
        assert!(!rows.exists(), "{args:?}: a rejected run writes nothing");
    }
    let text = tmp("unread-symmetrized.txt");
    std::fs::write(&text, "0 1\n1 2\n").unwrap();
    let edges = |extra: &[&str]| {
        let stats = ok(&[&["stats", "--graph", text.to_str().unwrap()][..], extra].concat());
        stats
            .lines()
            .find(|l| l.starts_with("edges"))
            .map(str::to_owned)
    };
    assert_ne!(
        edges(&["--symmetrize"]),
        edges(&[]),
        "text input reads the flag"
    );
    let _ = std::fs::remove_file(text);

    // `evaluate` reads --scores: a one-column plan evaluates like the
    // same --score, and not like the default linearSum.
    let evaluate = |extra: &[&str]| ok(&[&["evaluate", "--graph", g][..], extra].concat());
    let counter = evaluate(&["--score", "counter"]);
    assert_eq!(evaluate(&["--scores", "counter"]), counter);
    assert_ne!(evaluate(&[]), counter);
    assert!(evaluate(&["--scores", "counter, PPR"]).contains("recall"));

    let _ = std::fs::remove_file(graph_path);
}

/// `--score S --alpha A` is the one-column plan `S@alphaA`: its predict
/// rows are the plan's rows without the label column, α crosses the
/// shard wire, and `--alpha` is held to the spec grammar's `[0, 1]`.
#[test]
fn score_flags_run_as_a_one_column_plan() {
    let graph_path = tmp("one-column.snplg");
    let g = graph_path.to_str().unwrap();
    let ok = |args: &[&str]| {
        let out = run(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    ok(&[
        "emulate",
        "--dataset",
        "gowalla",
        "--scale",
        "0.004",
        "--seed",
        "3",
        "--out",
        g,
    ]);

    let single = ok(&[
        "predict",
        "--graph",
        g,
        "--score",
        "linearSum",
        "--alpha",
        "0.5",
    ]);
    let plan = ok(&["predict", "--graph", g, "--scores", "linearSum@alpha0.5"]);
    assert!(!single.is_empty());
    let unlabelled: String = plan
        .lines()
        .map(|line| {
            let (label, row) = line.split_once('\t').expect("labelled row");
            assert_eq!(label, "linearSum");
            format!("{row}\n")
        })
        .collect();
    assert_eq!(single, unlabelled);

    let stream_path = tmp("one-column-updates.txt");
    std::fs::write(
        &stream_path,
        "predict 0,1,2\nadd 0 40\nremove 1 2\npredict 0,1,2\n3,4,5\n",
    )
    .unwrap();
    let serve = |extra: &[&str]| {
        let base = [
            "serve",
            "--graph",
            g,
            "--updates",
            stream_path.to_str().unwrap(),
            "--k",
            "3",
            "--batch",
            "2",
        ];
        ok(&[&base[..], extra].concat())
    };
    let sequential = serve(&["--score", "linearSum", "--alpha", "0.5"]);
    assert_eq!(
        serve(&["--score", "linearSum", "--alpha", "0.5", "--shards", "2"]),
        sequential,
        "sharded rows must carry --alpha"
    );
    assert_ne!(serve(&[]), sequential, "--alpha 0.5 must change the rows");

    let out = run(&["predict", "--graph", g, "--alpha", "1.5"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[0, 1]"), "{stderr}");

    let _ = std::fs::remove_file(graph_path);
    let _ = std::fs::remove_file(stream_path);
}

#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Shared plumbing for the experiment binaries that regenerate the
//! paper's tables and figures: `exp_table4` … `exp_table6` and
//! `exp_fig5` … `exp_fig11` are named for the table or figure they
//! reproduce, and `exp_ablation` sweeps two parameters beyond them.
//!
//! Every binary follows the same shape:
//!
//! 1. parse the common CLI flags ([`ExpArgs`]): `--scale` (multiplies each
//!    dataset's default scale), `--seed`, `--out <dir>` (writes TSV next to
//!    the console rendering), `--quick` (smaller parameter grids for smoke
//!    runs);
//! 2. generate datasets and hold-outs through [`snaple_eval::EvalDataset`];
//! 3. run predictors through [`snaple_eval::Runner`];
//! 4. print a [`snaple_eval::TextTable`] mirroring the paper's rows and
//!    optionally persist it.
//!
//! The reproduction's own extensions are checked elsewhere: their
//! bit-identity contracts in the root integration suites, their
//! wall-clock ratios in this crate's release-only `tests/gates.rs`, and
//! their end-to-end and per-layer costs in `perfbench`.

use std::fs;
use std::path::PathBuf;
use std::process::exit;

use snaple_eval::{EvalDataset, TextTable};
use snaple_gas::ClusterSpec;

/// Common command-line arguments of every experiment binary.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Multiplier applied to each dataset's default scale.
    pub scale: f64,
    /// Base random seed.
    pub seed: u64,
    /// Directory for TSV output (created on demand).
    pub out: Option<PathBuf>,
    /// Run a reduced grid for quick smoke tests.
    pub quick: bool,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 1.0,
            seed: 42,
            out: None,
            quick: false,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with usage help on errors or
    /// `--help`.
    pub fn parse(experiment: &str, description: &str) -> ExpArgs {
        let mut args = ExpArgs::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => args.scale = expect_value(&mut it, "--scale"),
                "--seed" => args.seed = expect_value(&mut it, "--seed"),
                "--out" => {
                    args.out = Some(PathBuf::from(it.next().unwrap_or_else(|| {
                        usage_and_exit(experiment, description, "--out needs a directory")
                    })))
                }
                "--quick" => args.quick = true,
                "--help" | "-h" => usage_and_exit(experiment, description, ""),
                other => {
                    usage_and_exit(experiment, description, &format!("unknown flag {other:?}"))
                }
            }
        }
        if !args.scale.is_finite() || args.scale <= 0.0 {
            usage_and_exit(
                experiment,
                description,
                "--scale must be positive and finite",
            );
        }
        args
    }

    /// Writes a table as TSV into the `--out` directory (if given).
    pub fn persist(&self, name: &str, table: &TextTable) {
        let Some(dir) = &self.out else { return };
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{name}.tsv"));
        if let Err(e) = fs::write(&path, table.to_tsv()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    }
}

fn expect_value<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        exit(2)
    })
}

fn usage_and_exit(experiment: &str, description: &str, error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!("{experiment} — {description}");
    eprintln!();
    eprintln!("usage: {experiment} [--scale F] [--seed N] [--out DIR] [--quick]");
    eprintln!("  --scale F   multiply every dataset's default scale by F (default 1.0)");
    eprintln!("  --seed N    base random seed (default 42)");
    eprintln!("  --out DIR   also write results as TSV into DIR");
    eprintln!("  --quick     reduced parameter grid for smoke runs");
    exit(if error.is_empty() { 0 } else { 2 })
}

/// Prints the standard experiment header.
pub fn banner(experiment: &str, paper_ref: &str, args: &ExpArgs) {
    println!("=== {experiment} — reproduces {paper_ref} ===");
    println!(
        "scale multiplier {:.3}, seed {}, quick={}",
        args.scale, args.seed, args.quick
    );
    println!();
}

/// Resolves a dataset by paper name at its suggested scale times the
/// experiment's `--scale` multiplier.
///
/// # Panics
///
/// Panics if the name is not one of the paper's five datasets.
pub fn dataset(args: &ExpArgs, name: &str) -> EvalDataset {
    EvalDataset::by_name(name)
        .unwrap_or_else(|| panic!("unknown dataset {name:?}"))
        .scaled_by(args.scale)
}

/// Applies the dataset's memory-capacity scaling to a cluster: per-node
/// memory shrinks with dataset scale so that out-of-memory crossovers
/// land on the same datasets as in the paper.
pub fn scaled_cluster(base: ClusterSpec, ds: &EvalDataset) -> ClusterSpec {
    base.with_memory_scale(ds.memory_scale())
}

/// Renders, prints and optionally persists an experiment table.
pub fn emit(args: &ExpArgs, name: &str, table: &TextTable) {
    println!("{}", table.render());
    args.persist(name, table);
}

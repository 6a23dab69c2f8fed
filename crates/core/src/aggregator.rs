//! Path aggregators (`⊕`, paper §3.2, Table 2).
//!
//! An aggregator merges the path similarities of the (possibly many) 2-hop
//! paths reaching the same candidate `z` into the final `score(u, z)`. To
//! fit the GAS model's map-reduce-style `sum()` phase, the paper decomposes
//! `⊕` into an incremental, commutative and associative `⊕pre` and a
//! normalization `⊕post(σ, n)` applied once with the accumulated value and
//! the number of contributing paths (eq. 10).
//!
//! This implementation adds one further (optional) hook, [`Aggregator::lift`],
//! applied to each path similarity before accumulation, which makes
//! non-linear means like [`Harmonic`] expressible in the same decomposition.

use std::fmt::Debug;

/// A decomposed multiary aggregation operator; see the [module docs](self).
pub trait Aggregator: Send + Sync + Debug {
    /// Stable name for reports ("Sum", "Mean", "Geom", ...).
    fn name(&self) -> &str;

    /// Transformation applied to each path similarity before accumulation.
    /// Defaults to the identity.
    fn lift(&self, s: f32) -> f32 {
        s
    }

    /// Incremental accumulation `⊕pre` (must be commutative/associative).
    fn pre(&self, a: f32, b: f32) -> f32;

    /// Normalization `⊕post(σ, n)` where `n` is the number of accumulated
    /// paths.
    fn post(&self, sigma: f32, n: u32) -> f32;

    /// Convenience: aggregates a full slice (used by tests and the
    /// single-machine reference implementation).
    fn aggregate(&self, values: &[f32]) -> f32 {
        let mut it = values.iter().map(|&v| self.lift(v));
        let Some(first) = it.next() else { return 0.0 };
        let sigma = it.fold(first, |acc, v| self.pre(acc, v));
        self.post(sigma, values.len() as u32)
    }
}

/// `Σ x` — exhaustive accumulation; rewards candidates reached by many
/// paths (paper Table 2, row *Sum*).
#[derive(Copy, Clone, Debug, Default)]
pub struct Sum;

impl Aggregator for Sum {
    fn name(&self) -> &str {
        "Sum"
    }

    fn pre(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn post(&self, sigma: f32, _n: u32) -> f32 {
        sigma
    }
}

/// Arithmetic mean `Σx / n` — averages out path multiplicity (row *Mean*).
#[derive(Copy, Clone, Debug, Default)]
pub struct Mean;

impl Aggregator for Mean {
    fn name(&self) -> &str {
        "Mean"
    }

    fn pre(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn post(&self, sigma: f32, n: u32) -> f32 {
        if n == 0 {
            0.0
        } else {
            sigma / n as f32
        }
    }
}

/// Geometric mean `(Πx)^(1/n)` — strongly penalizes any near-zero path
/// (row *Geom*).
#[derive(Copy, Clone, Debug, Default)]
pub struct GeometricMean;

impl Aggregator for GeometricMean {
    fn name(&self) -> &str {
        "Geom"
    }

    fn pre(&self, a: f32, b: f32) -> f32 {
        a * b
    }

    fn post(&self, sigma: f32, n: u32) -> f32 {
        if n == 0 {
            0.0
        } else {
            sigma.max(0.0).powf(1.0 / n as f32)
        }
    }
}

/// `max x` — scores a candidate by its single best path (an extension
/// beyond the paper's Table 2, selected in plans as `@agg=max`).
#[derive(Copy, Clone, Debug, Default)]
pub struct Max;

impl Aggregator for Max {
    fn name(&self) -> &str {
        "Max"
    }

    fn pre(&self, a: f32, b: f32) -> f32 {
        a.max(b)
    }

    fn post(&self, sigma: f32, _n: u32) -> f32 {
        sigma
    }
}

/// Harmonic mean `n / Σ(1/x)` — dominated by the *weakest* path (an
/// extension beyond the paper's Table 2). Zero path similarities yield a
/// zero score.
#[derive(Copy, Clone, Debug, Default)]
pub struct Harmonic;

/// Reciprocal cap standing in for `1/0` so that zero-similarity paths
/// drive harmonic scores to (numerically) zero without producing infinities
/// in the accumulator.
const HARMONIC_CAP: f32 = 1.0e12;

impl Aggregator for Harmonic {
    fn name(&self) -> &str {
        "Harmonic"
    }

    fn lift(&self, s: f32) -> f32 {
        if s <= 0.0 {
            HARMONIC_CAP
        } else {
            (1.0 / s).min(HARMONIC_CAP)
        }
    }

    fn pre(&self, a: f32, b: f32) -> f32 {
        a + b
    }

    fn post(&self, sigma: f32, n: u32) -> f32 {
        if sigma <= 0.0 {
            0.0
        } else {
            n as f32 / sigma
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_two_semantics() {
        let xs = [0.5, 0.25, 0.25];
        assert!((Sum.aggregate(&xs) - 1.0).abs() < 1e-6);
        assert!((Mean.aggregate(&xs) - 1.0 / 3.0).abs() < 1e-6);
        let geom = GeometricMean.aggregate(&xs);
        assert!((geom - (0.5f32 * 0.25 * 0.25).powf(1.0 / 3.0)).abs() < 1e-6);
        assert!((Max.aggregate(&xs) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn figure_three_example() {
        // Paper Figure 3, linear combinator α = 0.5:
        // e: paths 0.3, 0.0  f: paths 0.35, 0.25  g: 0.3, 0.2, 0.25
        let e = [0.3, 0.0];
        let f = [0.35, 0.25];
        let g = [0.3, 0.2, 0.25];
        // linearSum ranks g best
        assert!(Sum.aggregate(&g) > Sum.aggregate(&f));
        assert!(Sum.aggregate(&f) > Sum.aggregate(&e));
        assert!((Sum.aggregate(&g) - 0.75).abs() < 1e-6);
        // linearMean ranks f best
        assert!(Mean.aggregate(&f) > Mean.aggregate(&g));
        assert!((Mean.aggregate(&f) - 0.3).abs() < 1e-6);
        // linearGeom zeroes e (one dead path)
        assert_eq!(GeometricMean.aggregate(&e), 0.0);
        assert!(GeometricMean.aggregate(&f) > GeometricMean.aggregate(&g));
    }

    #[test]
    fn harmonic_is_dominated_by_weakest_path() {
        assert!(Harmonic.aggregate(&[0.5, 0.5]) > Harmonic.aggregate(&[0.9, 0.1]));
        assert!(Harmonic.aggregate(&[0.5, 0.0]) < 1e-6);
        assert!((Harmonic.aggregate(&[0.25]) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn empty_input_scores_zero() {
        for a in [
            &Sum as &dyn Aggregator,
            &Mean,
            &GeometricMean,
            &Max,
            &Harmonic,
        ] {
            assert_eq!(a.aggregate(&[]), 0.0, "{}", a.name());
        }
    }

    proptest! {
        /// ⊕pre must be commutative and associative (paper eq. 10).
        #[test]
        fn pre_is_commutative_associative(
            a in 0.0f32..1.0, b in 0.0f32..1.0, c in 0.0f32..1.0
        ) {
            for agg in [
                &Sum as &dyn Aggregator, &Mean, &GeometricMean, &Max, &Harmonic,
            ] {
                prop_assert!((agg.pre(a, b) - agg.pre(b, a)).abs() < 1e-5, "{} commutativity", agg.name());
                let l = agg.pre(agg.pre(a, b), c);
                let r = agg.pre(a, agg.pre(b, c));
                prop_assert!((l - r).abs() < 1e-4, "{} associativity: {l} vs {r}", agg.name());
            }
        }

        /// Singleton aggregation must return the value itself for all the
        /// mean-like operators.
        #[test]
        fn singleton_identity(x in 0.001f32..1.0) {
            for agg in [
                &Sum as &dyn Aggregator, &Mean, &GeometricMean, &Max, &Harmonic,
            ] {
                let got = agg.aggregate(&[x]);
                prop_assert!((got - x).abs() < 1e-4, "{}: {got} vs {x}", agg.name());
            }
        }

        /// Order of accumulation must not change the result.
        #[test]
        fn aggregation_is_order_insensitive(mut xs in proptest::collection::vec(0.01f32..1.0, 1..8)) {
            for agg in [
                &Sum as &dyn Aggregator, &Mean, &GeometricMean, &Max, &Harmonic,
            ] {
                let forward = agg.aggregate(&xs);
                xs.reverse();
                let backward = agg.aggregate(&xs);
                prop_assert!((forward - backward).abs() < 1e-3, "{}", agg.name());
                xs.reverse();
            }
        }
    }
}

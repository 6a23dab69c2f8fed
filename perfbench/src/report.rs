//! The result line and the row oracle's failure accounting.

use std::collections::BTreeMap;

use snaple_core::Prediction;
use snaple_graph::VertexId;

use crate::registry;

/// One returned row: the queried vertex and its ranked predictions.
pub type Row = (u32, Vec<(u32, f32)>);

/// The rows of `prediction` for `queries`, copied out of its dense layout.
pub fn rows_of(prediction: &Prediction, queries: &[u32]) -> Vec<Row> {
    queries
        .iter()
        .map(|&q| {
            let row = prediction
                .for_vertex(VertexId::new(q))
                .iter()
                .map(|&(z, s)| (z.as_u32(), s))
                .collect();
            (q, row)
        })
        .collect()
}

/// Whether every row of `got` equals, bit for bit, what `want` returns
/// for its vertex.
pub fn rows_match<'a>(got: &[Row], want: impl Fn(u32) -> Option<&'a [(u32, f32)]>) -> bool {
    got.iter().all(|(q, row)| {
        want(*q).is_some_and(|w| {
            w.len() == row.len()
                && w.iter()
                    .zip(row)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        })
    })
}

/// Operations attempted and failed: an error or an oracle mismatch
/// counts as a failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED operation: {what}");
            }
        }
    }
}

/// Which half of the registry a run reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

/// The metrics of one run, restricted to registered names.
pub struct Report {
    kind: Kind,
    metrics: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl Report {
    pub fn new(kind: Kind) -> Report {
        Report {
            kind,
            metrics: BTreeMap::new(),
        }
    }

    fn registered(&self, name: &str) -> Option<(&'static str, &'static str)> {
        match self.kind {
            Kind::EndToEnd => registry::end_to_end(name).map(|m| (m.name, m.unit)),
            Kind::PerLayer => registry::per_layer(name).map(|m| (m.name, m.unit)),
        }
    }

    /// Sets metric `name` to `value`, measured over `samples` operations
    /// where that applies.
    ///
    /// # Panics
    ///
    /// On a name the registry does not list for this kind of run: the
    /// benchmark prints nothing that is not registered.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let (name, _) = self
            .registered(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not registered for {:?}", self.kind));
        self.metrics.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    fn expected(&self) -> Vec<&'static str> {
        match self.kind {
            Kind::EndToEnd => registry::END_TO_END.iter().map(|m| m.name).collect(),
            Kind::PerLayer => registry::PER_LAYER.iter().map(|m| m.name).collect(),
        }
    }

    /// Human-readable table: metric, value, unit, samples, definition,
    /// and for a layer metric the end-to-end metrics it should move.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<32} {:>16} {:>8} {:>8}  {}\n",
            "metric", "value", "unit", "samples", "definition [moves]"
        );
        for name in self.expected() {
            let unit = self.registered(name).map_or("?", |(_, u)| u);
            let about = match self.kind {
                Kind::EndToEnd => {
                    registry::end_to_end(name).map_or(String::new(), |m| m.what.to_owned())
                }
                Kind::PerLayer => registry::per_layer(name).map_or(String::new(), |m| {
                    format!("{} [{}]", m.what, m.moves.describe())
                }),
            };
            let (value, samples) = match self.metrics.get(name) {
                Some(&(v, n)) => (
                    format!("{v:.6}"),
                    n.map_or("-".to_owned(), |n| n.to_string()),
                ),
                None => ("MISSING".to_owned(), "-".to_owned()),
            };
            out.push_str(&format!(
                "{name:<32} {value:>16} {unit:>8} {samples:>8}  {about}\n"
            ));
        }
        out
    }

    /// The final JSON line: correct when no operation failed.
    ///
    /// # Errors
    ///
    /// When a registered metric is missing or not a finite number.
    pub fn result_line(&self, tally: Tally) -> Result<String, String> {
        let mut parts = Vec::new();
        for name in self.expected() {
            let unit = self.registered(name).map_or("", |(_, u)| u);
            let &(v, _) = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number: {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0,
            tally.attempted.max(1),
            tally.failed,
            parts.join(", ")
        ))
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_row_counts_as_a_failed_operation() {
        let oracle: Vec<Row> = vec![(3, vec![(7, 0.5), (9, 0.25)]), (4, vec![(1, 1.0)])];
        let want = |q: u32| oracle.iter().find(|r| r.0 == q).map(|r| r.1.as_slice());
        let mut tally = Tally::default();

        let good = oracle.clone();
        tally.record(rows_match(&good, want), "good response");

        let mut score = oracle.clone();
        score[0].1[1].1 = f32::from_bits(0.25f32.to_bits() + 1);
        tally.record(rows_match(&score, want), "one score off by one ulp");

        let mut order = oracle.clone();
        order[0].1.swap(0, 1);
        tally.record(rows_match(&order, want), "two candidates swapped");

        let mut short = oracle.clone();
        short[1].1.clear();
        tally.record(rows_match(&short, want), "a row dropped");

        let unknown = vec![(5, vec![])];
        tally.record(
            rows_match(&unknown, want),
            "a vertex the oracle never served",
        );

        assert_eq!(
            tally,
            Tally {
                attempted: 5,
                failed: 4
            }
        );
    }

    #[test]
    fn unregistered_metrics_are_refused_and_missing_ones_block_the_result() {
        let mut report = Report::new(Kind::EndToEnd);
        assert!(std::panic::catch_unwind(move || {
            let mut r = Report::new(Kind::EndToEnd);
            r.set("not_a_metric", 1.0, None);
        })
        .is_err());
        report.set("setup_s", 1.5, Some(3));
        assert!(report.result_line(Tally::default()).is_err());
        for m in registry::END_TO_END {
            report.set(m.name, 2.0, None);
        }
        let line = report
            .result_line(Tally {
                attempted: 4,
                failed: 0,
            })
            .unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {")
        );
        let failed = report
            .result_line(Tally {
                attempted: 4,
                failed: 1,
            })
            .unwrap();
        assert!(failed.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        let mut layers = Report::new(Kind::PerLayer);
        assert!(std::panic::catch_unwind(move || layers.set("setup_s", 1.0, None)).is_err());
    }

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), 5.0);
        assert!(median(&[]).is_nan());
    }
}

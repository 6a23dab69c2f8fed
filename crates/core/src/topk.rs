//! Deterministic top-k selection (`argtopk`, paper Algorithm 1).

use snaple_graph::VertexId;

/// Selects the `k` entries with the largest scores.
///
/// Ties break toward the smaller vertex id, making selection fully
/// deterministic — a requirement for the engine's "same result on any
/// cluster size" invariant. The result is sorted by descending score (then
/// ascending id).
///
/// ```
/// use snaple_core::topk::top_k_by_score;
/// use snaple_graph::VertexId;
/// let v = |i| VertexId::new(i);
/// let xs = vec![(v(1), 0.5), (v(2), 0.9), (v(3), 0.5), (v(4), 0.1)];
/// assert_eq!(top_k_by_score(xs, 2), vec![(v(2), 0.9), (v(1), 0.5)]);
/// ```
///
/// The result is allocated at exactly `min(k, items.len())` entries, so
/// its capacity never exceeds `k`: a stored top-k row does not keep the
/// capacity of every candidate it was selected from.
pub fn top_k_by_score(mut items: Vec<(VertexId, f32)>, k: usize) -> Vec<(VertexId, f32)> {
    if k == 0 {
        return Vec::new();
    }
    if items.len() > k {
        items.select_nth_unstable_by(k - 1, |a, b| cmp_desc(*a, *b));
        items.truncate(k);
    }
    items.sort_unstable_by(|a, b| cmp_desc(*a, *b));
    exact(items)
}

/// Selects the `k` entries with the *smallest* scores (used by the `Γmin`
/// sampling policy of the paper's §5.6). Result sorted ascending by score
/// (then ascending id), allocated at exactly `min(k, items.len())` entries
/// like [`top_k_by_score`].
pub fn bottom_k_by_score(mut items: Vec<(VertexId, f32)>, k: usize) -> Vec<(VertexId, f32)> {
    if k == 0 {
        return Vec::new();
    }
    if items.len() > k {
        items.select_nth_unstable_by(k - 1, |a, b| cmp_asc(*a, *b));
        items.truncate(k);
    }
    items.sort_unstable_by(|a, b| cmp_asc(*a, *b));
    exact(items)
}

/// `items` without spare capacity. A fresh exact-size copy rather than
/// `shrink_to_fit`, whose in-place reallocation made the all-vertices pass
/// ≈15 % slower when measured.
fn exact(items: Vec<(VertexId, f32)>) -> Vec<(VertexId, f32)> {
    if items.capacity() == items.len() {
        items
    } else {
        items.as_slice().to_vec()
    }
}

// `f32::total_cmp` rather than `partial_cmp(..).unwrap_or(Equal)`: the
// latter makes the comparator non-transitive whenever a NaN appears
// (NaN == everything, while the non-NaN scores still order), which
// violates `select_nth_unstable_by`'s total-order contract and can
// silently select a wrong top-k set. Under `total_cmp`, NaN orders
// greater than +inf (and -NaN less than -inf), so selection stays a
// total order — deterministic even on poisoned scores.
fn cmp_desc(a: (VertexId, f32), b: (VertexId, f32)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

fn cmp_asc(a: (VertexId, f32), b: (VertexId, f32)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(i: u32) -> VertexId {
        VertexId::new(i)
    }

    #[test]
    fn returns_everything_when_k_is_large() {
        let xs = vec![(v(1), 0.1), (v(2), 0.2)];
        assert_eq!(top_k_by_score(xs.clone(), 5).len(), 2);
        assert_eq!(bottom_k_by_score(xs, 5).len(), 2);
    }

    #[test]
    fn k_zero_is_empty() {
        let xs = vec![(v(1), 0.1)];
        assert!(top_k_by_score(xs.clone(), 0).is_empty());
        assert!(bottom_k_by_score(xs, 0).is_empty());
    }

    #[test]
    fn ties_break_by_smaller_id() {
        let xs = vec![(v(9), 0.5), (v(2), 0.5), (v(5), 0.5)];
        let top = top_k_by_score(xs.clone(), 2);
        assert_eq!(top, vec![(v(2), 0.5), (v(5), 0.5)]);
        let bot = bottom_k_by_score(xs, 2);
        assert_eq!(bot, vec![(v(2), 0.5), (v(5), 0.5)]);
    }

    #[test]
    fn nan_scores_do_not_corrupt_selection() {
        // Regression: with `partial_cmp(..).unwrap_or(Equal)` the
        // comparator is non-transitive in the presence of NaN (NaN ties
        // with everything while real scores still order), so
        // `select_nth_unstable_by` could return a wrong top-k set. Under
        // `total_cmp`, NaN ranks above +inf in descending order and the
        // real scores keep their exact relative order.
        let nan = f32::NAN;
        let xs = vec![
            (v(0), 0.3),
            (v(1), nan),
            (v(2), 0.9),
            (v(3), 0.1),
            (v(4), 0.5),
        ];
        let top = top_k_by_score(xs.clone(), 3);
        // NaN sorts greatest, then the real maxima in order.
        assert_eq!(top[0].0, v(1));
        assert!(top[0].1.is_nan());
        assert_eq!(top[1], (v(2), 0.9));
        assert_eq!(top[2], (v(4), 0.5));

        let bottom = bottom_k_by_score(xs, 3);
        assert_eq!(
            bottom,
            vec![(v(3), 0.1), (v(0), 0.3), (v(4), 0.5)],
            "ascending selection must keep NaN out of the bottom"
        );

        // Many NaNs: selection must stay deterministic and ordered,
        // whatever permutation the scores arrive in.
        let mixed: Vec<(VertexId, f32)> = (0..20)
            .map(|i| (v(i), if i % 3 == 0 { nan } else { i as f32 }))
            .collect();
        let mut reversed = mixed.clone();
        reversed.reverse();
        let a = top_k_by_score(mixed, 7);
        let b = top_k_by_score(reversed, 7);
        assert_eq!(a.len(), 7);
        for ((ia, sa), (ib, sb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert!(sa == sb || (sa.is_nan() && sb.is_nan()));
        }
        // NaNs first (they sort greatest), ids ascending among them.
        assert!(a[0].1.is_nan());
        assert_eq!(a[0].0, v(0));
    }

    #[test]
    fn selected_rows_keep_no_spare_capacity() {
        // Regression: selection used to truncate in place, so a stored
        // row kept the capacity of every candidate it was chosen from.
        let many: Vec<(VertexId, f32)> = (0..1_000).map(|i| (v(i), (i % 37) as f32)).collect();
        for k in [1, 5, 20] {
            let top = top_k_by_score(many.clone(), k);
            assert_eq!(top.len(), k);
            assert!(top.capacity() <= k, "top-{k} capacity {}", top.capacity());
            let bottom = bottom_k_by_score(many.clone(), k);
            assert_eq!(bottom.len(), k);
            assert!(
                bottom.capacity() <= k,
                "bottom-{k} capacity {}",
                bottom.capacity()
            );
        }
        // Fewer candidates than k, but spare capacity: exact size too.
        let mut few = Vec::with_capacity(64);
        few.extend([(v(1), 0.1), (v(2), 0.2), (v(3), 0.3)]);
        assert_eq!(top_k_by_score(few.clone(), 10).capacity(), 3);
        assert_eq!(bottom_k_by_score(few, 10).capacity(), 3);
    }

    #[test]
    fn bottom_k_mirrors_top_k() {
        let xs = vec![(v(1), 1.0), (v(2), 2.0), (v(3), 3.0)];
        assert_eq!(top_k_by_score(xs.clone(), 1)[0].0, v(3));
        assert_eq!(bottom_k_by_score(xs, 1)[0].0, v(1));
    }

    proptest! {
        #[test]
        fn top_k_really_selects_the_maxima(
            scores in proptest::collection::vec(0.0f32..1.0, 0..50),
            k in 0usize..20,
        ) {
            let items: Vec<(VertexId, f32)> = scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (v(i as u32), s))
                .collect();
            let top = top_k_by_score(items.clone(), k);
            prop_assert_eq!(top.len(), k.min(items.len()));
            // Sorted descending.
            prop_assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
            // Every excluded score must be <= the smallest included score.
            if let Some(&(_, cutoff)) = top.last() {
                let included: std::collections::HashSet<u32> =
                    top.iter().map(|(id, _)| id.as_u32()).collect();
                for (id, s) in &items {
                    if !included.contains(&id.as_u32()) {
                        prop_assert!(*s <= cutoff + 1e-6);
                    }
                }
            }
        }

        #[test]
        fn selection_is_permutation_invariant(
            scores in proptest::collection::vec(0.0f32..1.0, 1..30),
            k in 1usize..10,
        ) {
            let items: Vec<(VertexId, f32)> = scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (v(i as u32), s))
                .collect();
            let mut shuffled = items.clone();
            shuffled.reverse();
            prop_assert_eq!(
                top_k_by_score(items, k),
                top_k_by_score(shuffled, k)
            );
        }
    }
}

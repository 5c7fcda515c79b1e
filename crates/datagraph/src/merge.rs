//! Streaming k-way merges of sorted runs, the row kernel of the sparse
//! relation algebra.
//!
//! A k-ary relation union ([`crate::Relation::union_many`]) is a per-row
//! k-way merge instead of `k - 1` successive two-way merges that rewrite
//! the arena each time, and the two-way [`crate::Relation::union_with`]
//! merges its rows through the same two-cursor path. Cursors over the
//! input runs advance in lockstep behind a binary heap of run heads,
//! whole stretches that cannot interleave are **bulk-copied** (a
//! galloping `partition_point` finds how far the winning run may run
//! ahead of the second-best head), and cross-run duplicates collapse
//! inline — `O(N log k)` comparisons worst case, near-`memcpy` when runs
//! barely overlap, one output allocation, no intermediate concat.
//!
//! Inputs must be **sorted ascending and duplicate-free**, the shape of a
//! CSR row. Debug builds assert the invariant.

/// Sift the root of the head heap down. The heap is a min-heap on the
/// cursors' current heads, with the run index as tie-break so equal heads
/// pop in deterministic run order.
#[inline]
fn sift_down<T: Copy + Ord>(heap: &mut [(T, u32)], mut at: usize) {
    loop {
        let l = 2 * at + 1;
        if l >= heap.len() {
            return;
        }
        let r = l + 1;
        let min = if r < heap.len() && heap[r] < heap[l] {
            r
        } else {
            l
        };
        if heap[min] < heap[at] {
            heap.swap(at, min);
            at = min;
        } else {
            return;
        }
    }
}

/// Streaming union of sorted runs into a caller-owned buffer (cleared
/// first): the set union of the runs, computed in one pass with bulk
/// copies for non-interleaving stretches. Per-row callers
/// ([`crate::Relation::union_many`]) reuse one scratch allocation across
/// thousands of short rows. Runs must be sorted ascending and
/// duplicate-free; empty runs are fine.
pub fn merge_sorted_slices_into<T: Copy + Ord>(runs: &[&[T]], out: &mut Vec<T>) {
    out.clear();
    debug_assert!(
        runs.iter().all(|r| r.windows(2).all(|w| w[0] < w[1])),
        "runs must be sorted and duplicate-free"
    );
    // drop empty runs up front so the merge paths can assume non-empty
    // cursors (only pay the rebuild when one actually occurs)
    let filtered: Vec<&[T]>;
    let runs = if runs.iter().any(|r| r.is_empty()) {
        filtered = runs.iter().copied().filter(|r| !r.is_empty()).collect();
        &filtered[..]
    } else {
        runs
    };
    let total: usize = runs.iter().map(|r| r.len()).sum();
    out.reserve(total);
    match runs.len() {
        0 => {}
        1 => out.extend_from_slice(runs[0]),
        2 => merge_two(runs[0], runs[1], out),
        _ => merge_heap(runs, out),
    }
}

/// Two-run galloping merge, **appending** to `out`. Within the
/// strictly-less branches no output duplicate is possible (see the
/// equal-heads case, the only place a value can appear in both runs), so
/// chunks bulk-copy without boundary checks. Also the per-row merge of
/// the sparse two-way [`crate::Relation::union_with`].
pub(crate) fn merge_two<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                // bulk-copy everything in a strictly below b's head
                let cut = i + 1 + a[i + 1..].partition_point(|x| *x < b[j]);
                out.extend_from_slice(&a[i..cut]);
                i = cut;
            }
            std::cmp::Ordering::Greater => {
                let cut = j + 1 + b[j + 1..].partition_point(|x| *x < a[i]);
                out.extend_from_slice(&b[j..cut]);
                j = cut;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// k ≥ 3 runs: a binary min-heap of run heads picks the winner; the
/// winner then **gallops** — bulk-copies every element strictly below the
/// second-best head (the smaller of the root's children) in one
/// `extend_from_slice`. Only the first element of a chunk can equal the
/// previously emitted value (equal heads across runs), so one boundary
/// check per chunk dedups the union.
fn merge_heap<T: Copy + Ord>(runs: &[&[T]], out: &mut Vec<T>) {
    let mut pos: Vec<usize> = vec![0; runs.len()];
    let mut heap: Vec<(T, u32)> = runs
        .iter()
        .enumerate()
        .map(|(i, r)| (r[0], i as u32))
        .collect();
    for at in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, at);
    }
    while let Some(&(_, run)) = heap.first() {
        let r = run as usize;
        let slice = &runs[r][pos[r]..];
        // the second-smallest head is one of the root's children
        let second = match heap.len() {
            1 => None,
            2 => Some(heap[1].0),
            _ => Some(heap[1].0.min(heap[2].0)),
        };
        let cut = match second {
            // at least the head itself always moves (equal heads make the
            // partition point 0)
            Some(h) => slice.partition_point(|x| *x < h).max(1),
            None => slice.len(),
        };
        let skip = usize::from(out.last() == Some(&slice[0]));
        out.extend_from_slice(&slice[skip..cut]);
        pos[r] += cut;
        if pos[r] < runs[r].len() {
            heap[0].0 = runs[r][pos[r]];
        } else {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
        }
        sift_down(&mut heap, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The streaming union of owned runs, through the buffer-reusing core.
    fn merge_sorted_runs<T: Copy + Ord>(runs: &[Vec<T>]) -> Vec<T> {
        let slices: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
        let mut out = Vec::new();
        merge_sorted_slices_into(&slices, &mut out);
        out
    }

    /// The naive union the streaming merge replaces: concatenate every
    /// run, sort, deduplicate. The property-test oracle.
    fn concat_sort_dedup<T: Copy + Ord>(runs: &[Vec<T>]) -> Vec<T> {
        let mut all = runs.concat();
        all.sort();
        all.dedup();
        all
    }

    #[test]
    fn empty_inputs() {
        let none: Vec<Vec<u32>> = vec![];
        assert_eq!(merge_sorted_runs(&none), Vec::<u32>::new());
        let empties: Vec<Vec<u32>> = vec![vec![], vec![], vec![]];
        assert_eq!(merge_sorted_runs(&empties), Vec::<u32>::new());
    }

    #[test]
    fn single_run_passes_through() {
        assert_eq!(merge_sorted_runs(&[vec![1u32, 2, 5]]), vec![1, 2, 5]);
        assert_eq!(merge_sorted_runs(&[Vec::<u32>::new()]), Vec::<u32>::new());
    }

    #[test]
    fn fully_overlapping_runs_collapse() {
        let run = vec![2u64, 4, 6, 8];
        let runs = vec![run.clone(), run.clone(), run.clone(), run.clone()];
        assert_eq!(merge_sorted_runs(&runs), run);
        // pairwise too (the two-cursor path)
        assert_eq!(merge_sorted_runs(&runs[..2]), run);
    }

    #[test]
    fn disjoint_and_interleaved_runs() {
        // two runs (dedicated two-cursor path)
        assert_eq!(
            merge_sorted_runs(&[vec![1u32, 3, 5], vec![2, 4, 6]]),
            vec![1, 2, 3, 4, 5, 6]
        );
        // block-disjoint runs (the gallop bulk-copies each whole)
        assert_eq!(
            merge_sorted_runs(&[vec![7u32, 8, 9], vec![1, 2, 3], vec![4, 5, 6]]),
            (1..=9).collect::<Vec<u32>>()
        );
        // many runs of uneven length, incl. empty (heap path)
        let runs = vec![vec![10u32, 20, 30], vec![], vec![5, 15, 25, 35], vec![20]];
        assert_eq!(merge_sorted_runs(&runs), vec![5, 10, 15, 20, 25, 30, 35]);
    }

    #[test]
    fn works_on_pair_tuples() {
        // the serving shape: (source, target) pairs ordered lexicographically
        let runs = vec![
            vec![(0u32, 1u32), (0, 9), (4, 4)],
            vec![(0, 2), (4, 4), (7, 0)],
            vec![(4, 4), (9, 9)],
        ];
        assert_eq!(
            merge_sorted_runs(&runs),
            vec![(0, 1), (0, 2), (0, 9), (4, 4), (7, 0), (9, 9)]
        );
    }

    #[test]
    fn reusable_buffer_core() {
        let mut buf = vec![99u32]; // stale content must be cleared
        merge_sorted_slices_into(&[&[1u32, 2][..], &[2, 3][..]], &mut buf);
        assert_eq!(buf, vec![1, 2, 3]);
        merge_sorted_slices_into::<u32>(&[], &mut buf);
        assert!(buf.is_empty());
        // empty runs among ≥3 inputs go through the heap path safely
        merge_sorted_slices_into(&[&[1u32][..], &[2][..], &[][..]], &mut buf);
        assert_eq!(buf, vec![1, 2]);
        merge_sorted_slices_into(&[&[][..], &[][..], &[7u32][..], &[][..]], &mut buf);
        assert_eq!(buf, vec![7]);
    }

    proptest! {
        /// The streaming merge and the concat+sort baseline are the same
        /// function on arbitrary sorted duplicate-free runs.
        #[test]
        fn matches_concat_sort_oracle(
            raw in prop::collection::vec(
                prop::collection::vec(0u32..64, 0..24),
                0..7,
            )
        ) {
            let runs: Vec<Vec<u32>> = raw
                .into_iter()
                .map(|mut r| { r.sort(); r.dedup(); r })
                .collect();
            prop_assert_eq!(merge_sorted_runs(&runs), concat_sort_dedup(&runs));
        }
    }
}

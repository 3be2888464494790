//! Physical structural-join algorithms (§1.2.3).
//!
//! [`stack_tree_pairs_columnar`] implements the stack-based merge of
//! Al-Khalifa et al.'s `StackTree` family: given an ancestor-candidate
//! sequence and a descendant-candidate sequence, both sorted by the pre
//! rank of their ID attribute, it produces all `(ancestor_payload,
//! descendant_payload)` match pairs in a single merge pass, maintaining a
//! stack of ancestors whose pre/post interval is still open.
//!
//! `StackTreeDesc` corresponds to emitting the pairs sorted by descendant
//! ID (which is how this function naturally emits them); `StackTreeAnc`
//! output order is obtained by a stable re-sort on the ancestor index —
//! the evaluator picks whichever order downstream operators need.
//! [`nested_loop_pairs`] is the naive O(|L|·|R|) fallback kept for the
//! physical-operator ablation bench and as the tests' oracle.

use obs::{Meter, NoMeter};
use xmltree::StructuralId;

use crate::eval::EvalConfig;
use crate::plan::Axis;
use crate::simd::IdColumns;

/// Does `anc` match `desc` on the given axis?
#[inline]
pub(crate) fn axis_match(anc: StructuralId, desc: StructuralId, axis: Axis) -> bool {
    match axis {
        Axis::Child => anc.is_parent_of(desc),
        Axis::Descendant => anc.is_ancestor_of(desc),
    }
}

/// Pop every stack entry whose pre/post interval closed before `post`:
/// the stack holds candidates with `top.pre` below the incoming node's
/// pre rank, so `top` contains the incoming node iff `top.post > post`
/// (pre and post are separate counters, so the test must compare post
/// against post, not post against pre).
#[inline]
fn pop_closed(stack: &mut Vec<(StructuralId, usize)>, post: u32) {
    while let Some(&(top, _)) = stack.last() {
        if top.post < post {
            stack.pop();
        } else {
            break;
        }
    }
}

/// Compute all structural match pairs between `anc` and `desc` with the
/// StackTree merge over packed [`IdColumns`] streams. Both **must** be
/// sorted by `pre` rank; the payloads are returned in the pairs.
///
/// Output pairs are emitted in descendant order (StackTreeDesc order) —
/// i.e. sorted by `desc` position, with the matching ancestors innermost
/// (deepest) first for each descendant. Two flags of `config` pick the
/// advance machinery; the pairs (and their order) are the same under
/// every combination:
///
/// * **seeking** (`use_skip_index`) — an empty stack with the next
///   ancestor ahead means a prunable descendant run;
///   [`IdColumns::seek_pre_gt`] gallops past it, and the whole
///   descendant tail is dropped once ancestors are exhausted. Off, the
///   merge steps over it one element at a time.
/// * **bulk emit** (`columnar_kernels`) — when exactly one ancestor is
///   open and the next ancestor candidate starts later, every following
///   descendant whose pre rank stays below that next candidate and whose
///   post rank stays inside the open ancestor pairs with it and only it:
///   no push, no pop, no per-element stack scan.
///   [`IdColumns::leading_run`] counts the run a block at a time; the
///   `/` axis adds a depth-column check per element but still no stack
///   traffic.
pub fn stack_tree_pairs_columnar(
    anc: &IdColumns,
    desc: &IdColumns,
    axis: Axis,
    config: EvalConfig,
) -> Vec<(usize, usize)> {
    stack_tree_pairs_columnar_metered(anc, desc, axis, config, &mut NoMeter)
}

/// [`stack_tree_pairs_columnar`] with execution counters: axis tests on
/// the stack-scan loop count as comparisons, the open-ancestor stack's
/// high-water mark is recorded, seeks report jumped-over elements and
/// cleared fence blocks, and the vector kernels report
/// `batches_scanned` / `vector_compares`. With [`NoMeter`] this
/// monomorphizes to the unmetered kernel.
pub fn stack_tree_pairs_columnar_metered<M: Meter>(
    anc: &IdColumns,
    desc: &IdColumns,
    axis: Axis,
    config: EvalConfig,
    meter: &mut M,
) -> Vec<(usize, usize)> {
    // Most workloads pair each descendant with O(1) ancestors, so the
    // smaller input is a good first-allocation guess for the output.
    let mut out = Vec::with_capacity(anc.len().min(desc.len()));
    let mut stack: Vec<(StructuralId, usize)> = Vec::with_capacity(16);
    let mut ai = 0;
    let mut di = 0;
    while di < desc.len() {
        let dpre = desc.pre()[di];
        if stack.is_empty() && !(ai < anc.len() && anc.pre()[ai] <= dpre) {
            // a descendant that arrives with the stack empty can only
            // match ancestors still ahead, all with larger pre
            if !config.use_skip_index {
                di += 1;
                continue;
            }
            // skipped counts exclude the element being inspected (it was
            // read to decide the seek) — the same convention as the twig
            // kernel, so `elements_skipped` is comparable across kernels
            if ai >= anc.len() {
                meter.skipped((desc.len() - di - 1) as u64);
                break;
            }
            // anc.pre()[ai] > dpre: seek to the first possible
            // descendant of that candidate (first pre above it —
            // inclusive bound, a node is not its own ancestor)
            let s = desc.seek_pre_gt(di, anc.pre()[ai], meter);
            meter.skipped((s - di - 1) as u64);
            di = s;
            continue;
        }
        // push all ancestors that start before this descendant, closing
        // the stack entries that cannot contain them
        while ai < anc.len() && anc.pre()[ai] <= dpre {
            let a = anc.sid(ai);
            pop_closed(&mut stack, a.post);
            stack.push((a, anc.payload(ai)));
            meter.stack_depth(stack.len());
            ai += 1;
        }
        // close stack entries that are not ancestors of `d`
        let d = desc.sid(di);
        pop_closed(&mut stack, d.post);
        if config.columnar_kernels && stack.len() == 1 && stack[0].0.pre < d.pre {
            // single open ancestor `a`, next candidate strictly ahead:
            // the whole run below both bounds pairs with `a` alone. The
            // run is non-empty — d itself qualifies (pre > a.pre by the
            // guard; post < a.post or pop_closed would have popped `a`;
            // pre < next candidate's pre since the push loop drained
            // every candidate at or below d.pre).
            let (a, apay) = stack[0];
            let next_pre = anc.pre().get(ai).copied().unwrap_or(u32::MAX);
            let run = desc.leading_run(di, next_pre, a.post, meter);
            debug_assert!(run > 0);
            match axis {
                Axis::Descendant => {
                    for i in di..di + run {
                        out.push((apay, desc.payload(i)));
                    }
                }
                Axis::Child => {
                    let want = a.depth + 1;
                    for i in di..di + run {
                        if desc.depth()[i] == want {
                            out.push((apay, desc.payload(i)));
                        }
                    }
                }
            }
            meter.comparisons(run as u64);
            di += run;
            continue;
        }
        // the stack is now exactly the ancestor chain of `d` among the
        // candidates; emit matches (all of them for `//`, the depth-adjacent
        // ones for `/`)
        meter.comparisons(stack.len() as u64);
        for &(a, apay) in stack.iter().rev() {
            if axis_match(a, d, axis) {
                out.push((apay, desc.payload(di)));
            }
        }
        di += 1;
    }
    out
}

/// Naive nested-loop structural join; quadratic, order-insensitive. Kept
/// as the baseline for the StackTree ablation (DESIGN.md §choices).
pub fn nested_loop_pairs(
    anc: &[(StructuralId, usize)],
    desc: &[(StructuralId, usize)],
    axis: Axis,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for &(d, dpay) in desc {
        for &(a, apay) in anc {
            if axis_match(a, d, axis) {
                out.push((apay, dpay));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::generate;

    /// Collect `(sid, index)` pairs of all elements with a label, sorted by
    /// pre (document order gives that for free).
    fn ids(doc: &xmltree::Document, label: &str) -> Vec<(StructuralId, usize)> {
        doc.nodes_with_label(label, xmltree::NodeKind::Element)
            .enumerate()
            .map(|(i, n)| (doc.structural_id(n), i))
            .collect()
    }

    /// Every `{seek, bulk}` flag combination of the kernel.
    fn flag_grid() -> Vec<EvalConfig> {
        let mut out = Vec::new();
        for use_skip_index in [false, true] {
            for columnar_kernels in [false, true] {
                out.push(EvalConfig {
                    use_skip_index,
                    columnar_kernels,
                    ..EvalConfig::default()
                });
            }
        }
        out
    }

    /// The kernel under the default flags and block size.
    fn pairs(
        anc: &[(StructuralId, usize)],
        desc: &[(StructuralId, usize)],
        axis: Axis,
    ) -> Vec<(usize, usize)> {
        let ac = IdColumns::from_pairs(anc, crate::simd::DEFAULT_BLOCK);
        let dc = IdColumns::from_pairs(desc, crate::simd::DEFAULT_BLOCK);
        stack_tree_pairs_columnar(&ac, &dc, axis, EvalConfig::default())
    }

    /// The kernel must reproduce the nested-loop oracle under every flag
    /// combination and block layout, in descendant order.
    fn check(
        anc: &[(StructuralId, usize)],
        desc: &[(StructuralId, usize)],
        axis: Axis,
        what: &str,
    ) {
        let mut want = nested_loop_pairs(anc, desc, axis);
        want.sort_unstable();
        for block in [1, 2, 13, 64] {
            let ac = IdColumns::from_pairs(anc, block);
            let dc = IdColumns::from_pairs(desc, block);
            let mut first: Option<Vec<(usize, usize)>> = None;
            for config in flag_grid() {
                let got = stack_tree_pairs_columnar(&ac, &dc, axis, config);
                let flags = (config.use_skip_index, config.columnar_kernels);
                // emission order is part of the contract, not just the set
                match &first {
                    Some(f) => assert_eq!(&got, f, "{what} block={block} flags={flags:?}"),
                    None => first = Some(got.clone()),
                }
                let mut sorted = got;
                sorted.sort_unstable();
                assert_eq!(sorted, want, "{what} block={block} flags={flags:?}");
            }
        }
    }

    #[test]
    fn matches_nested_loop_on_xmark() {
        let doc = generate::xmark(4, 11);
        for (anc_l, desc_l) in [
            ("item", "keyword"),
            ("parlist", "listitem"),
            ("listitem", "parlist"),
            ("parlist", "parlist"),
            ("description", "bold"),
            ("bold", "keyword"),
            ("site", "item"),
            ("mail", "keyword"),
        ] {
            let anc = ids(&doc, anc_l);
            let desc = ids(&doc, desc_l);
            for axis in [Axis::Child, Axis::Descendant] {
                check(&anc, &desc, axis, &format!("{anc_l} {axis:?} {desc_l}"));
            }
        }
    }

    #[test]
    fn recursive_ancestors_all_found() {
        // parlist can nest inside listitem inside parlist: a deep keyword
        // has several parlist ancestors, all of which must be paired.
        let doc = generate::xmark(3, 7);
        let anc = ids(&doc, "parlist");
        let desc = ids(&doc, "keyword");
        let pairs = pairs(&anc, &desc, Axis::Descendant);
        // at least one keyword has ≥ 2 parlist ancestors
        let mut per_desc = std::collections::HashMap::new();
        for (_, d) in &pairs {
            *per_desc.entry(*d).or_insert(0) += 1;
        }
        assert!(
            per_desc.values().any(|&c| c >= 2),
            "recursion not exercised"
        );
    }

    #[test]
    fn output_in_descendant_order() {
        let doc = generate::xmark(3, 5);
        let anc = ids(&doc, "item");
        let desc = ids(&doc, "keyword");
        let pairs = pairs(&anc, &desc, Axis::Descendant);
        assert!(pairs.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn metered_variant_counts_and_matches_unmetered() {
        let doc = generate::xmark(3, 7);
        let ac = IdColumns::from_pairs(&ids(&doc, "parlist"), 64);
        let dc = IdColumns::from_pairs(&ids(&doc, "keyword"), 64);
        for config in flag_grid() {
            let mut metrics = obs::ExecMetrics::default();
            let metered =
                stack_tree_pairs_columnar_metered(&ac, &dc, Axis::Descendant, config, &mut metrics);
            assert_eq!(
                metered,
                stack_tree_pairs_columnar(&ac, &dc, Axis::Descendant, config)
            );
            // parlist recursion guarantees a stack deeper than one and at
            // least one comparison per emitted pair
            assert!(metrics.stack_high_water >= 2, "{metrics:?}");
            assert!(metrics.comparisons >= metered.len() as u64);
        }
    }

    #[test]
    fn seeking_skips_and_bulk_batches() {
        let doc = generate::xmark(4, 11);
        // sparse ancestors (mails) over a dense descendant stream: the
        // keywords under item descriptions between consecutive mail
        // subtrees are seeked over wholesale
        let ac = IdColumns::from_pairs(&ids(&doc, "mail"), 64);
        let dc = IdColumns::from_pairs(&ids(&doc, "keyword"), 64);
        for config in flag_grid() {
            let mut m = obs::ExecMetrics::default();
            stack_tree_pairs_columnar_metered(&ac, &dc, Axis::Descendant, config, &mut m);
            assert_eq!(m.elements_skipped > 0, config.use_skip_index, "{m:?}");
        }
        // dense pairing under one ancestor goes through the bulk-emit path
        let ac = IdColumns::from_pairs(&ids(&doc, "site"), 64);
        let dc = IdColumns::from_pairs(&ids(&doc, "item"), 64);
        for config in flag_grid() {
            let mut m = obs::ExecMetrics::default();
            stack_tree_pairs_columnar_metered(&ac, &dc, Axis::Descendant, config, &mut m);
            assert_eq!(m.batches_scanned > 0, config.columnar_kernels, "{m:?}");
        }
    }

    #[test]
    fn duplicate_descendant_ids_match_nested_loop() {
        // join inputs can repeat a node ID across tuples (a view column
        // joined on the same node), so seeks and bulk runs must stay
        // exact on non-strictly sorted streams — including duplicates
        // straddling fence-block boundaries
        let doc = generate::xmark(3, 11);
        let anc = ids(&doc, "item");
        let mut desc: Vec<(StructuralId, usize)> = Vec::new();
        for (i, (sid, _)) in ids(&doc, "keyword").into_iter().enumerate() {
            for _ in 0..=(i % 3) {
                desc.push((sid, desc.len()));
            }
        }
        for axis in [Axis::Child, Axis::Descendant] {
            check(&anc, &desc, axis, &format!("item {axis:?} keyword×dup"));
        }
    }

    #[test]
    fn empty_inputs() {
        let one = vec![(StructuralId::new(0, 10, 1), 0)];
        for axis in [Axis::Child, Axis::Descendant] {
            check(&[], &[], axis, "empty");
            check(&one, &[], axis, "no descendants");
            check(&[], &one, axis, "no ancestors");
        }
    }
}

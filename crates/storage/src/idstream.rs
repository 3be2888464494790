//! Columnar ID-stream index: per `(label, kind)` sorted
//! [`StructuralId`] columns, built in one pass over a document and
//! cached in a [`Catalog`] as scannable `ids_<label>` relations.
//!
//! The holistic twig operator (`algebra::twig`) consumes one pre-sorted
//! ID stream per pattern node. Before this index, every pattern node
//! re-ran a `nodes_with_label` scan over the whole document; the index
//! pays that scan once per document and serves each stream as a slice.
//! Document order *is* pre order, so the columns come out sorted for
//! free and the catalog entries can declare `OrderSpec::by("ID")` —
//! letting the evaluator skip its defensive re-sort.
//!
//! One access-method refinement rides on top of the plain columns:
//! [`IdStreamIndex::build_with_summary`] additionally splits each
//! column into per-summary-path partitions (φ of Definition 4.2.1), and
//! [`IdStreamIndex::pruned_stream`] reassembles, in pre order, only the
//! partitions a query pattern can actually touch — the partition
//! selection of `summary::matching`. The join kernels pack their inputs
//! into `algebra::IdColumns` themselves, once per join build side.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use algebra::{OrderSpec, Relation, Schema, Tuple, TupleBatch, Value};
use summary::{Summary, SummaryNodeId};
use xmltree::{Document, NodeKind, StructuralId};

use algebra::Catalog;

/// Keep-fraction above which [`IdStreamIndex::pruned_stream`] serves the
/// whole column instead of merging partitions: when the summary keeps
/// more than 3/4 of a column, the k-way heap merge costs more than the
/// scan it saves.
const KEEP_FALLBACK_NUM: usize = 3;
const KEEP_FALLBACK_DEN: usize = 4;

/// One summary-path slice of a column: the IDs (in document order) of
/// exactly the nodes classified to `path`.
#[derive(Debug, Clone)]
pub struct Partition {
    pub path: SummaryNodeId,
    pub ids: Vec<StructuralId>,
}

/// A pruned scan's result: the merged IDs plus how many of the column's
/// partitions were opened to produce them — the `partitions_opened /
/// partitions_total` figures of the execution metrics.
#[derive(Debug, Clone)]
pub struct PrunedStream {
    /// Pre-sorted merge of the selected partitions.
    pub ids: Vec<StructuralId>,
    pub opened: usize,
    pub total: usize,
}

#[derive(Debug, Clone)]
struct Column {
    ids: Vec<StructuralId>,
    /// Summary-path partitions, sorted by path id; empty when the index
    /// was built without a summary.
    partitions: Vec<Partition>,
}

/// The index: one sorted `Vec<StructuralId>` column per `(label, kind)`,
/// each with (optionally) its summary-path partitions.
#[derive(Debug, Default, Clone)]
pub struct IdStreamIndex {
    columns: HashMap<(String, NodeKind), Column>,
}

impl IdStreamIndex {
    /// Build all columns in a single document pass (document order is
    /// pre order, so every column is born sorted).
    pub fn build(doc: &Document) -> IdStreamIndex {
        IdStreamIndex::build_inner(doc, None)
    }

    /// [`IdStreamIndex::build`] plus per-summary-path partitioning of
    /// every column, using the φ classification of `summary`. A document
    /// that does not conform to the summary gets unpartitioned columns
    /// (pruned scans then degrade to full scans, never to wrong ones).
    pub fn build_with_summary(doc: &Document, summary: &Summary) -> IdStreamIndex {
        IdStreamIndex::build_inner(doc, summary.classify(doc).as_deref())
    }

    fn build_inner(doc: &Document, phi: Option<&[SummaryNodeId]>) -> IdStreamIndex {
        let span = tracing::debug_span!(target: "uload::storage", "idstream_build");
        let _g = span.enter();
        let mut ids: HashMap<(String, NodeKind), Vec<StructuralId>> = HashMap::new();
        let mut parts: HashMap<(String, NodeKind), HashMap<SummaryNodeId, Vec<StructuralId>>> =
            HashMap::new();
        for n in doc.all_nodes() {
            let kind = doc.kind(n);
            if kind == NodeKind::Text {
                continue; // text nodes carry no label worth indexing
            }
            let key = (doc.label(n).to_string(), kind);
            let sid = doc.structural_id(n);
            ids.entry(key.clone()).or_default().push(sid);
            if let Some(phi) = phi {
                parts
                    .entry(key)
                    .or_default()
                    .entry(phi[n.index()])
                    .or_default()
                    .push(sid);
            }
        }
        let columns = ids
            .into_iter()
            .map(|(key, ids)| {
                let mut partitions: Vec<Partition> = parts
                    .remove(&key)
                    .map(|by_path| {
                        by_path
                            .into_iter()
                            .map(|(path, ids)| Partition { path, ids })
                            .collect()
                    })
                    .unwrap_or_default();
                partitions.sort_by_key(|p| p.path);
                (key, Column { ids, partitions })
            })
            .collect();
        let idx = IdStreamIndex { columns };
        tracing::debug!(
            target: "uload::storage",
            "built ID-stream index: {} columns, {} ids, partitioned: {}",
            idx.len(),
            idx.total_ids(),
            phi.is_some()
        );
        idx
    }

    fn column(&self, label: &str, kind: NodeKind) -> Option<&Column> {
        self.columns.get(&(label.to_string(), kind))
    }

    /// The sorted ID column for a `(label, kind)` pair; empty when the
    /// document has no such nodes.
    pub fn stream(&self, label: &str, kind: NodeKind) -> &[StructuralId] {
        self.column(label, kind)
            .map(|c| c.ids.as_slice())
            .unwrap_or(&[])
    }

    /// Shorthand for element streams (the common twig case).
    pub fn elements(&self, label: &str) -> &[StructuralId] {
        self.stream(label, NodeKind::Element)
    }

    /// The column's summary-path partitions (empty unless built with
    /// [`IdStreamIndex::build_with_summary`]).
    pub fn partitions(&self, label: &str, kind: NodeKind) -> &[Partition] {
        self.column(label, kind)
            .map(|c| c.partitions.as_slice())
            .unwrap_or(&[])
    }

    /// Reassemble, in pre order, only the partitions whose summary path
    /// is in `allowed` (which must be sorted — `summary::matching`
    /// returns its candidate sets sorted). Without partitions the whole
    /// column is returned and `opened == total == 0` signals that no
    /// pruning was available.
    ///
    /// When the selected partitions hold more than
    /// `KEEP_FALLBACK_NUM/KEEP_FALLBACK_DEN` of the column, the scan
    /// serves the whole column instead: the merge would cost more than
    /// the few elements it removes. `opened == total` reports the
    /// declined pruning honestly.
    pub fn pruned_stream(
        &self,
        label: &str,
        kind: NodeKind,
        allowed: &[SummaryNodeId],
    ) -> PrunedStream {
        debug_assert!(allowed.windows(2).all(|w| w[0] <= w[1]));
        let Some(c) = self.column(label, kind) else {
            return PrunedStream {
                ids: Vec::new(),
                opened: 0,
                total: 0,
            };
        };
        if c.partitions.is_empty() {
            return PrunedStream {
                ids: c.ids.clone(),
                opened: 0,
                total: 0,
            };
        }
        let selected: Vec<&Partition> = c
            .partitions
            .iter()
            .filter(|p| allowed.binary_search(&p.path).is_ok())
            .collect();
        let kept: usize = selected.iter().map(|p| p.ids.len()).sum();
        if kept * KEEP_FALLBACK_DEN > c.ids.len() * KEEP_FALLBACK_NUM {
            return PrunedStream {
                ids: c.ids.clone(),
                opened: c.partitions.len(),
                total: c.partitions.len(),
            };
        }
        // k-way merge by pre rank via a min-heap of partition heads;
        // partitions are individually sorted, so each element costs
        // O(log k) instead of a linear scan over all open cursors
        let mut ids = Vec::with_capacity(kept);
        let mut cursors = vec![0usize; selected.len()];
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = selected
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.ids.is_empty())
            .map(|(i, p)| Reverse((p.ids[0].pre, i)))
            .collect();
        while let Some(Reverse((_, i))) = heap.pop() {
            ids.push(selected[i].ids[cursors[i]]);
            cursors[i] += 1;
            if let Some(next) = selected[i].ids.get(cursors[i]) {
                heap.push(Reverse((next.pre, i)));
            }
        }
        PrunedStream {
            ids,
            opened: selected.len(),
            total: c.partitions.len(),
        }
    }

    /// Number of distinct `(label, kind)` columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Total IDs stored across all columns.
    pub fn total_ids(&self) -> usize {
        self.columns.values().map(|c| c.ids.len()).sum()
    }

    /// Borrowed view of a column as contiguous ID slices of at most
    /// `batch_size` elements — the zero-copy basis of
    /// [`IdStreamIndex::scan_batches`], and the right entry point for
    /// callers that work on raw IDs.
    pub fn scan_slices<'a>(
        &'a self,
        label: &str,
        kind: NodeKind,
        batch_size: usize,
    ) -> impl Iterator<Item = &'a [StructuralId]> + 'a {
        self.stream(label, kind).chunks(batch_size.max(1))
    }

    /// Stream a `(label, kind)` column as single-attribute `(ID)`
    /// [`TupleBatch`]es of at most `batch_size` rows each — the batched
    /// scan the pipelined executor pulls instead of materializing the
    /// whole `ids_<label>` relation up front. The column itself is never
    /// copied: each slice from [`IdStreamIndex::scan_slices`] is turned
    /// into tuples only at this cursor boundary, one batch at a time.
    /// Batches preserve document order (each one's rows are ID-sorted
    /// and contiguous).
    pub fn scan_batches<'a>(
        &'a self,
        label: &str,
        kind: NodeKind,
        batch_size: usize,
    ) -> impl Iterator<Item = TupleBatch> + 'a {
        self.scan_slices(label, kind, batch_size).map(|chunk| {
            TupleBatch::new(
                chunk
                    .iter()
                    .map(|&sid| Tuple::new(vec![Value::Id(sid)]))
                    .collect(),
            )
        })
    }

    /// Catalog name of a label's element column (attributes get an `@`).
    pub fn relation_of(label: &str) -> String {
        format!("ids_{label}")
    }

    /// Cache every column in the catalog as a single-attribute `(ID)`
    /// relation ordered by ID, so plans can scan streams by name and the
    /// evaluator sees them as pre-sorted.
    pub fn register(&self, catalog: &mut Catalog) {
        for ((label, kind), col) in &self.columns {
            let name = match kind {
                NodeKind::Attribute => format!("ids_@{label}"),
                _ => Self::relation_of(label),
            };
            let tuples = col
                .ids
                .iter()
                .map(|&sid| Tuple::new(vec![Value::Id(sid)]))
                .collect();
            catalog.insert_ordered(
                name,
                Relation::new(Schema::atoms(&["ID"]), tuples),
                OrderSpec::by("ID"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::generate;

    #[test]
    fn columns_match_label_scans() {
        let doc = generate::xmark(3, 11);
        let idx = IdStreamIndex::build(&doc);
        for label in ["item", "keyword", "parlist", "listitem", "name"] {
            let want: Vec<StructuralId> = doc
                .nodes_with_label(label, NodeKind::Element)
                .map(|n| doc.structural_id(n))
                .collect();
            assert_eq!(idx.elements(label), want.as_slice(), "{label}");
            assert!(idx.elements(label).windows(2).all(|w| w[0].pre < w[1].pre));
        }
        assert!(idx.elements("no_such_label").is_empty());
        assert!(!idx.is_empty());
        assert!(idx.total_ids() > 0);
    }

    #[test]
    fn attribute_columns_are_separate() {
        let doc = generate::bib_sample();
        let idx = IdStreamIndex::build(&doc);
        let attrs = idx.stream("year", NodeKind::Attribute);
        assert!(!attrs.is_empty(), "bib sample has @year");
        assert!(idx.elements("year").is_empty(), "no year *elements*");
    }

    #[test]
    fn batched_scans_chunk_without_loss_or_reorder() {
        let doc = generate::xmark(3, 11);
        let idx = IdStreamIndex::build(&doc);
        let whole = idx.elements("item");
        assert!(whole.len() > 3);
        for bs in [1, 2, whole.len() - 1, whole.len(), whole.len() + 1] {
            let batches: Vec<TupleBatch> =
                idx.scan_batches("item", NodeKind::Element, bs).collect();
            assert!(batches.iter().all(|b| b.len() <= bs && !b.is_empty()));
            assert_eq!(batches.len(), whole.len().div_ceil(bs), "batch_size {bs}");
            let flat: Vec<StructuralId> = batches
                .iter()
                .flat_map(|b| b.tuples.iter().map(|t| t.get(0).as_id().unwrap()))
                .collect();
            assert_eq!(flat, whole, "batch_size {bs}");
        }
        // degenerate batch size clamps to 1 instead of spinning forever
        let n = idx.scan_batches("item", NodeKind::Element, 0).count();
        assert_eq!(n, whole.len());
        assert_eq!(idx.scan_batches("nope", NodeKind::Element, 8).count(), 0);
    }

    #[test]
    fn scan_slices_borrow_the_column() {
        let doc = generate::xmark(2, 5);
        let idx = IdStreamIndex::build(&doc);
        let whole = idx.elements("item");
        let slices: Vec<&[StructuralId]> = idx.scan_slices("item", NodeKind::Element, 4).collect();
        let flat: Vec<StructuralId> = slices.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(flat, whole);
        // slices alias the column storage — no copies
        assert_eq!(slices[0].as_ptr(), whole.as_ptr());
    }

    #[test]
    fn register_caches_streams_in_catalog() {
        let doc = generate::xmark(2, 5);
        let idx = IdStreamIndex::build(&doc);
        let mut cat = Catalog::new();
        idx.register(&mut cat);
        let rel = cat.get(&IdStreamIndex::relation_of("item")).unwrap();
        assert_eq!(rel.len(), idx.elements("item").len());
        assert_eq!(rel.schema, Schema::atoms(&["ID"]));
        assert_eq!(
            rel.tuples[0].get(0).as_id().unwrap(),
            idx.elements("item")[0]
        );
    }

    #[test]
    fn summary_partitions_cover_each_column_exactly() {
        let doc = generate::xmark(2, 9);
        let s = Summary::of_document(&doc);
        let idx = IdStreamIndex::build_with_summary(&doc, &s);
        for label in ["keyword", "item", "text"] {
            let parts = idx.partitions(label, NodeKind::Element);
            assert!(!parts.is_empty(), "{label} must be partitioned");
            let total: usize = parts.iter().map(|p| p.ids.len()).sum();
            assert_eq!(total, idx.elements(label).len(), "{label}");
            // partitions hold the φ classification: every id's label path
            // is the partition's summary path
            for p in parts {
                assert_eq!(s.label(p.path), label);
            }
        }
        // unsummarized build has no partitions
        let plain = IdStreamIndex::build(&doc);
        assert!(plain.partitions("keyword", NodeKind::Element).is_empty());
    }

    #[test]
    fn pruned_streams_merge_selected_partitions_in_pre_order() {
        let doc = generate::xmark(2, 9);
        let s = Summary::of_document(&doc);
        let idx = IdStreamIndex::build_with_summary(&doc, &s);
        let parts = idx.partitions("keyword", NodeKind::Element);
        assert!(parts.len() >= 2, "need several keyword paths");
        // all partitions selected ⇒ keep-fraction fallback: the full
        // column, opened == total
        let all: Vec<SummaryNodeId> = parts.iter().map(|p| p.path).collect();
        let full = idx.pruned_stream("keyword", NodeKind::Element, &all);
        assert_eq!(full.ids, idx.elements("keyword"));
        assert_eq!(full.opened, full.total);
        // a single small partition (under the keep-fraction threshold)
        // comes back verbatim, still pre-sorted
        let small = parts.iter().min_by_key(|p| p.ids.len()).unwrap();
        assert!(small.ids.len() * 4 <= idx.elements("keyword").len() * 3);
        let one = idx.pruned_stream("keyword", NodeKind::Element, &[small.path]);
        assert_eq!(one.ids, small.ids);
        assert_eq!(one.opened, 1);
        assert!(one.ids.windows(2).all(|w| w[0].pre < w[1].pre));
        // nothing selected → empty stream, zero opened
        let none = idx.pruned_stream("keyword", NodeKind::Element, &[]);
        assert!(none.ids.is_empty());
        assert_eq!(none.opened, 0);
        assert_eq!(none.total, parts.len());
        // unpartitioned index: full column, opened == total == 0
        let plain = IdStreamIndex::build(&doc);
        let fallback = plain.pruned_stream("keyword", NodeKind::Element, &[]);
        assert_eq!(fallback.ids, plain.elements("keyword"));
        assert_eq!((fallback.opened, fallback.total), (0, 0));
    }

    #[test]
    fn multi_partition_merges_keep_pre_order() {
        // a genuinely pruned merge of several partitions must hold
        // exactly the column's elements on the chosen paths, in pre order
        let doc = generate::xmark(3, 11);
        let s = Summary::of_document(&doc);
        let idx = IdStreamIndex::build_with_summary(&doc, &s);
        let parts = idx.partitions("keyword", NodeKind::Element);
        let mut chosen: Vec<SummaryNodeId> = Vec::new();
        let mut kept = 0usize;
        let limit = idx.elements("keyword").len() / 2;
        for p in parts {
            if kept + p.ids.len() <= limit {
                chosen.push(p.path);
                kept += p.ids.len();
            }
        }
        chosen.sort_unstable();
        assert!(chosen.len() >= 2, "need a multi-partition selection");
        let pruned = idx.pruned_stream("keyword", NodeKind::Element, &chosen);
        assert_eq!(pruned.opened, chosen.len());
        let phi = s.classify(&doc).expect("document conforms to its summary");
        let want: Vec<StructuralId> = doc
            .nodes_with_label("keyword", NodeKind::Element)
            .filter(|n| chosen.binary_search(&phi[n.index()]).is_ok())
            .map(|n| doc.structural_id(n))
            .collect();
        assert_eq!(pruned.ids, want);
    }
}

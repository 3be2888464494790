//! Property-based tests over randomly generated documents and patterns:
//! the invariants the paper's theory promises, checked on concrete data.

use proptest::prelude::*;
use summary::Summary;
use uload_bench::pattern_gen::{self, GenConfig};
use xmltree::{generate, DocumentBuilder, NodeKind};

/// A strategy producing small random XML documents: a sequence of
/// open/close/leaf operations folded into a builder.
fn arb_document() -> impl Strategy<Value = xmltree::Document> {
    prop::collection::vec((0usize..6, 0usize..3), 1..40).prop_map(|ops| {
        let labels = ["a", "b", "c", "d", "item", "name"];
        let mut b = DocumentBuilder::new();
        b.open_element("root");
        let mut depth = 1usize;
        for (l, action) in ops {
            match action {
                0 | 1 => {
                    b.open_element(labels[l]);
                    depth += 1;
                }
                _ if depth > 1 => {
                    b.close_element();
                    depth -= 1;
                }
                _ => {
                    b.leaf_element(labels[l], "v");
                }
            }
        }
        while depth > 0 {
            b.close_element();
            depth -= 1;
        }
        b.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (pre, post, depth) predicates agree with parent-chain ground truth
    /// on arbitrary documents.
    #[test]
    fn structural_ids_sound(doc in arb_document()) {
        for n in doc.all_nodes() {
            for m in doc.all_nodes() {
                let (sn, sm) = (doc.structural_id(n), doc.structural_id(m));
                let mut anc = doc.parent(m);
                let mut truth = false;
                while let Some(a) = anc {
                    if a == n { truth = true; break; }
                    anc = doc.parent(a);
                }
                prop_assert_eq!(sn.is_ancestor_of(sm), truth);
                // Dewey IDs agree with the pre/post plane
                let (dn, dm) = (doc.dewey_id(n), doc.dewey_id(m));
                prop_assert_eq!(dn.is_ancestor_of(&dm), truth);
            }
        }
    }

    /// Serialize→parse is the identity on structure.
    #[test]
    fn parser_roundtrip(doc in arb_document()) {
        let text = doc.content(doc.root());
        let doc2 = xmltree::parse_document(&text).unwrap();
        prop_assert_eq!(doc.len(), doc2.len());
        for (a, b) in doc.all_nodes().zip(doc2.all_nodes()) {
            prop_assert_eq!(doc.label(a), doc2.label(b));
            prop_assert_eq!(doc.kind(a), doc2.kind(b));
        }
    }

    /// The summary has one node per distinct rooted path, and every
    /// document node classifies onto a summary node with the same path.
    #[test]
    fn summary_classifies_every_node(doc in arb_document()) {
        let s = Summary::of_document(&doc);
        let phi = s.classify(&doc).unwrap();
        let mut distinct = std::collections::HashSet::new();
        for n in doc.all_nodes() {
            prop_assert_eq!(s.path_of(phi[n.index()]), doc.label_path(n));
            distinct.insert(doc.label_path(n));
        }
        prop_assert_eq!(distinct.len(), s.len());
        prop_assert!(s.conforms(&doc));
    }

    /// Strong (`+`) edges really guarantee a child on that path.
    #[test]
    fn strong_edges_hold(doc in arb_document()) {
        let s = Summary::of_document(&doc);
        let phi = s.classify(&doc).unwrap();
        for sn in s.all_nodes() {
            if s.parent(sn).is_none() || !s.edge_card(sn).is_strong() {
                continue;
            }
            let parent = s.parent(sn).unwrap();
            for n in doc.all_nodes() {
                if phi[n.index()] != parent || doc.kind(n) == NodeKind::Text {
                    continue;
                }
                let has = doc.children(n).iter().any(|&c| phi[c.index()] == sn);
                prop_assert!(has, "strong edge violated at {}", s.path_of(sn));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Containment reflexivity and soundness for generated satisfiable
    /// patterns over the XMark summary.
    #[test]
    fn containment_reflexive_and_sound(seed in 0u64..500) {
        let doc = generate::xmark(2, 17);
        let s = Summary::of_document(&doc);
        let cfg = GenConfig::xmark(5, 1);
        let pats = pattern_gen::generate_set(&s, &cfg, 3, seed);
        for p in &pats {
            prop_assert!(uload::contain(p, p, &s, &Default::default()).contained, "reflexivity:\n{}", p);
        }
        // pairwise soundness on the concrete document
        for p in &pats {
            for q in &pats {
                if uload::contain(p, q, &s, &Default::default()).contained {
                    let rp = xam_core::embed::evaluate_embed(p, &doc);
                    let rq = xam_core::embed::evaluate_embed(q, &doc);
                    prop_assert!(rp.is_subset(&rq), "unsound:\n{}\n⊆?\n{}", p, q);
                }
            }
        }
    }

    /// Minimization preserves S-equivalence and never grows the pattern.
    #[test]
    fn minimization_sound(seed in 0u64..200) {
        let doc = generate::xmark(2, 23);
        let s = Summary::of_document(&doc);
        let cfg = GenConfig::xmark(6, 1).with_optional(0.0);
        let pats = pattern_gen::generate_set(&s, &cfg, 2, seed);
        for p in &pats {
            for m in containment::minimize_by_contraction(p, &s) {
                prop_assert!(m.pattern_size() <= p.pattern_size());
                prop_assert!(containment::equivalent(&m, p, &s));
            }
        }
    }
}

/// A random `/`+`//` tree pattern over a generated XMark or DBLP
/// document: spec entry `k` picks node `k`'s label from a pool of ten,
/// hangs it off a random earlier node, and picks its axis.
fn random_twig(
    spec: &[(usize, usize, usize)],
    dblp: bool,
) -> (xmltree::Document, uload_bench::experiments::TwigWorkload) {
    let doc = if dblp {
        generate::dblp(6, 7)
    } else {
        generate::xmark(3, 7)
    };
    let pool: [&'static str; 10] = if dblp {
        [
            "dblp",
            "article",
            "inproceedings",
            "book",
            "author",
            "title",
            "year",
            "journal",
            "pages",
            "url",
        ]
    } else {
        [
            "site",
            "regions",
            "item",
            "name",
            "description",
            "parlist",
            "listitem",
            "text",
            "keyword",
            "mailbox",
        ]
    };
    let mut w = uload_bench::experiments::TwigWorkload {
        name: "prop".into(),
        labels: Vec::new(),
        parents: Vec::new(),
        axes: Vec::new(),
    };
    for (k, &(label, parent, child)) in spec.iter().enumerate() {
        w.labels.push(pool[label]);
        w.parents.push(if k == 0 { 0 } else { parent % k });
        w.axes.push(if child == 1 {
            algebra::Axis::Child
        } else {
            algebra::Axis::Descendant
        });
    }
    (doc, w)
}

/// Every `{seek, bulk}` flag combination of the join kernels.
fn flag_grid() -> [algebra::EvalConfig; 4] {
    use uload_bench::experiments::kernel_flags;
    [
        kernel_flags(false, false),
        kernel_flags(false, true),
        kernel_flags(true, false),
        kernel_flags(true, true),
    ]
}

/// The nested-loop cascade's solutions, sorted into the twig kernel's
/// lexicographic order — the oracle every kernel is held to.
fn nested_loop_solutions(
    w: &uload_bench::experiments::TwigWorkload,
    streams: &[Vec<(xmltree::StructuralId, usize)>],
) -> Vec<Vec<usize>> {
    let mut sols = uload_bench::experiments::cascade_solutions(&w.parents, &w.axes, streams, false);
    sols.sort_unstable();
    sols
}

/// Evaluate `plan` under `eval` with the `Evaluator::eval` oracle and
/// through the cursor executor (the one production executor, which both
/// streamed and materialized answers drain) at `batch_size`; the two
/// must agree.
fn materialized_and_streamed(
    plan: &algebra::LogicalPlan,
    cat: &algebra::Catalog,
    eval: algebra::EvalConfig,
    batch_size: usize,
) -> Result<algebra::Relation, TestCaseError> {
    let mut ev = algebra::Evaluator::new(cat);
    ev.config = eval;
    let mat = ev.eval(plan).unwrap();
    let ccfg = algebra::CursorConfig {
        batch_size,
        eval,
        ..Default::default()
    };
    let streamed = algebra::build_cursor(plan, cat, None, &ccfg)
        .unwrap()
        .collect()
        .unwrap();
    prop_assert_eq!(
        &streamed,
        &mat,
        "cursor executor != Evaluator::eval (seek {}, bulk {}, twig {}, batch {})",
        eval.use_skip_index,
        eval.columnar_kernels,
        eval.use_twigstack,
        batch_size
    );
    Ok(mat)
}

/// The planner's nested-loop answer for `plan`: holistic operator and
/// StackTree both off, so no join kernel runs at all.
fn nested_loop_relation(plan: &algebra::LogicalPlan, cat: &algebra::Catalog) -> algebra::Relation {
    let mut ev = algebra::Evaluator::new(cat);
    ev.config.use_twigstack = false;
    ev.config.use_stacktree = false;
    ev.eval(plan).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The holistic `TwigStack` operator agrees exactly with both binary
    /// cascades — StackTree and nested loop — on random `/`+`//` tree
    /// patterns over generated XMark and DBLP documents, under every
    /// `{seek, bulk}` flag combination, and the planner path (fused
    /// `TwigJoin` plan) returns the nested-loop relation whether the
    /// holistic operator is enabled or the evaluator falls back to the
    /// cascade.
    #[test]
    fn twig_join_matches_binary_cascades(
        spec in prop::collection::vec((0usize..10, 0usize..8, 0usize..2), 2..7),
        dblp_sel in 0usize..2,
    ) {
        let (doc, w) = random_twig(&spec, dblp_sel == 1);
        let idx = storage::IdStreamIndex::build(&doc);
        let pattern = w.pattern();
        let streams = w.streams(&idx);
        let nested = nested_loop_solutions(&w, &streams);
        for flags in flag_grid() {
            let twig = uload_bench::experiments::twig_kernel(&pattern, &streams, flags);
            prop_assert_eq!(&twig, &nested, "twig vs nested loop on {:?}", w.labels);
            let mut stack = uload_bench::experiments::cascade_solutions_with(
                &w.parents, &w.axes, &streams, flags);
            stack.sort_unstable();
            prop_assert_eq!(&stack, &nested, "StackTree vs nested loop on {:?}", w.labels);
        }

        // planner path: the fused plan over the catalog-registered ID
        // streams, with and without the holistic operator (labels absent
        // from the document have no ids_* relation, so skip those specs)
        if streams.iter().all(|s| !s.is_empty()) {
            let cat = uload_bench::experiments::twig_catalog(&doc);
            let plan = w.twig_plan();
            let oracle = nested_loop_relation(&plan, &cat);
            prop_assert_eq!(oracle.tuples.len(), nested.len());
            for twig_on in [true, false] {
                let mut ev = algebra::Evaluator::new(&cat);
                ev.config.use_twigstack = twig_on;
                let got = ev.eval(&plan).unwrap();
                prop_assert_eq!(&got, &oracle, "planner twig {} on {:?}", twig_on, w.labels);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipelined batch executor — which serves streamed *and*
    /// materialized answers — returns exactly the `Evaluator::eval`
    /// oracle's relation (same rows, same order) on random XMark and
    /// DBLP twig plans (both the fused holistic form and the binary
    /// cascade), at batch sizes 1, 7 and 1024.
    #[test]
    fn streamed_matches_materialized(
        spec in prop::collection::vec((0usize..10, 0usize..8, 0usize..2), 2..7),
        dblp_sel in 0usize..2,
    ) {
        let (doc, w) = random_twig(&spec, dblp_sel == 1);
        let idx = storage::IdStreamIndex::build(&doc);
        if w.streams(&idx).iter().any(|s| s.is_empty()) {
            return Ok(()); // label absent: no ids_* relation to scan
        }
        let cat = uload_bench::experiments::twig_catalog(&doc);
        for batch_size in [1usize, 7, 1024] {
            for (plan, twig_on) in [
                (w.twig_plan(), true),
                (w.twig_plan(), false), // exercises the cascade fallback
                (w.cascade_plan(), true),
            ] {
                let eval = algebra::EvalConfig {
                    use_twigstack: twig_on,
                    ..Default::default()
                };
                materialized_and_streamed(&plan, &cat, eval, batch_size)?;
            }
        }
    }
}

/// A random `Project`/`Select` over a chain of `Navigate` steps from the
/// root element: step `k` = (label, axis, mode, source ID column), the
/// select = (kind, column), the projection = columns and distinctness.
/// Labels include `*`, a label absent from the document and an
/// attribute label.
fn random_navigation(
    steps: &[(usize, usize, usize, usize)],
    sel: (usize, usize, usize),
    cols: &[usize],
    top: usize,
) -> algebra::LogicalPlan {
    use algebra::{Axis, LogicalPlan, NavMode, Operand, Path, Predicate, Template, Value};
    let labels = ["a", "b", "c", "d", "item", "name", "*", "zzz", "@x"];
    let mut plan = LogicalPlan::scan("r");
    let mut ids = vec!["ID".to_string()];
    let mut all: Vec<String> = ["ID", "Tag", "Val", "Cont"].map(String::from).to_vec();
    let (sel_kind, sel_col, sel_at) = sel;
    let select = |plan: LogicalPlan, all: &[String]| {
        let col = all[sel_col % all.len()].clone();
        let pred = match sel_kind {
            1 => Predicate::NotNull(Path::new(col)),
            2 => Predicate::eq(col, Value::str("v")),
            3 => Predicate::Cmp(
                Operand::Col(Path::new(col)),
                algebra::CmpOp::Contains,
                Operand::Const(Value::str("<")),
            ),
            _ => Predicate::IsNull(Path::new(col)),
        };
        plan.select(pred)
    };
    for (k, &(label, axis, mode, from)) in steps.iter().enumerate() {
        if sel_kind > 0 && sel_at % (steps.len() + 1) == k {
            plan = select(plan, &all);
        }
        let prefix = format!("n{k}");
        let mode = [NavMode::Flat, NavMode::Outer, NavMode::Exists][mode];
        plan = LogicalPlan::Navigate {
            input: Box::new(plan),
            from_attr: Path::new(ids[from % ids.len()].clone()),
            axis: if axis == 1 {
                Axis::Child
            } else {
                Axis::Descendant
            },
            label: labels[label].into(),
            as_prefix: prefix.clone(),
            mode,
        };
        if mode != NavMode::Exists {
            ids.push(format!("{prefix}_ID"));
            for c in ["ID", "Val", "Cont"] {
                all.push(format!("{prefix}_{c}"));
            }
        }
    }
    if sel_kind > 0 && sel_at % (steps.len() + 1) == steps.len() {
        plan = select(plan, &all);
    }
    let picked: Vec<&str> = cols.iter().map(|&c| all[c % all.len()].as_str()).collect();
    plan = if top % 2 == 1 {
        plan.project_distinct(&picked)
    } else {
        plan.project(&picked)
    };
    if top >= 2 {
        plan = LogicalPlan::XmlTemplate {
            input: Box::new(plan),
            templ: Template::elem("r", vec![Template::attr(picked[0])]),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Column demand is invisible to answers: on random documents, a
    /// random `Project`/`Select` over a random `Navigate` chain — whose
    /// unread `_Val`/`_Cont` columns the cursors never compute — drained
    /// at batch sizes 1, 7 and 1024 equals `Evaluator::eval` (which
    /// demands every column) byte for byte, schema included.
    #[test]
    fn column_demand_never_changes_answers(
        doc in arb_document(),
        steps in prop::collection::vec((0usize..9, 0usize..2, 0usize..3, 0usize..8), 1..5),
        sel in (0usize..5, 0usize..32, 0usize..8),
        cols in prop::collection::vec(0usize..32, 1..4),
        top in 0usize..4,
    ) {
        let mut cat = algebra::Catalog::new();
        cat.insert_ordered(
            "r",
            algebra::eval::tag_derived(&doc, "root"),
            algebra::OrderSpec::by("ID"),
        );
        let plan = random_navigation(&steps, sel, &cols, top);
        let oracle = algebra::Evaluator::with_document(&cat, &doc).eval(&plan).unwrap();
        for batch_size in [1usize, 7, 1024] {
            let ccfg = algebra::CursorConfig {
                batch_size,
                ..Default::default()
            };
            let got = algebra::build_cursor(&plan, &cat, Some(&doc), &ccfg)
                .unwrap()
                .collect()
                .unwrap();
            prop_assert_eq!(&got, &oracle, "batch {} plan {}", batch_size, plan);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeking is invisible to results in the twig kernel: on random
    /// XMark and DBLP twig patterns the one holistic kernel — under all
    /// four `{seek, bulk}` flag combinations and at fence block sizes
    /// 1, 2, 13 and 64 — returns the nested-loop cascade's solutions,
    /// and the planner's fused twig plan returns the nested-loop
    /// relation under every flag combination, both materialized and
    /// through the streamed cursor executor.
    #[test]
    fn skip_scan_matches_full_scan(
        spec in prop::collection::vec((0usize..10, 0usize..8, 0usize..2), 2..7),
        dblp_sel in 0usize..2,
        batch_pick in 0usize..4,
    ) {
        let (doc, w) = random_twig(&spec, dblp_sel == 1);
        let idx = storage::IdStreamIndex::build(&doc);
        let pattern = w.pattern();
        let streams = w.streams(&idx);
        let nested = nested_loop_solutions(&w, &streams);
        for block in [1usize, 2, 13, 64] {
            let cols: Vec<algebra::IdColumns> = streams
                .iter()
                .map(|s| algebra::IdColumns::from_pairs(s, block))
                .collect();
            let refs: Vec<&algebra::IdColumns> = cols.iter().collect();
            for flags in flag_grid() {
                let got = algebra::twig_join_columnar(&pattern, &refs, flags);
                prop_assert_eq!(
                    &got, &nested,
                    "twig kernel (block {}, seek {}, bulk {}) vs nested loop on {:?}",
                    block, flags.use_skip_index, flags.columnar_kernels, w.labels
                );
            }
        }

        if streams.iter().all(|s| !s.is_empty()) {
            let cat = uload_bench::experiments::twig_catalog(&doc);
            let plan = w.twig_plan();
            let oracle = nested_loop_relation(&plan, &cat);
            let batch_size = [1usize, 2, 7, 1024][batch_pick];
            for flags in flag_grid() {
                let got = materialized_and_streamed(&plan, &cat, flags, batch_size)?;
                prop_assert_eq!(
                    &got, &oracle,
                    "twig plan (seek {}, bulk {}) vs nested loop on {:?}",
                    flags.use_skip_index, flags.columnar_kernels, w.labels
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bulk runs are invisible to results in the StackTree kernel: for
    /// every edge of random XMark and DBLP twig patterns the one
    /// StackTree kernel — under all four `{seek, bulk}` flag
    /// combinations and at fence block sizes 1, 2, 13 and 64 — returns
    /// exactly `nested_loop_pairs`' pairs, and the planner's binary
    /// cascade plan returns the nested-loop relation under every flag
    /// combination, both materialized and streamed.
    #[test]
    fn columnar_matches_scalar(
        spec in prop::collection::vec((0usize..10, 0usize..8, 0usize..2), 2..7),
        dblp_sel in 0usize..2,
        batch_pick in 0usize..4,
    ) {
        let (doc, w) = random_twig(&spec, dblp_sel == 1);
        let idx = storage::IdStreamIndex::build(&doc);
        let streams = w.streams(&idx);
        for k in 1..streams.len() {
            let (anc, desc) = (&streams[w.parents[k]], &streams[k]);
            let mut want = algebra::nested_loop_pairs(anc, desc, w.axes[k]);
            want.sort_unstable();
            for block in [1usize, 2, 13, 64] {
                let ac = algebra::IdColumns::from_pairs(anc, block);
                let dc = algebra::IdColumns::from_pairs(desc, block);
                for flags in flag_grid() {
                    let mut got = algebra::stack_tree_pairs_columnar(&ac, &dc, w.axes[k], flags);
                    // StackTreeDesc order: descendant positions never decrease
                    prop_assert!(got.windows(2).all(|p| p[0].1 <= p[1].1));
                    got.sort_unstable();
                    prop_assert_eq!(
                        &got, &want,
                        "StackTree edge {} (block {}, seek {}, bulk {}) on {:?}",
                        k, block, flags.use_skip_index, flags.columnar_kernels, w.labels
                    );
                }
            }
        }

        if streams.iter().all(|s| !s.is_empty()) {
            let cat = uload_bench::experiments::twig_catalog(&doc);
            let plan = w.cascade_plan();
            let oracle = nested_loop_relation(&plan, &cat);
            let batch_size = [1usize, 2, 7, 1024][batch_pick];
            for flags in flag_grid() {
                let got = materialized_and_streamed(&plan, &cat, flags, batch_size)?;
                prop_assert_eq!(
                    &got, &oracle,
                    "cascade plan (seek {}, bulk {}) vs nested loop on {:?}",
                    flags.use_skip_index, flags.columnar_kernels, w.labels
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structural joins over inputs that repeat node IDs across tuples
    /// (as a view column legitimately does) stay exact: streams are only
    /// *non-strictly* pre-sorted, and duplicates straddling fence-block
    /// boundaries must not cause over-pruning. The StackTree kernel at
    /// block sizes 1, 2, 13 and 64 returns `nested_loop_pairs`' pairs,
    /// and the planner returns the nested-loop relation, materialized
    /// and streamed, under all four `{seek, bulk}` flag combinations.
    #[test]
    fn struct_join_with_duplicate_ids_matches_oracle(
        pair_sel in 0usize..5,
        dups in prop::collection::vec(0usize..3, 1..40),
        axis_sel in 0usize..2,
        batch_pick in 0usize..4,
    ) {
        use algebra::{Catalog, JoinKind, LogicalPlan, Relation, Schema, Tuple, Value};
        let doc = generate::xmark(3, 7);
        let (anc_l, desc_l) = [
            ("item", "keyword"),
            ("parlist", "listitem"),
            ("site", "item"),
            ("description", "bold"),
            ("listitem", "parlist"),
        ][pair_sel];
        let axis = if axis_sel == 1 { algebra::Axis::Child } else { algebra::Axis::Descendant };

        // streams with each node ID repeated 1–3× in consecutive
        // positions (document order preserved, so streams arrive sorted
        // with duplicates — the layout that exercises block straddles)
        let duplicated = |label: &str| -> Vec<(xmltree::StructuralId, usize)> {
            doc.nodes_with_label(label, NodeKind::Element)
                .enumerate()
                .flat_map(|(i, n)| {
                    std::iter::repeat_n(doc.structural_id(n), 1 + dups[i % dups.len()])
                })
                .enumerate()
                .map(|(pos, sid)| (sid, pos))
                .collect()
        };
        let (anc, desc) = (duplicated(anc_l), duplicated(desc_l));
        let mut want = algebra::nested_loop_pairs(&anc, &desc, axis);
        want.sort_unstable();
        for block in [1usize, 2, 13, 64] {
            let ac = algebra::IdColumns::from_pairs(&anc, block);
            let dc = algebra::IdColumns::from_pairs(&desc, block);
            for flags in flag_grid() {
                let mut got = algebra::stack_tree_pairs_columnar(&ac, &dc, axis, flags);
                got.sort_unstable();
                prop_assert_eq!(
                    &got, &want,
                    "{} {:?} {} (block {}, seek {}, bulk {}) dropped or invented pairs",
                    anc_l, axis, desc_l, block, flags.use_skip_index, flags.columnar_kernels
                );
            }
        }

        let relation = |stream: &[(xmltree::StructuralId, usize)]| {
            let tuples = stream.iter().map(|&(sid, _)| Tuple::new(vec![Value::Id(sid)])).collect();
            Relation::new(Schema::atoms(&["ID"]), tuples)
        };
        let mut cat = Catalog::new();
        cat.insert("anc_dup", relation(&anc));
        cat.insert("desc_dup", relation(&desc));
        let plan = LogicalPlan::scan("anc_dup").rename(&["A"]).struct_join(
            LogicalPlan::scan("desc_dup").rename(&["B"]),
            "A",
            "B",
            axis,
            JoinKind::Inner,
        );
        let oracle = nested_loop_relation(&plan, &cat);
        let batch_size = [1usize, 2, 7, 1024][batch_pick];
        for flags in flag_grid() {
            let got = materialized_and_streamed(&plan, &cat, flags, batch_size)?;
            prop_assert_eq!(
                &got, &oracle,
                "{} {:?} {} (seek {}, bulk {}) dropped or invented pairs",
                anc_l, axis, desc_l, flags.use_skip_index, flags.columnar_kernels
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Telemetry histograms bound true quantiles within one log-linear
    /// bucket, and merging per-shard snapshots is indistinguishable from
    /// recording everything into a single histogram. The reported
    /// quantile never undershoots the exact nearest-rank order statistic
    /// and overshoots by at most the bucket width (exact below 16,
    /// ≤ 1/16 relative above).
    #[test]
    fn histogram_quantiles_within_one_bucket(
        values in prop::collection::vec(0u64..(1u64 << 44), 1..400),
        parts in 1usize..6,
    ) {
        let shards: Vec<uload::Histogram> =
            (0..parts).map(|_| uload::Histogram::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[i % parts].record(v);
        }
        let mut merged = uload::HistogramSnapshot::empty();
        for s in &shards {
            merged.merge(&s.snapshot());
        }
        prop_assert_eq!(merged.count(), values.len() as u64);

        // sharded-and-merged == one whole histogram, bucket for bucket
        let whole = uload::Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        prop_assert_eq!(&merged, &whole.snapshot());

        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(merged.min(), sorted[0]);
        prop_assert_eq!(merged.max(), *sorted.last().unwrap());
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let got = merged.quantile(q);
            prop_assert!(got >= truth, "q={} reported {} < true {}", q, got, truth);
            let slack = if truth < 16 { 0 } else { truth >> 4 };
            prop_assert!(
                got - truth <= slack,
                "q={} reported {} vs true {} exceeds one bucket (slack {})",
                q, got, truth, slack
            );
        }
    }
}

/// Overwrite a profiled plan tree's measurements with synthetic skew:
/// every node claims `rows` actual rows and a ≥4× misprediction flag,
/// regardless of what really ran.
fn skew_profile(p: &mut uload::PlanNodeProfile, rows: u64) {
    p.actual_rows = rows;
    p.mispredicted = true;
    for c in &mut p.children {
        skew_profile(c, rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cardinality feedback is invisible to answers: an engine whose
    /// `StatsStore` holds profiled runs plus adversarial synthetic skew
    /// (every node flagged mispredicted, the arm choice flagged wrong)
    /// returns exactly the `Evaluator::eval` oracle's rows, as does a
    /// cold engine — materialized and streamed (both drain the cursor
    /// executor; the skew arms its mid-query fallover hint), through the
    /// adaptive prepare path that may pick the other arm, and at batch
    /// sizes 1, 7 and 1024.
    #[test]
    fn feedback_never_changes_answers(
        qsel in 0usize..3,
        skew in 1u64..10_000,
        observations in 1usize..4,
    ) {
        let doc = generate::xmark(2, 13);
        let build = |batch_size: usize| {
            let mut cfg = uload::EngineConfig::default();
            cfg.rewrite.allow_navigation = false;
            let mut u = uload::Uload::builder()
                .document(&doc)
                .config(cfg)
                .batch_size(batch_size)
                .build()
                .unwrap();
            u.add_view_text("v_items", "//item[id:s]", &doc).unwrap();
            u.add_view_text("v_names", "//name[id:s,val]", &doc).unwrap();
            u
        };
        let query = [
            r#"doc("X")//item/name"#,
            r#"for $n in doc("X")//item/name return <r>{$n}</r>"#,
            r#"doc("X")//name"#,
        ][qsel];
        for batch_size in [1usize, 7, 1024] {
            let cold = build(batch_size);
            let warm = build(batch_size);

            // the oracle: the cold plan, fully materialized by the
            // reference evaluator
            let oracle: Vec<String> = {
                let prep = cold.prepare_query(query).unwrap();
                let ev = algebra::Evaluator::with_document(cold.store().catalog(), &doc);
                let rel = ev.eval(prep.plan()).unwrap();
                rel.tuples
                    .iter()
                    .map(|t| t.get(0).as_str().unwrap_or("").to_string())
                    .collect()
            };

            // populate warm's store with real profiled runs, then poison
            // it with synthetic skew under the plan's own fingerprint
            let fp = warm.prepare_query(query).unwrap().fingerprint();
            for _ in 0..observations {
                let (_, _, mut profile) = warm.answer_profiled(query, &doc).unwrap();
                skew_profile(&mut profile.plan, skew);
                if let Some(arm) = profile.arm.as_mut() {
                    arm.mispredicted = true;
                }
                warm.stats_store().record_profile(0, fp, &profile);
            }
            prop_assert!(warm.stats_store().has_feedback(0, fp), "store never populated");
            prop_assert!(cold.stats_store().is_empty());

            // materialized path
            let (rows_cold, _) = cold.answer(query, &doc).unwrap();
            let (rows_warm, _) = warm.answer(query, &doc).unwrap();
            prop_assert_eq!(&rows_cold, &oracle, "cold materialized != oracle (batch {})", batch_size);
            prop_assert_eq!(&rows_warm, &oracle, "feedback changed materialized answers (batch {})", batch_size);

            // streamed path: the skewed arm stats arm the fallover hint
            let drain = |u: &uload::Uload| -> Vec<String> {
                let res = u.query(query, &doc).unwrap();
                res.map(|item| item.unwrap()).collect()
            };
            prop_assert_eq!(&drain(&cold), &oracle, "cold streamed != oracle (batch {})", batch_size);
            prop_assert_eq!(&drain(&warm), &oracle, "feedback changed streamed answers (batch {})", batch_size);

            // adaptive prepare: whatever arm the feedback picks, the
            // rows are the oracle's rows
            let prep_cold = cold.prepare_query(query).unwrap();
            let prep_warm = warm.prepare_query_for_version(query, 0).unwrap();
            let h1 = uload::DocumentHandle::new(doc.clone());
            let out_cold = cold.execute_prepared(&prep_cold, &h1).unwrap();
            let out_warm = warm.execute_prepared(&prep_warm, &h1).unwrap();
            let xml = |o: &uload::QueryOutput| o.items.iter().map(|i| i.xml.clone()).collect::<Vec<_>>();
            prop_assert_eq!(&xml(&out_cold), &oracle, "cold prepared != oracle (batch {})", batch_size);
            prop_assert_eq!(&xml(&out_warm), &oracle, "adaptive prepare changed answers (batch {})", batch_size);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The parallel, cache-backed engine is observationally identical to
    /// the sequential one: same containment verdicts (and, on positive
    /// runs, the same model sizes) and the same rewriting sets, in the
    /// same order.
    #[test]
    fn parallel_engine_matches_sequential(seed in 0u64..300) {
        let doc = generate::xmark(2, 17);
        let s = Summary::of_document(&doc);
        let cfg = GenConfig::xmark(4, 1);
        let pats = pattern_gen::generate_set(&s, &cfg, 3, seed);
        let cache = uload::CanonicalCache::new(256);

        // containment verdicts
        for p in &pats {
            for q in &pats {
                let seq = uload::contain(p, q, &s, &Default::default());
                let par_opts = uload::ContainOptions::default()
                    .with_threads(4)
                    .with_cache(&cache);
                let par = uload::contain(p, q, &s, &par_opts);
                prop_assert_eq!(seq.contained, par.contained, "verdict:\n{}\n⊆?\n{}", p, q);
                if seq.contained {
                    prop_assert_eq!(seq.model_size, par.model_size, "model:\n{}\n⊆?\n{}", p, q);
                }
                // a second cached call must replay the same verdict
                let replay = uload::contain(p, q, &s, &par_opts);
                prop_assert_eq!(par.contained, replay.contained);
            }
        }

        // rewriting sets, on the §5.6 workload shape (conjunctive size-4
        // query, size-3 views plus one exactly-covering view)
        let qcfg = GenConfig::xmark(4, 1).with_optional(0.0);
        let qs = pattern_gen::generate_set(&s, &qcfg, 1, 9000 + seed);
        let q = &qs[0];
        let noise = pattern_gen::generate_set(
            &s,
            &GenConfig::xmark(3, 1).with_optional(0.0),
            3,
            500 + seed,
        );
        let mut views: Vec<(String, xam_core::Xam)> = noise
            .into_iter()
            .enumerate()
            .map(|(i, v)| (format!("v{i}"), v))
            .collect();
        views.push(("exact".into(), q.clone()));
        let eng = uload::EngineOptions {
            threads: 4,
            cache: Some(&cache),
            ..Default::default()
        };
        let (seq_rw, _) = rewriting::rewrite(q, &views, &s);
        let (par_rw, _) = uload::rewrite_with_engine(q, &views, &s, Default::default(), &eng);
        let key = |r: &uload::Rewriting| format!("{:?}|{}", r.views_used, r.plan);
        let seq_keys: Vec<String> = seq_rw.iter().map(key).collect();
        let par_keys: Vec<String> = par_rw.iter().map(key).collect();
        prop_assert!(!seq_rw.is_empty(), "covering view must yield a rewriting");
        prop_assert_eq!(seq_keys, par_keys, "rewriting sets differ for\n{}", q);
        prop_assert!(cache.stats().hits > 0, "cache never hit");
    }
}

/// Text pieces the serialization properties draw from: every character
/// the XML escaper or the wire escaper rewrites, whitespace, and
/// multi-byte characters.
const PIECES: [&str; 12] = [
    "a", "&", "<", ">", "\"", "'", "é", "日本", " ", "x y", "\\", "\n\r",
];

fn piece_text(ix: &[usize]) -> String {
    ix.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

/// Reference model of a parsed document: attributes lead their element.
enum RefNode {
    Elem {
        label: String,
        attrs: Vec<(String, String)>,
        kids: Vec<RefNode>,
    },
    Text(String),
}

/// Reference escaper: char by char.
fn ref_escape(s: &str, attr: bool) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Reference serializer: naive recursion over the model.
fn ref_serialize(n: &RefNode) -> String {
    match n {
        RefNode::Text(t) => ref_escape(t, false),
        RefNode::Elem { label, attrs, kids } => {
            let mut out = format!("<{label}");
            for (name, value) in attrs {
                out += &format!(" {name}=\"{}\"", ref_escape(value, true));
            }
            if kids.is_empty() {
                return out + "/>";
            }
            out.push('>');
            for k in kids {
                out += &ref_serialize(k);
            }
            out + &format!("</{label}>")
        }
    }
}

/// One node of the reference numbering, in document order.
struct RefRow {
    kind: NodeKind,
    label: String,
    value: String,
    content: String,
    post: u32,
    depth: u16,
}

/// Number the model in pre-order, with post ranks and depths as
/// §1.2.1 defines them; returns the element's value.
fn ref_number(n: &RefNode, depth: u16, post: &mut u32, out: &mut Vec<RefRow>) -> String {
    let row = |kind, label: &str, value: &str, content, post| RefRow {
        kind,
        label: label.to_string(),
        value: value.to_string(),
        content,
        post,
        depth,
    };
    match n {
        RefNode::Text(t) => {
            out.push(row(NodeKind::Text, "#text", t, ref_escape(t, false), *post));
            *post += 1;
            t.clone()
        }
        RefNode::Elem { label, attrs, kids } => {
            let me = out.len();
            out.push(row(NodeKind::Element, label, "", ref_serialize(n), 0));
            for (name, value) in attrs {
                let content = format!("{name}=\"{}\"", ref_escape(value, true));
                out.push(RefRow {
                    depth: depth + 1,
                    ..row(NodeKind::Attribute, name, value, content, *post)
                });
                *post += 1;
            }
            let value: String = kids
                .iter()
                .map(|k| ref_number(k, depth + 1, post, out))
                .collect();
            out[me].value = value.clone();
            out[me].post = *post;
            *post += 1;
            value
        }
    }
}

/// A random document as XML source text (attributes in both quote
/// styles, entity and character references, CDATA sections, empty
/// elements in both forms) together with its reference model. No two
/// text nodes are adjacent and none is whitespace only: the data model
/// merges adjacent text and drops blank runs when it parses, so such
/// nodes could not survive a serialize-and-parse round trip.
fn arb_source() -> impl Strategy<Value = (String, RefNode)> {
    let op = (
        0usize..8,
        0usize..4,
        prop::collection::vec(0usize..12, 1..5),
    );
    prop::collection::vec(op, 1..40).prop_map(|ops| {
        let labels = ["a", "b", "näme", "c"];
        let attr_names = ["id", "k", "x", "y"];
        // open elements: (label, attrs, kids, start tag still open, last kid is text)
        type Open = (String, Vec<(String, String)>, Vec<RefNode>, bool, bool);
        let mut src = String::from("<root");
        let mut stack: Vec<Open> = vec![("root".into(), Vec::new(), Vec::new(), true, false)];
        fn end_start_tag(src: &mut String, top: &mut Open) {
            if top.3 {
                src.push('>');
                top.3 = false;
            }
        }
        for (action, l, text) in ops {
            let text = piece_text(&text);
            let nested = stack.len() > 1;
            let top = stack.last_mut().unwrap();
            match action {
                0 | 1 => {
                    end_start_tag(&mut src, top);
                    top.4 = false;
                    src += &format!("<{}", labels[l]);
                    stack.push((labels[l].into(), Vec::new(), Vec::new(), true, false));
                }
                2 if nested => {
                    let (label, attrs, kids, open, _) = stack.pop().unwrap();
                    src += &if open {
                        "/>".to_string()
                    } else {
                        format!("</{label}>")
                    };
                    let top = stack.last_mut().unwrap();
                    top.2.push(RefNode::Elem { label, attrs, kids });
                    top.4 = false;
                }
                3 if top.3 => {
                    let name = attr_names[l].to_string();
                    if l % 2 == 0 {
                        let v = text
                            .replace('&', "&amp;")
                            .replace('"', "&quot;")
                            .replace('<', "&lt;");
                        src += &format!(" {name}=\"{v}\"");
                    } else {
                        let v = text
                            .replace('&', "&#38;")
                            .replace('\'', "&apos;")
                            .replace('<', "&#x3C;");
                        src += &format!(" {name}='{v}'");
                    }
                    top.1.push((name, text));
                }
                4 | 5 if !top.4 && !text.trim().is_empty() => {
                    end_start_tag(&mut src, top);
                    if action == 4 {
                        src += &text
                            .replace('&', "&amp;")
                            .replace('<', "&lt;")
                            .replace('>', "&#62;");
                        top.2.push(RefNode::Text(text));
                    } else {
                        let cdata = text.replace("]]>", "]>");
                        src += &format!("<![CDATA[{cdata}]]>");
                        top.2.push(RefNode::Text(cdata));
                    }
                    top.4 = true;
                }
                _ => {
                    end_start_tag(&mut src, top);
                    top.4 = false;
                    src += &if l % 2 == 0 {
                        format!("<{}/>", labels[l])
                    } else {
                        format!("<{0}></{0}>", labels[l])
                    };
                    top.2.push(RefNode::Elem {
                        label: labels[l].into(),
                        attrs: Vec::new(),
                        kids: Vec::new(),
                    });
                }
            }
        }
        while let Some((label, attrs, kids, open, _)) = stack.pop() {
            src += &if open {
                "/>".to_string()
            } else {
                format!("</{label}>")
            };
            let node = RefNode::Elem { label, attrs, kids };
            match stack.last_mut() {
                Some(top) => {
                    top.2.push(node);
                    top.4 = false;
                }
                None => return (src, node),
            }
        }
        unreachable!("the root closes last")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every node's content is its slice of the one canonical
    /// serialization, equal to a naive recursive serializer's output;
    /// values and structural IDs match a reference numbering; and the
    /// serialization parses back to the same document.
    #[test]
    fn content_is_the_canonical_serialization(case in arb_source()) {
        let (src, model) = case;
        let doc = xmltree::parse_document(&src).unwrap();
        let mut rows = Vec::new();
        ref_number(&model, 1, &mut 0, &mut rows);
        prop_assert_eq!(doc.len(), rows.len(), "{}", src);
        for (n, want) in doc.all_nodes().zip(&rows) {
            prop_assert_eq!(doc.kind(n), want.kind);
            prop_assert_eq!(doc.label(n), want.label.as_str());
            prop_assert_eq!(doc.value(n), want.value.clone(), "value of {} in {}", n, src);
            prop_assert_eq!(doc.content_str(n), want.content.as_str(), "content of {} in {}", n, src);
            prop_assert_eq!(doc.content(n), want.content.clone());
            let sid = doc.structural_id(n);
            prop_assert_eq!((sid.pre, sid.post, sid.depth), (n.0, want.post, want.depth));
        }
        let again = xmltree::parse_document(&doc.content(doc.root())).unwrap();
        prop_assert_eq!(again.len(), doc.len());
        for n in doc.all_nodes() {
            prop_assert_eq!(again.kind(n), doc.kind(n));
            prop_assert_eq!(again.label(n), doc.label(n));
            prop_assert_eq!(again.value(n), doc.value(n));
            prop_assert_eq!(again.structural_id(n), doc.structural_id(n));
        }
    }

    /// The wire escaping: `unescape` inverts `escape`, and `write_row`
    /// writes exactly the `ROW` line a reference escaper would.
    #[test]
    fn wire_rows_escape_by_runs(ix in prop::collection::vec(0usize..12, 0..24)) {
        use uload::server::protocol::{escape, row_line, unescape, write_row};
        fn reference_escape(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
            out
        }
        let s = piece_text(&ix);
        prop_assert_eq!(escape(&s), reference_escape(&s));
        prop_assert_eq!(unescape(&escape(&s)), s.clone());
        let mut wire = Vec::new();
        write_row(&mut wire, &s).unwrap();
        let want = format!("ROW {}", reference_escape(&s));
        prop_assert_eq!(String::from_utf8(wire).unwrap(), format!("{want}\n"));
        prop_assert_eq!(row_line(&s), want);
    }
}

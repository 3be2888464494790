//! The execution engine (§1.2.3): evaluates [`LogicalPlan`]s over a
//! [`Catalog`] of stored nested relations, optionally backed by the source
//! [`Document`] for navigation and ancestor-ID derivation.
//!
//! [`Evaluator::eval`] materializes every intermediate relation. It is
//! the reference oracle of the pipelined executor ([`crate::cursor`],
//! which serves every query) and runs the same compiled operators
//! (`op`) over whole relations, so the row logic exists once.
//!
//! Physical choices: structural joins run the `StackTree` merge when inputs
//! are (or are made) ID-sorted, with a nested-loop fallback selectable via
//! [`EvalConfig`] for the ablation benches; value joins are nested loops
//! over the compiled predicate; `π°` and `\` hash tuples in place;
//! `GroupBy` uses a hash table preserving first-seen group order; `Sort_φ`
//! is a stable comparison sort.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use obs::{ExecMetrics, Meter, OpProfile};
use xmltree::{Document, NodeId, NodeKind, StructuralId};

use crate::op::{gather_ids, packable, Binary, Breaker, Demand, ProjSpec, Unary};
use crate::order::OrderSpec;
use crate::plan::{LogicalPlan, Path, TwigStep};
use crate::simd::{IdColumns, DEFAULT_BLOCK};
use crate::twig::{twig_join_columnar, twig_join_columnar_metered, twig_to_cascade, TwigPattern};
use crate::value::{Schema, Tuple, Value};

/// A materialized nested relation: schema + tuples (list semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    pub schema: Schema,
    pub tuples: Vec<Tuple>,
}

impl Relation {
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation { schema, tuples }
    }

    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// Named store of base relations (storage modules, indexes, materialized
/// views) visible to plans.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    relations: HashMap<String, Relation>,
    orders: HashMap<String, OrderSpec>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, rel: Relation) {
        self.relations.insert(name.into(), rel);
    }

    /// Register a relation together with its declared output order.
    pub fn insert_ordered(&mut self, name: impl Into<String>, rel: Relation, order: OrderSpec) {
        let name = name.into();
        self.orders.insert(name.clone(), order);
        self.relations.insert(name, rel);
    }

    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// The [`OrderSpec`] a relation was registered with via
    /// [`Catalog::insert_ordered`], if any. Lets the pipelined executor
    /// elide a `Sort` boundary over a base scan whose declared order
    /// already satisfies the requested key.
    pub fn declared_order(&self, name: &str) -> Option<&OrderSpec> {
        self.orders.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(|s| s.as_str())
    }

    pub fn len(&self) -> usize {
        self.relations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

/// Physical-layer knobs.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Use the StackTree merge for structural joins (`false` = nested loop,
    /// for the ablation bench).
    pub use_stacktree: bool,
    /// Evaluate [`LogicalPlan::TwigJoin`] with the holistic multi-way
    /// merge (`false` = desugar to the binary cascade, for the ablation
    /// bench and as the correctness oracle).
    pub use_twigstack: bool,
    /// Let the join kernels seek: where no open ancestor can contain
    /// the next elements, gallop over the sorted pre column
    /// ([`IdColumns::seek_pre_gt`]) instead of stepping one element at
    /// a time (`false` = linear advance, for the ablation bench).
    pub use_skip_index: bool,
    /// Let the join kernels retire runs in bulk: append leaf runs (twig)
    /// or emit single-ancestor runs (StackTree) counted a block at a time
    /// by [`IdColumns::leading_run`] (`false` = one element per step,
    /// for the ablation bench).
    pub columnar_kernels: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            use_stacktree: true,
            use_twigstack: true,
            use_skip_index: true,
            columnar_kernels: true,
        }
    }
}

/// Evaluation errors: unknown relations/attributes, type misuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    UnknownRelation(String),
    UnknownAttribute(String),
    TypeError(String),
    NeedsDocument(&'static str),
    /// A join input holds more tuples than the packed `u32` payload
    /// column of the join kernels can address.
    TooManyTuples(usize),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            EvalError::UnknownAttribute(a) => write!(f, "unknown attribute `{a}`"),
            EvalError::TypeError(m) => write!(f, "type error: {m}"),
            EvalError::NeedsDocument(op) => {
                write!(
                    f,
                    "operator {op} requires a source document in the evaluator"
                )
            }
            EvalError::TooManyTuples(n) => write!(
                f,
                "join input of {n} tuples exceeds the join kernels' limit of {} tuples",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Plan interpreter.
pub struct Evaluator<'a> {
    pub catalog: &'a Catalog,
    pub doc: Option<&'a Document>,
    pub config: EvalConfig,
    /// When set, the physical join kernels run their metered variants and
    /// accumulate counters here. `None` (the default) keeps the hot path
    /// on the unmetered monomorphizations.
    pub metrics: Option<RefCell<ExecMetrics>>,
}

impl<'a> Evaluator<'a> {
    pub fn new(catalog: &'a Catalog) -> Evaluator<'a> {
        Evaluator {
            catalog,
            doc: None,
            config: EvalConfig::default(),
            metrics: None,
        }
    }

    pub fn with_document(catalog: &'a Catalog, doc: &'a Document) -> Evaluator<'a> {
        Evaluator {
            catalog,
            doc: Some(doc),
            config: EvalConfig::default(),
            metrics: None,
        }
    }

    /// Evaluate a logical plan to a materialized relation: the
    /// reference oracle of the pipelined executor. Each node runs the
    /// same compiled operator (`op`) the cursors run, over its
    /// whole input at once and with every column demanded.
    pub fn eval(&self, plan: &LogicalPlan) -> Result<Relation, EvalError> {
        use LogicalPlan::*;
        match plan {
            Scan { relation } => self
                .catalog
                .get(relation)
                .cloned()
                .ok_or_else(|| EvalError::UnknownRelation(relation.clone())),
            TwigJoin { root, steps } => self.eval_twig_join(root, steps),
            Union { left, right } => {
                let mut l = self.eval(left)?;
                let r = self.eval(right)?;
                check_union(&l.schema, &r.schema)?;
                l.tuples.extend(r.tuples);
                Ok(l)
            }
            Product { left, right }
            | Join { left, right, .. }
            | StructJoin { left, right, .. }
            | Difference { left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                let op = Binary::compile(plan, &l.schema, &r.schema)?;
                let build = op.build(r.tuples, self.config)?;
                let tuples = op.probe(&build, l.tuples, self.config, self.metrics.as_ref())?;
                Ok(Relation::new(op.schema, tuples))
            }
            Project {
                distinct: true,
                input,
                ..
            }
            | GroupBy { input, .. }
            | Sort { input, .. }
            | NestAll { input, .. } => {
                let rel = self.eval(input)?;
                let op = Breaker::compile(plan, &rel.schema)?;
                let tuples = op.apply(rel.tuples);
                Ok(Relation::new(op.schema, tuples))
            }
            Select { input, .. }
            | Project { input, .. }
            | Unnest { input, .. }
            | XmlTemplate { input, .. }
            | Navigate { input, .. }
            | Fetch { input, .. }
            | DeriveAncestorId { input, .. }
            | CastSchema { input, .. }
            | Rename { input, .. } => {
                let rel = self.eval(input)?;
                let op = Unary::compile(plan, &rel.schema, &Demand::All, self.doc)?;
                let tuples = op.apply(rel.tuples);
                Ok(Relation::new(op.schema, tuples))
            }
        }
    }

    // ------------------------------------------------------------------
    // holistic twig join

    /// Evaluate a whole tree pattern with the holistic twig merge
    /// ([`crate::twig::twig_join_columnar`]): one sorted ID stream per pattern
    /// node, no intermediate pair lists. Shapes the holistic operator
    /// does not cover — map-extended (dotted) attributes, or two steps
    /// hanging off *different* ID columns of the same input — fall back
    /// to the equivalent binary cascade, as does the whole operator when
    /// [`EvalConfig::use_twigstack`] is off.
    fn eval_twig_join(
        &self,
        root: &LogicalPlan,
        steps: &[TwigStep],
    ) -> Result<Relation, EvalError> {
        if steps.is_empty() {
            return self.eval(root);
        }
        if !self.config.use_twigstack {
            self.note_twig_fallback("use_twigstack off", steps.len());
            return self.eval(&twig_to_cascade(root, steps));
        }
        let mut rels: Vec<Relation> = Vec::with_capacity(steps.len() + 1);
        rels.push(self.eval(root)?);
        for s in steps {
            rels.push(self.eval(&s.input)?);
        }
        let schemas: Vec<&Schema> = rels.iter().map(|r| &r.schema).collect();
        let shape = match twig_shape(&schemas, steps) {
            Some(shape) => shape,
            None => {
                self.note_twig_fallback("shape not holistic-covered", steps.len());
                return self.eval(&twig_to_cascade(root, steps));
            }
        };
        let solutions = twig_solutions(&rels, &shape, steps, self.config, self.metrics.as_ref())?;
        // one output tuple per solution; the kernel already emits them in
        // the cascade's lexicographic order
        let tuples = solutions
            .iter()
            .map(|sol| solution_tuple(&rels, sol))
            .collect();
        Ok(Relation::new(shape.schema, tuples))
    }

    /// Record a holistic-twig fallback to the binary cascade: counted in
    /// the metrics (when profiling) and reported at debug level.
    fn note_twig_fallback(&self, why: &str, steps: usize) {
        if let Some(m) = &self.metrics {
            m.borrow_mut().note_fallback();
        }
        tracing::debug!(
            target: "uload::eval",
            "twig join fell back to binary cascade ({steps} steps): {why}"
        );
    }

    // ------------------------------------------------------------------
    // profiled evaluation

    /// Evaluate `plan` while building an [`OpProfile`] tree mirroring the
    /// plan's shape (children in [`LogicalPlan::child_plans`] order).
    ///
    /// Each node's inputs are first profiled recursively and materialized
    /// as temporary scans in a shadow catalog; the node itself is then
    /// timed as a one-level plan over those temps with the metered
    /// kernels. `eval` itself is untouched — the unprofiled path pays
    /// nothing for this machinery. A node's `time_ns` includes its
    /// children's; its own share additionally covers re-reading the
    /// materialized inputs, so treat per-node times as indicative rather
    /// than exact.
    pub fn eval_profiled(&self, plan: &LogicalPlan) -> Result<(Relation, OpProfile), EvalError> {
        let children = plan.child_plans();
        let mut kid_profiles = Vec::with_capacity(children.len());
        let mut kid_rels = Vec::with_capacity(children.len());
        for c in &children {
            let (rel, prof) = self.eval_profiled(c)?;
            kid_profiles.push(prof);
            kid_rels.push(rel);
        }
        let metered = |catalog: &Catalog, one_level: &LogicalPlan| {
            let ev = Evaluator {
                catalog,
                doc: self.doc,
                config: self.config,
                metrics: Some(RefCell::new(ExecMetrics::default())),
            };
            let start = Instant::now();
            let rel = ev.eval(one_level)?;
            let elapsed = start.elapsed().as_nanos() as u64;
            let metrics = ev.metrics.expect("set above").into_inner();
            Ok::<_, EvalError>((rel, metrics, elapsed))
        };
        let (rel, metrics, self_ns) = if children.is_empty() {
            metered(self.catalog, plan)?
        } else {
            let mut shadow = Catalog::new();
            for (k, r) in kid_rels.into_iter().enumerate() {
                shadow.insert(format!("__prof_{k}"), r);
            }
            let one_level = plan.with_child_plans(
                (0..children.len())
                    .map(|k| LogicalPlan::scan(format!("__prof_{k}")))
                    .collect(),
            );
            metered(&shadow, &one_level)?
        };
        let child_ns: u64 = kid_profiles.iter().map(|p: &OpProfile| p.time_ns).sum();
        let profile = OpProfile {
            op: plan.node_label(),
            out_rows: rel.len() as u64,
            time_ns: self_ns + child_ns,
            metrics,
            children: kid_profiles,
        };
        Ok((rel, profile))
    }
}

/// `Union` takes two inputs of equal arity.
pub(crate) fn check_union(l: &Schema, r: &Schema) -> Result<(), EvalError> {
    if l.arity() != r.arity() {
        return Err(EvalError::TypeError(format!(
            "union arity mismatch: {} vs {}",
            l.arity(),
            r.arity()
        )));
    }
    Ok(())
}

// ----------------------------------------------------------------------
// twig shape analysis (shared with the pipelined executor)

/// The holistic operator's view of a twig's inputs: the single ID column
/// of each input the pattern references, each step's parent
/// pattern-node index, and the concatenated output schema (root, then
/// step inputs in order — the cascade's own output shape).
#[derive(Debug, Clone)]
pub(crate) struct TwigShape {
    pub node_attr: Vec<usize>,
    pub parents: Vec<usize>,
    pub schema: Schema,
}

/// Resolve a twig's step attributes against its inputs' schemas, in the
/// exact order the binary cascade would. `None` means the shape is not
/// covered by the holistic operator — map-extended (dotted) attributes,
/// or two steps hanging off *different* ID columns of one input — and
/// the caller must fall back to the cascade.
pub(crate) fn twig_shape(schemas: &[&Schema], steps: &[TwigStep]) -> Option<TwigShape> {
    debug_assert_eq!(schemas.len(), steps.len() + 1);
    // field-offset ranges of each input in the concatenated schema
    let mut offsets: Vec<usize> = Vec::with_capacity(schemas.len() + 1);
    offsets.push(0);
    for s in schemas {
        offsets.push(offsets.last().unwrap() + s.arity());
    }
    // node_attr[j]: the single ID column of input j the pattern uses
    let mut node_attr: Vec<Option<usize>> = vec![None; schemas.len()];
    let mut parents: Vec<usize> = Vec::with_capacity(steps.len());
    let mut prefix = schemas[0].clone();
    for (k, s) in steps.iter().enumerate() {
        // the step's own attribute, inside its input
        match schemas[k + 1].resolve(s.attr.as_str()) {
            Some(idx) if idx.len() == 1 => node_attr[k + 1] = Some(idx[0]),
            _ => return None,
        }
        // the parent attribute, against the concatenated prefix
        // (exactly what the cascade's left side would resolve on)
        match prefix.resolve(s.parent_attr.as_str()) {
            Some(idx) if idx.len() == 1 => {
                let flat = idx[0];
                let p = offsets.partition_point(|&o| o <= flat) - 1;
                let local = flat - offsets[p];
                match node_attr[p] {
                    None => node_attr[p] = Some(local),
                    Some(prev) if prev == local => {}
                    Some(_) => return None,
                }
                parents.push(p);
            }
            _ => return None,
        }
        prefix = prefix.concat(schemas[k + 1]);
    }
    Some(TwigShape {
        node_attr: node_attr
            .into_iter()
            .map(|a| a.expect("every pattern node is referenced"))
            .collect(),
        parents,
        schema: prefix,
    })
}

/// Run the holistic multi-way merge over materialized twig inputs whose
/// shape was validated by [`twig_shape`]: one row-index vector per
/// solution (root first), in the cascade's lexicographic order.
pub(crate) fn twig_solutions(
    rels: &[Relation],
    shape: &TwigShape,
    steps: &[TwigStep],
    config: EvalConfig,
    metrics: Option<&RefCell<ExecMetrics>>,
) -> Result<Vec<Vec<usize>>, EvalError> {
    let mut pattern = TwigPattern::root();
    for (k, s) in steps.iter().enumerate() {
        let id = pattern.add_child(shape.parents[k], s.axis);
        debug_assert_eq!(id, k + 1);
    }
    let mut streams: Vec<Vec<(StructuralId, usize)>> = Vec::with_capacity(rels.len());
    for (r, &col) in rels.iter().zip(&shape.node_attr) {
        packable(r.len())?;
        streams.push(gather_ids(&r.tuples, col));
    }
    // pack each stream to structure-of-arrays — one linear pass per
    // stream, like an index build — and run the merge
    let cols: Vec<IdColumns> = streams
        .iter()
        .map(|s| IdColumns::from_pairs(s, DEFAULT_BLOCK))
        .collect();
    let refs: Vec<&IdColumns> = cols.iter().collect();
    Ok(match metrics {
        Some(m) => twig_join_columnar_metered(&pattern, &refs, config, &mut *m.borrow_mut()),
        None => twig_join_columnar(&pattern, &refs, config),
    })
}

/// The output tuple of one twig solution: the chosen row of every
/// input, concatenated root first.
pub(crate) fn solution_tuple(rels: &[Relation], sol: &[usize]) -> Tuple {
    let arity = rels.iter().map(|r| r.schema.arity()).sum();
    let mut vals = Vec::with_capacity(arity);
    for (r, &i) in rels.iter().zip(sol) {
        vals.extend(r.tuples[i].0.iter().cloned());
    }
    Tuple::new(vals)
}

/// Project a materialized relation to the given dotted paths (public
/// wrapper over the evaluator's projection, used by layers that need to
/// project schemas/relations outside a plan — e.g. XAM binding schemas).
pub fn project_relation(rel: &Relation, paths: &[Path]) -> Result<Relation, EvalError> {
    let spec = ProjSpec::build(&rel.schema, paths)?;
    let schema = spec.schema(&rel.schema);
    let tuples = rel.tuples.iter().map(|t| spec.apply(t.clone())).collect();
    Ok(Relation::new(schema, tuples))
}

// ----------------------------------------------------------------------
// convenience constructors for catalogs over documents

/// Build the *tag-derived list* `R_t(ID, Tag, Val, Cont)` of Definition
/// 2.2.1 for a label (element nodes), in document order.
pub fn tag_derived(doc: &Document, label: &str) -> Relation {
    derived(doc, Some(label), NodeKind::Element)
}

/// `R_t^α` for attributes with the given name.
pub fn tag_derived_attr(doc: &Document, label: &str) -> Relation {
    derived(doc, Some(label), NodeKind::Attribute)
}

/// `R_*`: all elements.
pub fn all_elements(doc: &Document) -> Relation {
    derived(doc, None, NodeKind::Element)
}

/// `R_*^α`: all attributes.
pub fn all_attributes(doc: &Document) -> Relation {
    derived(doc, None, NodeKind::Attribute)
}

fn derived(doc: &Document, label: Option<&str>, kind: NodeKind) -> Relation {
    let schema = Schema::atoms(&["ID", "Tag", "Val", "Cont"]);
    let nodes: Vec<NodeId> = match label {
        Some(l) => doc.nodes_with_label(l, kind).collect(),
        None => doc.all_nodes().filter(|&n| doc.kind(n) == kind).collect(),
    };
    let tuples = nodes
        .into_iter()
        .map(|n| {
            Tuple::new(vec![
                Value::Id(doc.structural_id(n)),
                Value::str(doc.label(n)),
                Value::str(doc.value(n)),
                Value::str(doc.content_str(n)),
            ])
        })
        .collect();
    Relation::new(schema, tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::dedup_key;
    use crate::plan::{Axis, JoinKind, NavMode, Predicate};
    use crate::value::{Collection, Field};
    use xmltree::generate::bib_sample;

    fn setup() -> (Document, Catalog) {
        let doc = bib_sample();
        let mut cat = Catalog::new();
        for l in ["library", "book", "phdthesis", "title", "author"] {
            cat.insert_ordered(l, tag_derived(&doc, l), OrderSpec::by("ID"));
        }
        cat.insert("year_attr", tag_derived_attr(&doc, "year"));
        (doc, cat)
    }

    #[test]
    fn scan_and_select() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let r = ev.eval(&LogicalPlan::scan("book")).unwrap();
        assert_eq!(r.len(), 2);
        let p =
            LogicalPlan::scan("title").select(Predicate::eq("Val", Value::str("Data on the Web")));
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn unknown_relation_and_attribute_errors() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        assert!(matches!(
            ev.eval(&LogicalPlan::scan("nope")),
            Err(EvalError::UnknownRelation(_))
        ));
        let p = LogicalPlan::scan("book").select(Predicate::eq("Nope", Value::Int(1)));
        assert!(matches!(ev.eval(&p), Err(EvalError::UnknownAttribute(_))));
    }

    #[test]
    fn structural_join_parent_child() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // book ⋈≺ author: 2 books, first has 2 authors, second has 1
        let p = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::Inner,
        );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema.arity(), 8);
    }

    #[test]
    fn structural_semijoin_and_outerjoin() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // books having a year attribute: only the 1999 one
        let semi = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("year_attr"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::Semi,
        );
        let r = ev.eval(&semi).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.schema.arity(), 4);
        // outer join keeps both books, padding the second with nulls
        let outer = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("year_attr"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::LeftOuter,
        );
        let r = ev.eval(&outer).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.tuples[1].get(4).is_null());
    }

    #[test]
    fn nest_structural_join() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "authors",
        );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 2);
        let first_authors = r.tuples[0].get(4).as_coll().unwrap();
        assert_eq!(first_authors.len(), 2);
        // nest-outer keeps books without authors too (none here, same count)
        let p2 = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("year_attr"),
            "ID",
            "ID",
            Axis::Child,
            true,
            "years",
        );
        let r2 = ev.eval(&p2).unwrap();
        assert_eq!(r2.len(), 2);
        assert_eq!(r2.tuples[1].get(4).as_coll().unwrap().len(), 0);
    }

    #[test]
    fn descendant_axis_join() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("library").struct_join(
            LogicalPlan::scan("title"),
            "ID",
            "ID",
            Axis::Descendant,
            JoinKind::Inner,
        );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 3); // all three titles are descendants
    }

    #[test]
    fn stacktree_matches_nested_loop() {
        let (_doc, cat) = setup();
        let mut ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("library").struct_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Descendant,
            JoinKind::Inner,
        );
        let a = ev.eval(&p).unwrap();
        ev.config.use_stacktree = false;
        let b = ev.eval(&p).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn projection_flat_and_nested() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("book")
            .struct_nest_join(
                LogicalPlan::scan("author"),
                "ID",
                "ID",
                Axis::Child,
                false,
                "authors",
            )
            .project(&["ID", "authors.Val"]);
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.schema.to_string(), "(ID, authors(Val))");
        let auth = r.tuples[0].get(1).as_coll().unwrap();
        assert_eq!(auth.tuples[0].arity(), 1);
    }

    #[test]
    fn distinct_projection() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("author").project(&["Tag"]);
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 4);
        let p = LogicalPlan::scan("author").project_distinct(&["Tag"]);
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
    }

    /// Regression for the `O(n²)` `seen` scan the hashed key set
    /// replaced: 10k duplicates collapse to their distinct values, with
    /// the comparator's exact equality classes (order preserved
    /// first-seen, `Int(1)` ≠ `Str("1")`, nulls equal each other, IDs
    /// equal by `pre` alone, collections compared element-wise).
    #[test]
    fn distinct_projection_hashes_10k_duplicates() {
        let schema = Schema::atoms(&["K", "V"]);
        let mut tuples = Vec::with_capacity(10_000);
        for i in 0..10_000u32 {
            let v = match i % 5 {
                0 => Value::Int(1),
                1 => Value::str("1"),
                2 => Value::Null,
                3 => Value::Coll(Collection::list(vec![Tuple::new(vec![Value::Int(7)])])),
                _ => Value::str("x"),
            };
            tuples.push(Tuple::new(vec![Value::Int((i % 10) as i64 / 5), v]));
        }
        let mut cat = Catalog::new();
        cat.insert("dup", Relation::new(schema, tuples));
        let ev = Evaluator::new(&cat);
        let r = ev
            .eval(&LogicalPlan::scan("dup").project_distinct(&["K", "V"]))
            .unwrap();
        assert_eq!(r.len(), 10, "5 values × 2 keys survive");
        // the hashed keys respect tuple_cmp_all's equality exactly
        for (a, b) in [(0usize, 1usize), (2, 3)] {
            assert_ne!(
                dedup_key(&r.tuples[a]),
                dedup_key(&r.tuples[b]),
                "{} vs {}",
                r.tuples[a],
                r.tuples[b]
            );
        }
        for t in &r.tuples {
            assert_eq!(dedup_key(t), dedup_key(&t.clone()));
        }
        // first-seen order is preserved, as with the old scan
        assert_eq!(r.tuples[0].get(1), &Value::Int(1));
        assert_eq!(r.tuples[1].get(1), &Value::str("1"));
    }

    #[test]
    fn value_join_and_semijoin() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // self-join titles on equal values: 3 tuples (each matches itself)
        let p = LogicalPlan::Project {
            input: Box::new(LogicalPlan::scan("title")),
            cols: vec![Path::new("Val")],
            distinct: false,
        }
        .join(
            LogicalPlan::scan("title").project(&["Cont"]),
            Predicate::True,
            JoinKind::Inner,
        );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 9); // cross product via true predicate
    }

    #[test]
    fn union_difference() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let u = LogicalPlan::scan("book").union(LogicalPlan::scan("phdthesis"));
        assert_eq!(ev.eval(&u).unwrap().len(), 3);
        let d = LogicalPlan::scan("book").difference(LogicalPlan::scan("book"));
        assert_eq!(ev.eval(&d).unwrap().len(), 0);
        // arity mismatch errors
        let bad = LogicalPlan::scan("book").union(LogicalPlan::scan("book").project(&["ID"]));
        assert!(ev.eval(&bad).is_err());
    }

    #[test]
    fn group_by_and_unnest_roundtrip() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let g = LogicalPlan::GroupBy {
            input: Box::new(LogicalPlan::scan("author").project(&["Tag", "Val"])),
            keys: vec![Path::new("Tag")],
            nest_as: "vals".into(),
        };
        let r = ev.eval(&g).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples[0].get(1).as_coll().unwrap().len(), 4);
        let u = LogicalPlan::Unnest {
            input: Box::new(g),
            attr: Path::new("vals"),
        };
        let r = ev.eval(&u).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.schema.arity(), 2);
    }

    #[test]
    fn nested_select_reduces() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // nest authors under books, then select books having author "Suciu";
        // the nested collection is reduced to the matching author.
        let p = LogicalPlan::scan("book")
            .struct_nest_join(
                LogicalPlan::scan("author"),
                "ID",
                "ID",
                Axis::Child,
                false,
                "authors",
            )
            .select(Predicate::eq("authors.Val", Value::str("Suciu")));
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
        let auth = r.tuples[0].get(4).as_coll().unwrap();
        assert_eq!(auth.len(), 1);
        assert_eq!(auth.tuples[0].get(2).as_str(), Some("Suciu"));
    }

    #[test]
    fn map_struct_join_into_nested() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // nest books under library, then struct-join authors inside nest
        let p = LogicalPlan::scan("library")
            .struct_nest_join(
                LogicalPlan::scan("book"),
                "ID",
                "ID",
                Axis::Child,
                false,
                "books",
            )
            .struct_join(
                LogicalPlan::scan("author"),
                "books.ID",
                "ID",
                Axis::Child,
                JoinKind::Inner,
            );
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
        // nested books collection now pairs each book with its authors
        let books = r.tuples[0].get(4).as_coll().unwrap();
        assert_eq!(books.len(), 3); // (book1,a1),(book1,a2),(book2,a3)
    }

    #[test]
    fn sort_by_value() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("author").sort(&["Val"]);
        let r = ev.eval(&p).unwrap();
        let vals: Vec<_> = r
            .tuples
            .iter()
            .map(|t| t.get(2).as_str().unwrap().to_string())
            .collect();
        let mut sorted = vals.clone();
        sorted.sort();
        assert_eq!(vals, sorted);
    }

    #[test]
    fn navigate_from_ids() {
        let (doc, cat) = setup();
        let ev = Evaluator::with_document(&cat, &doc);
        let p = LogicalPlan::Navigate {
            input: Box::new(LogicalPlan::scan("book")),
            from_attr: Path::new("ID"),
            axis: Axis::Child,
            label: "author".into(),
            as_prefix: "a".into(),
            mode: NavMode::Flat,
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.schema.index_of("a_Val").is_some());
        // without a document the operator errors
        let ev2 = Evaluator::new(&cat);
        assert!(matches!(ev2.eval(&p), Err(EvalError::NeedsDocument(_))));
    }

    #[test]
    fn derive_ancestor_ids() {
        let (doc, cat) = setup();
        let ev = Evaluator::with_document(&cat, &doc);
        let p = LogicalPlan::DeriveAncestorId {
            input: Box::new(LogicalPlan::scan("author")),
            attr: Path::new("ID"),
            levels: 1,
            as_name: "parentID".into(),
        };
        let r = ev.eval(&p).unwrap();
        for t in &r.tuples {
            let parent = t.get(4).as_id().unwrap();
            let child = t.get(0).as_id().unwrap();
            assert!(parent.is_parent_of(child));
        }
    }

    #[test]
    fn nest_all_packs_everything() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::NestAll {
            input: Box::new(LogicalPlan::scan("author")),
            as_name: "A1".into(),
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples[0].get(0).as_coll().unwrap().len(), 4);
    }

    #[test]
    fn rename_and_cast_schema() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::scan("book").rename(&["a", "b", "c", "d"]);
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.schema.to_string(), "(a, b, c, d)");
        // arity mismatch errors
        let bad = LogicalPlan::scan("book").rename(&["x"]);
        assert!(matches!(ev.eval(&bad), Err(EvalError::TypeError(_))));
        // deep cast replaces nested names when shapes agree
        let nested = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("author"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "authors",
        );
        let target = {
            let mut s = Schema::atoms(&["i", "t", "v", "c"]);
            s.fields.push(Field::nested(
                "people",
                Schema::atoms(&["pi", "pt", "pv", "pc"]),
            ));
            s
        };
        let cast = LogicalPlan::CastSchema {
            input: Box::new(nested.clone()),
            schema: target.clone(),
        };
        let r = ev.eval(&cast).unwrap();
        assert_eq!(r.schema, target);
        // shape mismatch errors
        let bad = LogicalPlan::CastSchema {
            input: Box::new(nested),
            schema: Schema::atoms(&["only", "four", "flat", "cols", "x"]),
        };
        assert!(ev.eval(&bad).is_err());
    }

    #[test]
    fn fetch_and_navigate_modes() {
        let (doc, cat) = setup();
        let ev = Evaluator::with_document(&cat, &doc);
        // Fetch the value/content/tag of books from their IDs
        let p = LogicalPlan::Fetch {
            input: Box::new(LogicalPlan::scan("book").project(&["ID"])),
            id_attr: Path::new("ID"),
            what: crate::plan::FetchWhat::Tag,
            as_name: "tag".into(),
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.tuples[0].get(1).as_str(), Some("book"));
        // Navigate Exists keeps only books with authors, adds no columns
        let p = LogicalPlan::Navigate {
            input: Box::new(LogicalPlan::scan("book")),
            from_attr: Path::new("ID"),
            axis: Axis::Child,
            label: "author".into(),
            as_prefix: "a".into(),
            mode: NavMode::Exists,
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema.arity(), 4);
        // Navigate Outer null-pads (books → @year on the second book)
        let p = LogicalPlan::Navigate {
            input: Box::new(LogicalPlan::scan("book")),
            from_attr: Path::new("ID"),
            axis: Axis::Child,
            label: "@year".into(),
            as_prefix: "y".into(),
            mode: NavMode::Outer,
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.tuples[1].get(4).is_null());
    }

    #[test]
    fn twig_join_matches_cascade_exactly() {
        let (_doc, cat) = setup();
        // library ⋈≺≺ book ⋈≺ author ⋈≺ title as one twig
        let cascade = LogicalPlan::scan("library")
            .rename(&["l_id", "l_t", "l_v", "l_c"])
            .struct_join(
                LogicalPlan::scan("book").rename(&["b_id", "b_t", "b_v", "b_c"]),
                "l_id",
                "b_id",
                Axis::Descendant,
                JoinKind::Inner,
            )
            .struct_join(
                LogicalPlan::scan("author").rename(&["a_id", "a_t", "a_v", "a_c"]),
                "b_id",
                "a_id",
                Axis::Child,
                JoinKind::Inner,
            )
            .struct_join(
                LogicalPlan::scan("title").rename(&["t_id", "t_t", "t_v", "t_c"]),
                "b_id",
                "t_id",
                Axis::Child,
                JoinKind::Inner,
            );
        let fused = crate::twig::fuse_struct_joins(&cascade);
        assert!(matches!(fused, LogicalPlan::TwigJoin { .. }));
        let mut ev = Evaluator::new(&cat);
        let via_twig = ev.eval(&fused).unwrap();
        let via_cascade = ev.eval(&cascade).unwrap();
        assert_eq!(via_twig, via_cascade, "tuples and order must agree");
        assert_eq!(via_twig.len(), 3); // 2 authors + 1 author, each with a title
                                       // the toggle routes through the cascade and still agrees
        ev.config.use_twigstack = false;
        assert_eq!(ev.eval(&fused).unwrap(), via_cascade);
    }

    #[test]
    fn profiled_eval_matches_plain_and_mirrors_plan_shape() {
        let (_doc, cat) = setup();
        let plan = LogicalPlan::scan("book")
            .rename(&["b_id", "b_t", "b_v", "b_c"])
            .struct_join(
                LogicalPlan::scan("author").rename(&["a_id", "a_t", "a_v", "a_c"]),
                "b_id",
                "a_id",
                Axis::Child,
                JoinKind::Inner,
            )
            .project(&["a_v"]);
        let ev = Evaluator::new(&cat);
        let plain = ev.eval(&plan).unwrap();
        let (profiled, prof) = ev.eval_profiled(&plan).unwrap();
        assert_eq!(
            profiled, plain,
            "profiled execution must not change results"
        );
        // tree mirrors the plan: project → join → {rename → scan} × 2
        assert_eq!(prof.node_count(), plan.size());
        assert_eq!(prof.out_rows, plain.len() as u64);
        assert!(prof.op.starts_with("Project"), "{}", prof.op);
        let join = &prof.children[0];
        assert!(join.op.starts_with("StructJoin"), "{}", join.op);
        assert_eq!(join.children.len(), 2);
        assert!(join.metrics.comparisons > 0, "{:?}", join.metrics);
        // time aggregates: parent includes children
        assert!(prof.time_ns >= join.time_ns);
        // profiling off by default: the evaluator carries no metrics
        assert!(ev.metrics.is_none());
    }

    #[test]
    fn profiled_twig_counts_fallbacks_when_toggled_off() {
        let (_doc, cat) = setup();
        let twig = LogicalPlan::scan("book")
            .rename(&["b_id", "b_t", "b_v", "b_c"])
            .twig_join(vec![TwigStep::new(
                LogicalPlan::scan("author").rename(&["a_id", "a_t", "a_v", "a_c"]),
                "b_id",
                "a_id",
                Axis::Child,
            )]);
        let mut ev = Evaluator::new(&cat);
        let (_, prof) = ev.eval_profiled(&twig).unwrap();
        assert_eq!(prof.metrics.twig_fallbacks, 0);
        ev.config.use_twigstack = false;
        let (rel, prof_off) = ev.eval_profiled(&twig).unwrap();
        assert_eq!(prof_off.metrics.twig_fallbacks, 1, "{:?}", prof_off.metrics);
        assert_eq!(rel.len() as u64, prof_off.out_rows);
    }

    #[test]
    fn twig_join_falls_back_on_nested_attrs() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        // left attribute inside a nested collection: the holistic path
        // cannot run, the arm must transparently take the cascade route
        let nested = LogicalPlan::scan("library").struct_nest_join(
            LogicalPlan::scan("book"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "books",
        );
        let twig = nested.clone().twig_join(vec![TwigStep::new(
            LogicalPlan::scan("author"),
            "books.ID",
            "ID",
            Axis::Child,
        )]);
        let direct = nested.struct_join(
            LogicalPlan::scan("author"),
            "books.ID",
            "ID",
            Axis::Child,
            JoinKind::Inner,
        );
        assert_eq!(ev.eval(&twig).unwrap(), ev.eval(&direct).unwrap());
    }

    #[test]
    fn oversized_join_inputs_are_refused() {
        assert_eq!(packable(u32::MAX as usize), Ok(()));
        let too_many = u32::MAX as usize + 1;
        assert_eq!(packable(too_many), Err(EvalError::TooManyTuples(too_many)));
        assert!(EvalError::TooManyTuples(too_many)
            .to_string()
            .contains("exceeds"));
    }

    #[test]
    fn twig_join_unknown_attr_errors() {
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let twig = LogicalPlan::scan("book").twig_join(vec![TwigStep::new(
            LogicalPlan::scan("author"),
            "Nope",
            "ID",
            Axis::Child,
        )]);
        assert!(matches!(
            ev.eval(&twig),
            Err(EvalError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn xml_template_operator() {
        use crate::xmlgen::Template;
        let (_doc, cat) = setup();
        let ev = Evaluator::new(&cat);
        let p = LogicalPlan::XmlTemplate {
            input: Box::new(LogicalPlan::scan("title").project(&["Val"])),
            templ: Template::elem("t", vec![Template::attr("Val")]),
        };
        let r = ev.eval(&p).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.tuples[0].get(0).as_str(), Some("<t>Data on the Web</t>"));
    }
}

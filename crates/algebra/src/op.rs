//! Compiled operators: the row logic of every algebra operator, written
//! once and shared by the materialized [`crate::Evaluator`] and the
//! pipelined cursors of [`crate::cursor`].
//!
//! An operator is compiled against its input schema(s) — attribute
//! paths resolved to field indexes, predicates and templates bound,
//! labels interned, the output schema computed — and then applied to
//! tuples: [`Unary::apply`] maps one batch to one batch, [`Binary`]
//! drains its right input into a [`Build`] once and probes it with left
//! batches, and [`Breaker`] sees its whole input at once. Every error a
//! plan can raise (unknown attributes, type misuse, a missing document)
//! surfaces at compile time; applying never fails except for the join
//! kernels' `u32` input bound.
//!
//! Compilation takes a [`Demand`]: the top-level column names the
//! parent reads. Only `Navigate` acts on it — a `<prefix>_Val` or
//! `<prefix>_Cont` column nobody reads is neither computed nor emitted.
//! [`child_demands`] says what each operator passes down.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

use obs::{ExecMetrics, Meter};
use xmltree::{Document, NodeId, NodeKind, StructuralId};

use crate::eval::{EvalConfig, EvalError};
use crate::order::{tuple_cmp_all, value_cmp};
use crate::plan::{
    Axis, CmpOp, FetchWhat, JoinKind, LogicalPlan, NavMode, Operand, Path, Predicate,
};
use crate::simd::{IdColumns, DEFAULT_BLOCK};
use crate::stacktree::{
    nested_loop_pairs, stack_tree_pairs_columnar, stack_tree_pairs_columnar_metered,
};
use crate::value::{Collection, Field, FieldKind, Schema, Tuple, Value};
use crate::xmlgen::TemplatePlan;

// ----------------------------------------------------------------------
// column demand

/// The top-level column names a parent operator reads from its input.
#[derive(Debug, Clone)]
pub(crate) enum Demand {
    /// Every column (positional parents, the plan root, the oracle).
    All,
    Cols(HashSet<String>),
}

impl Demand {
    pub(crate) fn reads(&self, name: &str) -> bool {
        match self {
            Demand::All => true,
            Demand::Cols(c) => c.contains(name),
        }
    }

    /// Exactly the heads of `paths`.
    fn of<'p>(paths: impl IntoIterator<Item = &'p Path>) -> Demand {
        Demand::Cols(paths.into_iter().map(head).collect())
    }

    /// This demand plus the heads of `paths`.
    fn with<'p>(&self, paths: impl IntoIterator<Item = &'p Path>) -> Demand {
        match self {
            Demand::All => Demand::All,
            Demand::Cols(c) => {
                let mut c = c.clone();
                c.extend(paths.into_iter().map(head));
                Demand::Cols(c)
            }
        }
    }
}

/// The top-level field a dotted path starts at.
fn head(p: &Path) -> String {
    let s = p.as_str();
    s.split_once('.').map_or(s, |(h, _)| h).to_string()
}

fn pred_paths<'p>(pred: &'p Predicate, out: &mut Vec<&'p Path>) {
    match pred {
        Predicate::Cmp(l, _, r) => {
            for o in [l, r] {
                if let Operand::Col(p) = o {
                    out.push(p);
                }
            }
        }
        Predicate::IsNull(p) | Predicate::NotNull(p) => out.push(p),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            pred_paths(a, out);
            pred_paths(b, out);
        }
        Predicate::Not(a) => pred_paths(a, out),
        Predicate::True => {}
    }
}

/// What `plan` demands of each of its children (in
/// [`LogicalPlan::child_plans`] order), given what its parent demands
/// of it. `Project` demands exactly its columns; `Select`, `Fetch`,
/// `Navigate`, `DeriveAncestorId`, `Sort` and the joins pass the
/// parent's demand down plus the columns they read themselves; every
/// other operator reads its input positionally or whole and demands
/// all of it. A demand naming a column the child does not produce is
/// harmless: demand only ever *keeps* columns.
pub(crate) fn child_demands(plan: &LogicalPlan, demand: &Demand) -> Vec<Demand> {
    use LogicalPlan::*;
    match plan {
        Scan { .. } => Vec::new(),
        Select { pred, .. } => {
            let mut ps = Vec::new();
            pred_paths(pred, &mut ps);
            vec![demand.with(ps)]
        }
        Project { cols, .. } => vec![Demand::of(cols)],
        Fetch { id_attr, .. } => vec![demand.with([id_attr])],
        Navigate { from_attr, .. } => vec![demand.with([from_attr])],
        DeriveAncestorId { attr, .. } => vec![demand.with([attr])],
        Sort { by, .. } => vec![demand.with(by)],
        Product { .. } => vec![demand.clone(), demand.clone()],
        Join { pred, .. } => {
            let mut ps = Vec::new();
            pred_paths(pred, &mut ps);
            let d = demand.with(ps);
            vec![d.clone(), d]
        }
        StructJoin {
            left_attr,
            right_attr,
            kind,
            ..
        } => {
            let right = match kind {
                // the nested collection carries whole right tuples
                JoinKind::Nest | JoinKind::NestOuter => Demand::All,
                _ => demand.with([right_attr]),
            };
            vec![demand.with([left_attr]), right]
        }
        TwigJoin { steps, .. } => vec![Demand::All; steps.len() + 1],
        Union { .. } | Difference { .. } => vec![Demand::All, Demand::All],
        GroupBy { .. }
        | NestAll { .. }
        | Unnest { .. }
        | XmlTemplate { .. }
        | Rename { .. }
        | CastSchema { .. } => vec![Demand::All],
    }
}

// ----------------------------------------------------------------------
// path utilities

/// Resolve a dotted path to field indexes.
fn resolve(schema: &Schema, p: &Path) -> Result<Vec<usize>, EvalError> {
    schema
        .resolve(p.as_str())
        .ok_or_else(|| EvalError::UnknownAttribute(p.as_str().to_string()))
}

/// Does this index path cross a nested collection (a resolved path only
/// descends through nested fields, so any path longer than one step
/// does)?
fn crosses_collection(schema: &Schema, idx: &[usize]) -> bool {
    idx.len() > 1 && matches!(schema.fields[idx[0]].kind, FieldKind::Nested(_))
}

/// `l || r` in one allocation.
fn concat(l: &Tuple, r: &Tuple) -> Tuple {
    let mut v = Vec::with_capacity(l.arity() + r.arity());
    v.extend(l.0.iter().cloned());
    v.extend(r.0.iter().cloned());
    Tuple(v)
}

/// The join kernels pack tuple positions into a `u32` payload column:
/// an input with more tuples than that is refused, not truncated.
pub(crate) fn packable(tuples: usize) -> Result<(), EvalError> {
    if tuples > u32::MAX as usize {
        return Err(EvalError::TooManyTuples(tuples));
    }
    Ok(())
}

fn is_sorted_by_pre(ids: &[(StructuralId, usize)]) -> bool {
    ids.windows(2).all(|w| w[0].0.pre <= w[1].0.pre)
}

/// `(ID, position)` of every tuple whose `col` holds an ID, sorted by
/// `pre` (stable, so equal IDs keep input order).
pub(crate) fn gather_ids(tuples: &[Tuple], col: usize) -> Vec<(StructuralId, usize)> {
    let mut ids: Vec<(StructuralId, usize)> = tuples
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.get(col).as_id().map(|sid| (sid, i)))
        .collect();
    if !is_sorted_by_pre(&ids) {
        ids.sort_by_key(|(s, _)| s.pre);
    }
    ids
}

// ----------------------------------------------------------------------
// predicates

/// A field reader: a tuple, or a left/right pair read as their
/// concatenation without building it.
trait Row {
    fn at(&self, i: usize) -> &Value;
}

impl Row for Tuple {
    fn at(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

struct Pair<'t>(&'t Tuple, &'t Tuple);

impl Row for Pair<'_> {
    fn at(&self, i: usize) -> &Value {
        let n = self.0.arity();
        if i < n {
            &self.0 .0[i]
        } else {
            &self.1 .0[i - n]
        }
    }
}

/// Does `f` hold for some atomic value reachable at `rest` below `v`,
/// descending through nested collections (existential `map`
/// semantics)? A path that runs into an atom early reaches `⊥`.
fn any_reachable(v: &Value, rest: &[usize], f: &mut dyn FnMut(&Value) -> bool) -> bool {
    match (v, rest) {
        (v, []) => f(v),
        (Value::Coll(c), rest) => c
            .tuples
            .iter()
            .any(|t| any_reachable(t.get(rest[0]), &rest[1..], f)),
        _ => f(&Value::Null),
    }
}

fn any_at<R: Row>(row: &R, idx: &[usize], f: &mut dyn FnMut(&Value) -> bool) -> bool {
    any_reachable(row.at(idx[0]), &idx[1..], f)
}

enum COperand {
    Const(Value),
    Col(Vec<usize>),
}

/// A predicate with its attribute paths resolved.
enum CPred {
    True,
    Cmp(COperand, CmpOp, COperand),
    IsNull(Vec<usize>),
    NotNull(Vec<usize>),
    And(Box<CPred>, Box<CPred>),
    Or(Box<CPred>, Box<CPred>),
    Not(Box<CPred>),
}

impl CPred {
    fn compile(schema: &Schema, pred: &Predicate) -> Result<CPred, EvalError> {
        let operand = |o: &Operand| -> Result<COperand, EvalError> {
            Ok(match o {
                Operand::Const(v) => COperand::Const(v.clone()),
                Operand::Col(p) => COperand::Col(resolve(schema, p)?),
            })
        };
        Ok(match pred {
            Predicate::True => CPred::True,
            Predicate::Cmp(l, op, r) => CPred::Cmp(operand(l)?, *op, operand(r)?),
            Predicate::IsNull(p) => CPred::IsNull(resolve(schema, p)?),
            Predicate::NotNull(p) => CPred::NotNull(resolve(schema, p)?),
            Predicate::And(a, b) => CPred::And(
                Box::new(CPred::compile(schema, a)?),
                Box::new(CPred::compile(schema, b)?),
            ),
            Predicate::Or(a, b) => CPred::Or(
                Box::new(CPred::compile(schema, a)?),
                Box::new(CPred::compile(schema, b)?),
            ),
            Predicate::Not(a) => CPred::Not(Box::new(CPred::compile(schema, a)?)),
        })
    }

    fn eval<R: Row>(&self, row: &R) -> bool {
        match self {
            CPred::True => true,
            CPred::And(a, b) => a.eval(row) && b.eval(row),
            CPred::Or(a, b) => a.eval(row) || b.eval(row),
            CPred::Not(a) => !a.eval(row),
            CPred::IsNull(idx) => !any_at(row, idx, &mut |v| !v.is_null()),
            CPred::NotNull(idx) => any_at(row, idx, &mut |v| !v.is_null()),
            CPred::Cmp(l, op, r) => {
                let mut right = |a: &Value| match r {
                    COperand::Const(b) => cmp_values(a, *op, b),
                    COperand::Col(idx) => any_at(row, idx, &mut |b| cmp_values(a, *op, b)),
                };
                match l {
                    COperand::Const(a) => right(a),
                    COperand::Col(idx) => any_at(row, idx, &mut right),
                }
            }
        }
    }
}

fn cmp_values(a: &Value, op: CmpOp, b: &Value) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Parent => match (a.as_id(), b.as_id()) {
            (Some(x), Some(y)) => x.is_parent_of(y),
            _ => false,
        },
        CmpOp::Ancestor => match (a.as_id(), b.as_id()) {
            (Some(x), Some(y)) => x.is_ancestor_of(y),
            _ => false,
        },
        CmpOp::Contains => match (a, b) {
            (Value::Str(x), Value::Str(y)) => x.contains(y.as_ref()),
            _ => false,
        },
        _ => match a.compare(b) {
            None => false,
            Some(ord) => match op {
                CmpOp::Eq => ord == Equal,
                CmpOp::Ne => ord != Equal,
                CmpOp::Lt => ord == Less,
                CmpOp::Le => ord != Greater,
                CmpOp::Gt => ord == Greater,
                CmpOp::Ge => ord != Less,
                CmpOp::Parent | CmpOp::Ancestor | CmpOp::Contains => unreachable!(),
            },
        },
    }
}

/// Reduce a tuple on a nested path: keep only nested tuples whose value
/// at the path satisfies `f`; eliminate the tuple if nothing remains
/// (Example 1.2.2's `map(σ, r, A1.A11)`).
fn reduce_tuple(mut t: Tuple, idx: &[usize], f: &mut dyn FnMut(&Value) -> bool) -> Option<Tuple> {
    fn rec(v: &mut Value, rest: &[usize], f: &mut dyn FnMut(&Value) -> bool) -> bool {
        match v {
            Value::Coll(c) => {
                c.tuples
                    .retain_mut(|t| rec(&mut t.0[rest[0]], &rest[1..], f));
                !c.tuples.is_empty()
            }
            v => rest.is_empty() && f(v),
        }
    }
    rec(&mut t.0[idx[0]], &idx[1..], f).then_some(t)
}

// ----------------------------------------------------------------------
// duplicate elimination

/// Identity hasher for keys that already are 64-bit hashes.
#[derive(Default)]
struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys")
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

fn hash_tuple<H: Hasher>(t: &Tuple, h: &mut H) {
    h.write_usize(t.arity());
    for v in &t.0 {
        hash_value(v, h);
    }
}

fn hash_value<H: Hasher>(v: &Value, h: &mut H) {
    match v {
        Value::Null => h.write_u8(0),
        Value::Id(id) => {
            h.write_u8(1);
            h.write_u32(id.pre);
        }
        Value::Int(x) => {
            h.write_u8(2);
            h.write_i64(*x);
        }
        Value::Str(s) => {
            h.write_u8(3);
            s.as_ref().hash(h);
        }
        Value::Coll(c) => {
            h.write_u8(4);
            h.write_usize(c.tuples.len());
            for t in &c.tuples {
                hash_tuple(t, h);
            }
        }
    }
}

/// Hash of a tuple under [`tuple_cmp_all`]'s equality: values are
/// type-tagged (`Int(1)` and `Str("1")` differ), IDs hash on `pre`
/// alone (the equality class of [`value_cmp`]), and collections hash
/// element-wise ignoring their [`crate::CollKind`], exactly as the
/// comparator compares. Equal tuples hash equal; the hashed sets below
/// confirm every hit with the comparator. The hasher is keyed randomly
/// once per process, since the values come from documents.
pub(crate) fn dedup_key(t: &Tuple) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    let mut h = KEYS.get_or_init(RandomState::new).build_hasher();
    hash_tuple(t, &mut h);
    h.finish()
}

/// A set of tuples under [`tuple_cmp_all`]'s equality, storing only
/// positions into a tuple slice the caller owns: buckets by
/// [`dedup_key`], chained through `next`.
#[derive(Default)]
struct TupleSet {
    heads: HashMap<u64, usize, BuildHasherDefault<PreHashed>>,
    next: Vec<usize>,
}

impl TupleSet {
    const END: usize = usize::MAX;

    fn with_capacity(n: usize) -> TupleSet {
        TupleSet {
            heads: HashMap::with_capacity_and_hasher(n, Default::default()),
            next: Vec::with_capacity(n),
        }
    }

    /// Is a tuple equal to `t` among the positions inserted so far?
    fn contains(&self, tuples: &[Tuple], t: &Tuple, key: u64) -> bool {
        let mut at = self.heads.get(&key).copied().unwrap_or(Self::END);
        while at != Self::END {
            if tuple_cmp_all(&tuples[at], t) == std::cmp::Ordering::Equal {
                return true;
            }
            at = self.next[at];
        }
        false
    }

    /// Insert position `i` (positions are inserted densely, in order).
    fn insert(&mut self, i: usize, key: u64) {
        debug_assert_eq!(i, self.next.len());
        let prev = self.heads.insert(key, i).unwrap_or(Self::END);
        self.next.push(prev);
    }

    /// All of `tuples`, indexed.
    fn of(tuples: &[Tuple]) -> TupleSet {
        let mut set = TupleSet::with_capacity(tuples.len());
        for (i, t) in tuples.iter().enumerate() {
            set.insert(i, dedup_key(t));
        }
        set
    }
}

/// Keep the first occurrence of every tuple, in input order.
fn dedup(tuples: Vec<Tuple>) -> Vec<Tuple> {
    let mut set = TupleSet::with_capacity(tuples.len());
    let mut out: Vec<Tuple> = Vec::with_capacity(tuples.len());
    for t in tuples {
        let key = dedup_key(&t);
        if !set.contains(&out, &t, key) {
            set.insert(out.len(), key);
            out.push(t);
        }
    }
    out
}

// ----------------------------------------------------------------------
// projection spec

/// Compiled projection: which fields to keep, with optional nested
/// sub-projections.
pub(crate) struct ProjSpec {
    keep: Vec<(usize, Option<ProjSpec>)>,
}

impl ProjSpec {
    pub(crate) fn build(schema: &Schema, cols: &[Path]) -> Result<ProjSpec, EvalError> {
        // Group paths by leading segment, preserving first-appearance order.
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<String>> = HashMap::new();
        for c in cols {
            let (head, rest) = match c.as_str().split_once('.') {
                Some((h, r)) => (h.to_string(), Some(r.to_string())),
                None => (c.as_str().to_string(), None),
            };
            let e = groups.entry(head.clone()).or_insert_with(|| {
                order.push(head);
                Vec::new()
            });
            if let Some(r) = rest {
                e.push(r);
            }
        }
        let mut keep = Vec::new();
        for head in order {
            let i = schema
                .index_of(&head)
                .ok_or_else(|| EvalError::UnknownAttribute(head.clone()))?;
            let subs = &groups[&head];
            if subs.is_empty() {
                keep.push((i, None));
            } else {
                let inner = match &schema.fields[i].kind {
                    FieldKind::Nested(s) => s,
                    FieldKind::Atom => {
                        return Err(EvalError::UnknownAttribute(format!("{head}.{}", subs[0])))
                    }
                };
                let sub_paths: Vec<Path> = subs.iter().map(|s| Path::new(s.clone())).collect();
                keep.push((i, Some(ProjSpec::build(inner, &sub_paths)?)));
            }
        }
        Ok(ProjSpec { keep })
    }

    pub(crate) fn schema(&self, schema: &Schema) -> Schema {
        let fields = self
            .keep
            .iter()
            .map(|(i, sub)| {
                let f = &schema.fields[*i];
                match sub {
                    None => f.clone(),
                    Some(spec) => {
                        let inner = match &f.kind {
                            FieldKind::Nested(s) => spec.schema(s),
                            FieldKind::Atom => unreachable!(),
                        };
                        Field::nested(f.name.clone(), inner)
                    }
                }
            })
            .collect();
        Schema::new(fields)
    }

    /// Project one tuple, moving the kept values out of it (each field
    /// is kept at most once: paths are grouped by head).
    pub(crate) fn apply(&self, mut t: Tuple) -> Tuple {
        let vals = self
            .keep
            .iter()
            .map(|(i, sub)| {
                let v = std::mem::replace(&mut t.0[*i], Value::Null);
                match sub {
                    None => v,
                    Some(spec) => match v {
                        Value::Coll(c) => Value::Coll(Collection {
                            kind: c.kind,
                            tuples: c.tuples.into_iter().map(|nt| spec.apply(nt)).collect(),
                        }),
                        _ => Value::Null,
                    },
                }
            })
            .collect();
        Tuple::new(vals)
    }
}

// ----------------------------------------------------------------------
// unary operators

/// A compiled one-input, batch-at-a-time operator.
pub(crate) struct Unary<'a> {
    pub(crate) schema: Schema,
    kind: UnaryKind<'a>,
}

enum UnaryKind<'a> {
    /// `σ` over flat (or mixed) paths: keep tuples satisfying the
    /// predicate.
    Filter(CPred),
    /// `map(σ, r, A1.A11)`: a single comparison against a constant on a
    /// collection-crossing path reduces the nested collections.
    Reduce {
        idx: Vec<usize>,
        op: CmpOp,
        c: Value,
    },
    Project(ProjSpec),
    Unnest(usize),
    Template(TemplatePlan),
    Navigate(Nav<'a>),
    Fetch {
        doc: &'a Document,
        col: usize,
        what: FetchWhat,
    },
    DeriveAncestor {
        doc: &'a Document,
        col: usize,
        levels: u16,
    },
    /// `Rename`, `CastSchema`: only the schema changes.
    Relabel,
}

impl<'a> Unary<'a> {
    /// Compile a one-input node against its input schema. `demand` is
    /// what the node's parent reads of its output.
    pub(crate) fn compile(
        plan: &LogicalPlan,
        input: &Schema,
        demand: &Demand,
        doc: Option<&'a Document>,
    ) -> Result<Unary<'a>, EvalError> {
        use LogicalPlan::*;
        let (schema, kind) = match plan {
            Select { pred, .. } => {
                if let Predicate::Cmp(Operand::Col(p), op, Operand::Const(c)) = pred {
                    let idx = resolve(input, p)?;
                    if crosses_collection(input, &idx) {
                        let kind = UnaryKind::Reduce {
                            idx,
                            op: *op,
                            c: c.clone(),
                        };
                        return Ok(Unary {
                            schema: input.clone(),
                            kind,
                        });
                    }
                }
                (
                    input.clone(),
                    UnaryKind::Filter(CPred::compile(input, pred)?),
                )
            }
            Project { cols, .. } => {
                let spec = ProjSpec::build(input, cols)?;
                (spec.schema(input), UnaryKind::Project(spec))
            }
            Unnest { attr, .. } => {
                let idx = resolve(input, attr)?;
                if idx.len() != 1 {
                    return Err(EvalError::TypeError(
                        "unnest attribute must be top-level".into(),
                    ));
                }
                let i = idx[0];
                let inner = match &input.fields[i].kind {
                    FieldKind::Nested(s) => s,
                    FieldKind::Atom => {
                        return Err(EvalError::TypeError("unnest of atomic attribute".into()))
                    }
                };
                let mut fields = Vec::new();
                for (j, f) in input.fields.iter().enumerate() {
                    if j == i {
                        fields.extend(inner.fields.iter().cloned());
                    } else {
                        fields.push(f.clone());
                    }
                }
                (Schema::new(fields), UnaryKind::Unnest(i))
            }
            XmlTemplate { templ, .. } => (
                Schema::atoms(&["xml"]),
                UnaryKind::Template(templ.compile(input)?),
            ),
            Navigate {
                from_attr,
                axis,
                label,
                as_prefix,
                mode,
                ..
            } => {
                let doc = doc.ok_or(EvalError::NeedsDocument("Navigate"))?;
                let idx = resolve(input, from_attr)?;
                if crosses_collection(input, &idx) {
                    return Err(EvalError::TypeError(
                        "navigate source attribute must not be nested".into(),
                    ));
                }
                let mut schema = input.clone();
                let (mut val, mut cont) = (false, false);
                if *mode != NavMode::Exists {
                    schema.fields.push(Field::atom(format!("{as_prefix}_ID")));
                    for (name, keep) in [("Val", &mut val), ("Cont", &mut cont)] {
                        let col = format!("{as_prefix}_{name}");
                        if demand.reads(&col) {
                            *keep = true;
                            schema.fields.push(Field::atom(col));
                        }
                    }
                }
                let nav = Nav::new(doc, idx[0], *axis, label, *mode, val, cont);
                (schema, UnaryKind::Navigate(nav))
            }
            Fetch {
                id_attr,
                what,
                as_name,
                ..
            } => {
                let doc = doc.ok_or(EvalError::NeedsDocument("Fetch"))?;
                let idx = resolve(input, id_attr)?;
                let mut schema = input.clone();
                schema.fields.push(Field::atom(as_name));
                let kind = UnaryKind::Fetch {
                    doc,
                    col: idx[0],
                    what: *what,
                };
                (schema, kind)
            }
            DeriveAncestorId {
                attr,
                levels,
                as_name,
                ..
            } => {
                let doc = doc.ok_or(EvalError::NeedsDocument("DeriveAncestorId"))?;
                let idx = resolve(input, attr)?;
                let mut schema = input.clone();
                schema.fields.push(Field::atom(as_name));
                let kind = UnaryKind::DeriveAncestor {
                    doc,
                    col: idx[0],
                    levels: *levels,
                };
                (schema, kind)
            }
            CastSchema { schema, .. } => {
                fn shape_eq(a: &Schema, b: &Schema) -> bool {
                    a.arity() == b.arity()
                        && a.fields
                            .iter()
                            .zip(&b.fields)
                            .all(|(x, y)| match (&x.kind, &y.kind) {
                                (FieldKind::Atom, FieldKind::Atom) => true,
                                (FieldKind::Nested(m), FieldKind::Nested(n)) => shape_eq(m, n),
                                _ => false,
                            })
                }
                if !shape_eq(input, schema) {
                    return Err(EvalError::TypeError(format!(
                        "cast shape mismatch: {input} vs {schema}"
                    )));
                }
                (schema.clone(), UnaryKind::Relabel)
            }
            Rename { names, .. } => {
                if names.len() != input.arity() {
                    return Err(EvalError::TypeError(format!(
                        "rename arity mismatch: {} names for {} fields",
                        names.len(),
                        input.arity()
                    )));
                }
                let mut schema = input.clone();
                for (f, n) in schema.fields.iter_mut().zip(names) {
                    f.name = n.clone();
                }
                (schema, UnaryKind::Relabel)
            }
            other => unreachable!("not a streaming unary operator: {}", other.node_label()),
        };
        Ok(Unary { schema, kind })
    }

    /// Run the operator over one batch.
    pub(crate) fn apply(&self, tuples: Vec<Tuple>) -> Vec<Tuple> {
        match &self.kind {
            UnaryKind::Filter(pred) => {
                let mut tuples = tuples;
                tuples.retain(|t| pred.eval(t));
                tuples
            }
            UnaryKind::Reduce { idx, op, c } => tuples
                .into_iter()
                .filter_map(|t| reduce_tuple(t, idx, &mut |v| cmp_values(v, *op, c)))
                .collect(),
            UnaryKind::Project(spec) => tuples.into_iter().map(|t| spec.apply(t)).collect(),
            UnaryKind::Unnest(i) => {
                let i = *i;
                let mut out = Vec::new();
                for t in &tuples {
                    if let Value::Coll(c) = t.get(i) {
                        for nt in &c.tuples {
                            let mut vals = Vec::with_capacity(t.arity() + nt.arity());
                            vals.extend(t.0[..i].iter().cloned());
                            vals.extend(nt.0.iter().cloned());
                            vals.extend(t.0[i + 1..].iter().cloned());
                            out.push(Tuple::new(vals));
                        }
                    }
                }
                out
            }
            UnaryKind::Template(templ) => tuples
                .iter()
                .map(|t| {
                    let mut out = String::new();
                    templ.render(t, &mut out);
                    Tuple::new(vec![Value::str(out)])
                })
                .collect(),
            UnaryKind::Navigate(nav) => nav.apply(tuples),
            UnaryKind::Fetch { doc, col, what } => {
                let mut tuples = tuples;
                for t in &mut tuples {
                    let v = match t.get(*col).as_id() {
                        None => Value::Null,
                        Some(sid) => {
                            let n = NodeId(sid.pre);
                            match what {
                                FetchWhat::Val => Value::str(doc.value(n)),
                                FetchWhat::Cont => Value::str(doc.content_str(n)),
                                FetchWhat::Tag => Value::str(doc.label(n)),
                            }
                        }
                    };
                    t.0.push(v);
                }
                tuples
            }
            UnaryKind::DeriveAncestor { doc, col, levels } => {
                let mut tuples = tuples;
                for t in &mut tuples {
                    let anc = t.get(*col).as_id().and_then(|sid| {
                        let mut n = NodeId(sid.pre);
                        for _ in 0..*levels {
                            n = doc.parent(n)?;
                        }
                        Some(doc.structural_id(n))
                    });
                    t.0.push(anc.map(Value::Id).unwrap_or(Value::Null));
                }
                tuples
            }
            UnaryKind::Relabel => tuples,
        }
    }
}

/// Which nodes a navigation step reaches.
#[derive(Clone, Copy)]
enum LabelMatch {
    /// `*`: every element.
    Any,
    /// The interned label id.
    Id(u32),
    /// A label no node of the document carries: nothing is reachable.
    Absent,
}

/// The compensating navigation of §5.2: from the node an ID column
/// names, reach the children or descendants with one label, adding the
/// reached node's ID and — when demanded — its value and content.
struct Nav<'a> {
    doc: &'a Document,
    col: usize,
    axis: Axis,
    kind: NodeKind,
    label: LabelMatch,
    mode: NavMode,
    val: bool,
    cont: bool,
}

impl<'a> Nav<'a> {
    fn new(
        doc: &'a Document,
        col: usize,
        axis: Axis,
        label: &str,
        mode: NavMode,
        val: bool,
        cont: bool,
    ) -> Nav<'a> {
        let (kind, name) = match label.strip_prefix('@') {
            Some(a) => (NodeKind::Attribute, a),
            None => (NodeKind::Element, label),
        };
        let label = if kind == NodeKind::Element && name == "*" {
            LabelMatch::Any
        } else {
            doc.find_label(name)
                .map_or(LabelMatch::Absent, LabelMatch::Id)
        };
        Nav {
            doc,
            col,
            axis,
            kind,
            label,
            mode,
            val,
            cont,
        }
    }

    fn hit(&self, m: NodeId) -> bool {
        self.doc.kind(m) == self.kind
            && match self.label {
                LabelMatch::Any => true,
                LabelMatch::Id(id) => self.doc.label_id(m) == id,
                LabelMatch::Absent => false,
            }
    }

    /// Reached nodes of `from`, in document order, into `out`.
    fn targets(&self, from: &Value, out: &mut Vec<NodeId>) {
        out.clear();
        let Some(sid) = from.as_id() else { return };
        if matches!(self.label, LabelMatch::Absent) {
            return;
        }
        let n = NodeId(sid.pre);
        match self.axis {
            Axis::Child => out.extend(
                self.doc
                    .children(n)
                    .iter()
                    .copied()
                    .filter(|&m| self.hit(m)),
            ),
            Axis::Descendant => out.extend(self.doc.descendants(n).filter(|&m| self.hit(m))),
        }
    }

    fn push_node(&self, t: &mut Tuple, m: NodeId) {
        t.0.push(Value::Id(self.doc.structural_id(m)));
        if self.val {
            t.0.push(Value::str(self.doc.value(m)));
        }
        if self.cont {
            t.0.push(Value::str(self.doc.content_str(m)));
        }
    }

    fn apply(&self, tuples: Vec<Tuple>) -> Vec<Tuple> {
        let width = 1 + usize::from(self.val) + usize::from(self.cont);
        let mut out = Vec::with_capacity(tuples.len());
        let mut targets = Vec::new();
        for t in tuples {
            self.targets(t.get(self.col), &mut targets);
            match (self.mode, targets.split_last()) {
                (NavMode::Exists, hit) => {
                    if hit.is_some() {
                        out.push(t);
                    }
                }
                (NavMode::Outer, None) => {
                    let mut t = t;
                    t.0.extend(std::iter::repeat_n(Value::Null, width));
                    out.push(t);
                }
                (_, None) => {}
                (_, Some((&last, rest))) => {
                    for &m in rest {
                        let mut nt = t.clone();
                        self.push_node(&mut nt, m);
                        out.push(nt);
                    }
                    let mut t = t;
                    self.push_node(&mut t, last);
                    out.push(t);
                }
            }
        }
        out
    }
}

// ----------------------------------------------------------------------
// binary operators

/// A compiled build–probe operator: the right input is drained into a
/// [`Build`] once, then left batches probe it. Every binary operator's
/// output is a per-left-tuple function of the whole right side, so
/// batching the left preserves both results and order.
pub(crate) struct Binary {
    pub(crate) schema: Schema,
    kind: BinaryKind,
}

enum BinaryKind {
    Product,
    Join {
        pred: CPred,
        kind: JoinKind,
        r_arity: usize,
    },
    Struct(StructJoin),
    Difference,
}

/// A structural join on resolved ID columns. `lidx` is the left
/// attribute's index path; longer than one step, it is `map`-extended
/// into the nested collections it crosses (Example 1.2.3).
struct StructJoin {
    lidx: Vec<usize>,
    rcol: usize,
    axis: Axis,
    kind: JoinKind,
    r_arity: usize,
}

/// The resident right side of a [`Binary`], with its probe structure
/// built once.
pub(crate) struct Build {
    pub(crate) tuples: Vec<Tuple>,
    index: BuildIndex,
}

enum BuildIndex {
    None,
    /// Sorted `(ID, position)` pairs and their packed columns (the
    /// latter only when the StackTree kernel runs).
    Ids {
        pairs: Vec<(StructuralId, usize)>,
        cols: Option<IdColumns>,
    },
    Set(TupleSet),
}

/// Output schema of a join flavour.
fn join_schema(l: &Schema, r: &Schema, kind: JoinKind, nest_as: &str) -> Schema {
    match kind {
        JoinKind::Inner | JoinKind::LeftOuter => l.concat(r),
        JoinKind::Semi => l.clone(),
        JoinKind::Nest | JoinKind::NestOuter => {
            l.concat(&Schema::new(vec![Field::nested(nest_as, r.clone())]))
        }
    }
}

/// Output schema of an inner structural join: one step of the schema
/// fold of a twig's binary cascade.
pub(crate) fn struct_join_schema(
    l: &Schema,
    r: &Schema,
    left_attr: &Path,
    right_attr: &Path,
) -> Result<Schema, EvalError> {
    let op = Binary::compile_struct(
        l,
        r,
        left_attr,
        right_attr,
        Axis::Child,
        JoinKind::Inner,
        None,
    )?;
    Ok(op.schema)
}

impl Binary {
    pub(crate) fn compile(plan: &LogicalPlan, l: &Schema, r: &Schema) -> Result<Binary, EvalError> {
        use LogicalPlan::*;
        match plan {
            Product { .. } => Ok(Binary {
                schema: l.concat(r),
                kind: BinaryKind::Product,
            }),
            Join { pred, kind, .. } => {
                let combined = l.concat(r);
                let pred = CPred::compile(&combined, pred)?;
                Ok(Binary {
                    schema: join_schema(l, r, *kind, "s"),
                    kind: BinaryKind::Join {
                        pred,
                        kind: *kind,
                        r_arity: r.arity(),
                    },
                })
            }
            StructJoin {
                left_attr,
                right_attr,
                axis,
                kind,
                nest_as,
                ..
            } => Binary::compile_struct(
                l,
                r,
                left_attr,
                right_attr,
                *axis,
                *kind,
                nest_as.as_deref(),
            ),
            Difference { .. } => Ok(Binary {
                schema: l.clone(),
                kind: BinaryKind::Difference,
            }),
            other => unreachable!("not a binary operator: {}", other.node_label()),
        }
    }

    fn compile_struct(
        l: &Schema,
        r: &Schema,
        left_attr: &Path,
        right_attr: &Path,
        axis: Axis,
        kind: JoinKind,
        nest_as: Option<&str>,
    ) -> Result<Binary, EvalError> {
        let lidx = resolve(l, left_attr)?;
        let ridx = resolve(r, right_attr)?;
        if crosses_collection(r, &ridx) {
            return Err(EvalError::TypeError(
                "structural join right attribute must not be nested".into(),
            ));
        }
        let nest_as = nest_as.unwrap_or("s");
        // map extension: the join runs inside the nested collection the
        // left path crosses, replacing that field's schema
        fn schema_at(
            l: &Schema,
            lidx: &[usize],
            r: &Schema,
            kind: JoinKind,
            nest_as: &str,
        ) -> Schema {
            match lidx {
                [_] => join_schema(l, r, kind, nest_as),
                [first, rest @ ..] => {
                    let FieldKind::Nested(inner) = &l.fields[*first].kind else {
                        unreachable!("resolved paths only cross nested fields")
                    };
                    let mut out = l.clone();
                    out.fields[*first].kind =
                        FieldKind::Nested(schema_at(inner, rest, r, kind, nest_as));
                    out
                }
                [] => unreachable!("resolved paths are non-empty"),
            }
        }
        Ok(Binary {
            schema: schema_at(l, &lidx, r, kind, nest_as),
            kind: BinaryKind::Struct(StructJoin {
                lidx,
                rcol: ridx[0],
                axis,
                kind,
                r_arity: r.arity(),
            }),
        })
    }

    /// Take the drained right input resident and build its probe
    /// structure.
    pub(crate) fn build(&self, right: Vec<Tuple>, cfg: EvalConfig) -> Result<Build, EvalError> {
        let index = match &self.kind {
            BinaryKind::Struct(sj) => {
                packable(right.len())?;
                let pairs = gather_ids(&right, sj.rcol);
                let cols = cfg
                    .use_stacktree
                    .then(|| IdColumns::from_pairs(&pairs, DEFAULT_BLOCK));
                BuildIndex::Ids { pairs, cols }
            }
            BinaryKind::Difference => BuildIndex::Set(TupleSet::of(&right)),
            BinaryKind::Product | BinaryKind::Join { .. } => BuildIndex::None,
        };
        Ok(Build {
            tuples: right,
            index,
        })
    }

    /// Probe the build side with one left batch.
    pub(crate) fn probe(
        &self,
        build: &Build,
        left: Vec<Tuple>,
        cfg: EvalConfig,
        metrics: Option<&RefCell<ExecMetrics>>,
    ) -> Result<Vec<Tuple>, EvalError> {
        let right = &build.tuples;
        match (&self.kind, &build.index) {
            (BinaryKind::Product, _) => {
                let mut out = Vec::with_capacity(left.len() * right.len());
                for lt in &left {
                    for rt in right {
                        out.push(concat(lt, rt));
                    }
                }
                Ok(out)
            }
            (
                BinaryKind::Join {
                    pred,
                    kind,
                    r_arity,
                },
                _,
            ) => {
                let mut pairs = Vec::new();
                for (li, lt) in left.iter().enumerate() {
                    for (ri, rt) in right.iter().enumerate() {
                        if pred.eval(&Pair(lt, rt)) {
                            pairs.push((li, ri));
                        }
                    }
                }
                if let Some(m) = metrics {
                    m.borrow_mut()
                        .comparisons((left.len() * right.len()) as u64);
                }
                Ok(assemble(left, right, &pairs, *kind, *r_arity))
            }
            (BinaryKind::Struct(sj), BuildIndex::Ids { pairs, cols }) => {
                sj.probe(left, &sj.lidx, right, pairs, cols.as_ref(), cfg, metrics)
            }
            (BinaryKind::Difference, BuildIndex::Set(set)) => Ok(left
                .into_iter()
                .filter(|t| !set.contains(right, t, dedup_key(t)))
                .collect()),
            _ => unreachable!("build index matches its operator"),
        }
    }
}

impl StructJoin {
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        left: Vec<Tuple>,
        lidx: &[usize],
        right: &[Tuple],
        rids: &[(StructuralId, usize)],
        rcols: Option<&IdColumns>,
        cfg: EvalConfig,
        metrics: Option<&RefCell<ExecMetrics>>,
    ) -> Result<Vec<Tuple>, EvalError> {
        if let [first, rest @ ..] = lidx {
            if !rest.is_empty() {
                // map extension: join inside each nested collection;
                // left tuples whose collection joins empty are
                // eliminated (for the non-outer kinds)
                let keep_empty = matches!(self.kind, JoinKind::LeftOuter | JoinKind::NestOuter);
                let mut out = Vec::new();
                for mut t in left {
                    let Value::Coll(c) = &mut t.0[*first] else {
                        continue;
                    };
                    let inner = std::mem::take(&mut c.tuples);
                    let joined = self.probe(inner, rest, right, rids, rcols, cfg, metrics)?;
                    if joined.is_empty() && !keep_empty {
                        continue;
                    }
                    t.0[*first] = Value::Coll(Collection::list(joined));
                    out.push(t);
                }
                return Ok(out);
            }
        }
        let lcol = lidx[0];
        packable(left.len())?;
        let lids = gather_ids(&left, lcol);
        let mut pairs = match rcols {
            Some(rc) => {
                let lc = IdColumns::from_pairs(&lids, DEFAULT_BLOCK);
                match metrics {
                    Some(m) => stack_tree_pairs_columnar_metered(
                        &lc,
                        rc,
                        self.axis,
                        cfg,
                        &mut *m.borrow_mut(),
                    ),
                    None => stack_tree_pairs_columnar(&lc, rc, self.axis, cfg),
                }
            }
            None => {
                if let Some(m) = metrics {
                    m.borrow_mut().comparisons((lids.len() * rids.len()) as u64);
                }
                nested_loop_pairs(&lids, rids, self.axis)
            }
        };
        pairs.sort_unstable();
        Ok(assemble(left, right, &pairs, self.kind, self.r_arity))
    }
}

/// Assemble join output from `(left, right)` position pairs sorted by
/// left then right position.
fn assemble(
    left: Vec<Tuple>,
    right: &[Tuple],
    pairs: &[(usize, usize)],
    kind: JoinKind,
    r_arity: usize,
) -> Vec<Tuple> {
    match kind {
        JoinKind::Inner => pairs
            .iter()
            .map(|&(li, ri)| concat(&left[li], &right[ri]))
            .collect(),
        JoinKind::Semi => {
            let mut hit = vec![false; left.len()];
            for &(li, _) in pairs {
                hit[li] = true;
            }
            left.into_iter()
                .zip(hit)
                .filter_map(|(t, h)| h.then_some(t))
                .collect()
        }
        JoinKind::LeftOuter | JoinKind::Nest | JoinKind::NestOuter => {
            let mut out = Vec::new();
            let mut p = 0;
            for (li, lt) in left.into_iter().enumerate() {
                let lo = p;
                while p < pairs.len() && pairs[p].0 == li {
                    p += 1;
                }
                let ms = &pairs[lo..p];
                match kind {
                    JoinKind::LeftOuter if ms.is_empty() => {
                        let mut t = lt;
                        t.0.extend(std::iter::repeat_n(Value::Null, r_arity));
                        out.push(t);
                    }
                    JoinKind::LeftOuter => {
                        out.extend(ms.iter().map(|&(_, ri)| concat(&lt, &right[ri])));
                    }
                    _ => {
                        if ms.is_empty() && kind == JoinKind::Nest {
                            continue;
                        }
                        let nested = ms.iter().map(|&(_, ri)| right[ri].clone()).collect();
                        let mut t = lt;
                        t.0.push(Value::Coll(Collection::list(nested)));
                        out.push(t);
                    }
                }
            }
            out
        }
    }
}

// ----------------------------------------------------------------------
// pipeline breakers

/// A compiled operator that must see its whole input before emitting.
pub(crate) struct Breaker {
    pub(crate) schema: Schema,
    kind: BreakerKind,
}

enum BreakerKind {
    /// `π°`: project, then keep first occurrences.
    Distinct(ProjSpec),
    GroupBy {
        keys: Vec<usize>,
        rest: Vec<usize>,
    },
    /// Sort keys: the top-level field each key path starts at.
    Sort(Vec<usize>),
    NestAll,
}

impl Breaker {
    pub(crate) fn compile(plan: &LogicalPlan, input: &Schema) -> Result<Breaker, EvalError> {
        use LogicalPlan::*;
        match plan {
            Project { cols, .. } => {
                let spec = ProjSpec::build(input, cols)?;
                Ok(Breaker {
                    schema: spec.schema(input),
                    kind: BreakerKind::Distinct(spec),
                })
            }
            GroupBy { keys, nest_as, .. } => {
                let keys: Vec<usize> = keys
                    .iter()
                    .map(|p| {
                        let idx = resolve(input, p)?;
                        if idx.len() != 1 {
                            return Err(EvalError::TypeError(
                                "group-by keys must be top-level attributes".into(),
                            ));
                        }
                        Ok(idx[0])
                    })
                    .collect::<Result<_, _>>()?;
                let rest: Vec<usize> = (0..input.arity()).filter(|i| !keys.contains(i)).collect();
                let pick = |ix: &[usize]| -> Vec<Field> {
                    ix.iter().map(|&i| input.fields[i].clone()).collect()
                };
                let mut fields = pick(&keys);
                fields.push(Field::nested(nest_as.clone(), Schema::new(pick(&rest))));
                Ok(Breaker {
                    schema: Schema::new(fields),
                    kind: BreakerKind::GroupBy { keys, rest },
                })
            }
            Sort { by, .. } => {
                let keys = by
                    .iter()
                    .map(|p| Ok(resolve(input, p)?[0]))
                    .collect::<Result<_, EvalError>>()?;
                Ok(Breaker {
                    schema: input.clone(),
                    kind: BreakerKind::Sort(keys),
                })
            }
            NestAll { as_name, .. } => Ok(Breaker {
                schema: Schema::new(vec![Field::nested(as_name.clone(), input.clone())]),
                kind: BreakerKind::NestAll,
            }),
            other => unreachable!("not a pipeline breaker: {}", other.node_label()),
        }
    }

    pub(crate) fn apply(&self, tuples: Vec<Tuple>) -> Vec<Tuple> {
        match &self.kind {
            BreakerKind::Distinct(spec) => {
                dedup(tuples.into_iter().map(|t| spec.apply(t)).collect())
            }
            BreakerKind::GroupBy { keys, rest } => {
                let mut order: Vec<String> = Vec::new();
                let mut groups: HashMap<String, (Tuple, Vec<Tuple>)> = HashMap::new();
                for t in &tuples {
                    let key_vals: Vec<Value> = keys.iter().map(|&i| t.get(i).clone()).collect();
                    let rest_vals: Vec<Value> = rest.iter().map(|&i| t.get(i).clone()).collect();
                    let key = format!("{}", Tuple::new(key_vals.clone()));
                    groups
                        .entry(key.clone())
                        .or_insert_with(|| {
                            order.push(key);
                            (Tuple::new(key_vals), Vec::new())
                        })
                        .1
                        .push(Tuple::new(rest_vals));
                }
                order
                    .into_iter()
                    .map(|k| {
                        let (mut key_tuple, rest) =
                            groups.remove(&k).expect("every ordered key has a group");
                        key_tuple.0.push(Value::Coll(Collection::list(rest)));
                        key_tuple
                    })
                    .collect()
            }
            BreakerKind::Sort(keys) => {
                let mut tuples = tuples;
                tuples.sort_by(|a, b| {
                    for &i in keys {
                        let c = value_cmp(a.get(i), b.get(i));
                        if c != std::cmp::Ordering::Equal {
                            return c;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                tuples
            }
            BreakerKind::NestAll => vec![Tuple::new(vec![Value::Coll(Collection::list(tuples))])],
        }
    }
}

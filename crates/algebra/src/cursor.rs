//! The pipelined executor: `open` / `next_batch` / `close` cursors
//! streaming [`TupleBatch`]es through the plan tree. It is the one
//! production executor: streamed answers pull it, and materialized
//! answers drain it ([`StreamExec::collect`]). Memory scales with the
//! *resident* state (build sides, breaker buffers, one in-flight batch
//! per operator) instead of with every intermediate relation, and
//! `LIMIT`-style consumers can stop early.
//!
//! [`build_cursor`] compiles every [`LogicalPlan`] node once into a
//! native batch operator from `op` — paths resolved, output
//! schema computed, plan errors raised before the first pull — and the
//! cursors keep that state across batches:
//!
//! * **streaming unary** (`Select`, duplicate-preserving `Project`,
//!   `Unnest`, `XmlTemplate`, `Navigate`, `Fetch`, `DeriveAncestorId`,
//!   `Rename`, `CastSchema`) — each child batch is mapped to an output
//!   batch by the compiled operator;
//! * **build–probe binary** (`Product`, `Join`, `StructJoin`,
//!   `Difference`) — the right side is drained once into the operator's
//!   build (for `StructJoin`, its IDs packed into [`crate::IdColumns`]
//!   once; for `Difference`, hashed once), then left batches probe it
//!   (all these operators are per-left-tuple, so batching the left
//!   preserves both results and order);
//! * **`Union`** — left exhausted first, then right, pass-through;
//! * **`TwigJoin`** — inputs are drained (they are base ID streams in
//!   fused plans), the holistic merge enumerates solution index vectors,
//!   and output tuples are assembled batch by batch; shapes the holistic
//!   operator does not cover fall back to a one-shot cascade evaluation
//!   by the [`Evaluator`], exactly like the oracle;
//! * **pipeline breakers** (`Project` with `distinct`, `GroupBy`,
//!   `Sort`, `NestAll`) — the input is materialized, the operator run
//!   once, and the result streamed out. A single-key `Sort` directly
//!   over a base scan whose declared [`crate::OrderSpec`] already
//!   satisfies the key is elided (stable sort of sorted input is the
//!   identity).
//!
//! Each child is built knowing which columns its parent reads
//! (`op::child_demands`); a `Navigate` whose `<prefix>_Val` or
//! `<prefix>_Cont` nobody reads neither computes nor emits it. A parent
//! resolves its columns against the child's actual schema, so a demand
//! bug is an [`EvalError::UnknownAttribute`] at build time, never a
//! wrong row.
//!
//! `close()` propagates cancellation down the tree: children are closed,
//! resident state is released, and every further `next_batch` returns
//! `Ok(None)` without touching the children again.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use obs::{ExecMetrics, StatsStore};
use xmltree::Document;

use crate::eval::{
    check_union, solution_tuple, twig_shape, twig_solutions, Catalog, EvalConfig, EvalError,
    Evaluator, Relation, TwigShape,
};
use crate::op::{child_demands, struct_join_schema, Binary, Breaker, Build, Demand, Unary};
use crate::plan::{LogicalPlan, TwigStep};
use crate::value::{Schema, Tuple};

// ----------------------------------------------------------------------
// batches, residency, per-op counters

/// A batch of tuples flowing through the cursor tree. The schema lives
/// on the cursor ([`Cursor::schema`]); batches carry only rows. Sizes
/// are *about* [`CursorConfig::batch_size`]: filters emit less,
/// expanding operators (`Unnest`, `Navigate`, joins) may emit more.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TupleBatch {
    pub tuples: Vec<Tuple>,
}

impl TupleBatch {
    pub fn new(tuples: Vec<Tuple>) -> TupleBatch {
        TupleBatch { tuples }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// Shared gauge of the tuples currently materialized inside a cursor
/// tree — build sides, breaker buffers, twig inputs, plus each
/// operator's last emitted batch — with its high-water mark. This is the
/// `peak-resident-tuples` figure `--profile` and experiment E11 report.
#[derive(Debug, Default)]
pub struct Residency {
    cur: Cell<u64>,
    peak: Cell<u64>,
}

impl Residency {
    fn alloc(&self, n: usize) {
        let cur = self.cur.get() + n as u64;
        self.cur.set(cur);
        if cur > self.peak.get() {
            self.peak.set(cur);
        }
    }

    fn free(&self, n: usize) {
        self.cur.set(self.cur.get().saturating_sub(n as u64));
    }

    pub fn current(&self) -> u64 {
        self.cur.get()
    }

    pub fn peak(&self) -> u64 {
        self.peak.get()
    }
}

/// Live per-operator streaming counters, shared between the cursor that
/// updates them and the [`StreamExec`] that reports them.
#[derive(Debug, Default)]
pub struct OpCells {
    pub batches: Cell<u64>,
    pub rows: Cell<u64>,
    pub metrics: RefCell<ExecMetrics>,
}

/// One operator's registration in a [`StreamExec`], in plan pre-order:
/// display label, breaker flag, live counters.
#[derive(Debug, Clone)]
pub struct OpStats {
    pub label: String,
    pub breaker: bool,
    pub cells: Rc<OpCells>,
}

/// Per-cursor monitor: accounts emitted batches against the shared
/// residency gauge (a cursor's last emitted batch stays resident until
/// its next pull or close) and bumps the op counters when profiling.
struct Mon {
    residency: Rc<Residency>,
    cells: Option<Rc<OpCells>>,
    outstanding: Cell<usize>,
}

impl Mon {
    fn begin_pull(&self) {
        self.residency.free(self.outstanding.replace(0));
    }

    fn emit(&self, tuples: Vec<Tuple>) -> TupleBatch {
        self.residency.alloc(tuples.len());
        self.outstanding.set(tuples.len());
        if let Some(c) = &self.cells {
            c.batches.set(c.batches.get() + 1);
            c.rows.set(c.rows.get() + tuples.len() as u64);
        }
        TupleBatch::new(tuples)
    }

    /// The operator's kernel counters, `None` when profiling is off (the
    /// kernels then run the unmetered path).
    fn metrics(&self) -> Option<&RefCell<ExecMetrics>> {
        self.cells.as_deref().map(|c| &c.metrics)
    }

    /// A metrics slot for the twig operator's one-shot cascade
    /// [`Evaluator`], `None` when profiling is off.
    fn metrics_slot(&self) -> Option<RefCell<ExecMetrics>> {
        self.cells
            .as_ref()
            .map(|_| RefCell::new(ExecMetrics::default()))
    }

    fn absorb(&self, m: ExecMetrics) {
        if let Some(c) = &self.cells {
            if !m.is_zero() {
                c.metrics.borrow_mut().absorb(&m);
            }
        }
    }

    fn finish(&self) {
        self.begin_pull();
    }
}

// ----------------------------------------------------------------------
// the cursor contract

/// The Volcano cursor contract. `open` is idempotent and recurses into
/// children; `next_batch` returns `Ok(None)` once exhausted (and forever
/// after); `close` releases resident state, propagates cancellation to
/// the children, and makes every further `next_batch` return `Ok(None)`
/// without pulling the children again.
pub trait Cursor {
    fn schema(&self) -> &Schema;
    fn open(&mut self) -> Result<(), EvalError>;
    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError>;
    fn close(&mut self);
}

/// Runtime arm-switch hint for the holistic twig operator, threaded in
/// by the planner when the feedback store says this plan's arm choice
/// has mispredicted before. At the first batch boundary (after the leaf
/// streams are drained, before the merge runs) the twig cursor compares
/// the observed combined leaf cardinality against `est_leaf_rows`; a
/// ≥2× deviation in either direction means the cost model priced the
/// merge from the wrong stream sizes, so the cursor falls over to the
/// cascade arm (the same one-shot path uncovered shapes take — answers
/// are identical by construction) and records the outcome back into the
/// store. The cascade→twig direction has no mid-query hook (an unfused
/// plan carries no `TwigJoin` node); it is handled at re-plan time.
#[derive(Debug, Clone)]
pub struct ArmSwitchHint {
    /// The feedback store the switch outcome is recorded into.
    pub stats: Arc<StatsStore>,
    /// `DocumentVersion` counter the plan runs under (0 = unversioned).
    pub doc_version: u64,
    /// Fingerprint of the executing plan.
    pub plan_fp: u64,
    /// The cost model's estimate of the combined twig leaf cardinality.
    pub est_leaf_rows: f64,
}

/// Observed-vs-estimated leaf-cardinality deviation that triggers the
/// mid-query arm fallover (mirrors the ≥2× wrong-arm telemetry rule).
const ARM_SWITCH_RATIO: f64 = 2.0;

impl ArmSwitchHint {
    /// Whether `observed` leaf rows contradict the estimate badly enough
    /// to fall over to the cascade arm.
    fn should_switch(&self, observed: f64) -> bool {
        let est = self.est_leaf_rows.max(1.0);
        let obs = observed.max(1.0);
        (obs / est).max(est / obs) >= ARM_SWITCH_RATIO
    }
}

/// Knobs for [`build_cursor`].
#[derive(Debug, Clone)]
pub struct CursorConfig {
    /// Target rows per batch (≥ 1; see [`TupleBatch`] for how operators
    /// may deviate).
    pub batch_size: usize,
    /// Physical-operator choices, shared with the materialized oracle.
    pub eval: EvalConfig,
    /// Collect per-operator batch/row counters and kernel metrics,
    /// reported via [`StreamExec::op_stats`].
    pub profiling: bool,
    /// Mid-query twig→cascade fallover hint (see [`ArmSwitchHint`]);
    /// `None` disables the check entirely.
    pub arm_hint: Option<ArmSwitchHint>,
}

impl Default for CursorConfig {
    fn default() -> Self {
        CursorConfig {
            batch_size: 1024,
            eval: EvalConfig::default(),
            profiling: false,
            arm_hint: None,
        }
    }
}

/// A compiled cursor tree plus its shared bookkeeping: the root cursor,
/// the residency gauge, and (when profiling) the pre-order op counters.
pub struct StreamExec<'a> {
    root: Box<dyn Cursor + 'a>,
    residency: Rc<Residency>,
    ops: Vec<OpStats>,
    batch_size: usize,
    opened: bool,
}

impl<'a> StreamExec<'a> {
    pub fn schema(&self) -> &Schema {
        self.root.schema()
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Pull the next batch (opens the tree on the first call).
    pub fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if !self.opened {
            self.root.open()?;
            self.opened = true;
        }
        self.root.next_batch()
    }

    /// Cancel the stream: closes the whole cursor tree.
    pub fn close(&mut self) {
        self.root.close();
    }

    /// High-water mark of tuples resident in the tree so far.
    pub fn peak_resident(&self) -> u64 {
        self.residency.peak()
    }

    /// Tuples resident right now (0 after `close`).
    pub fn resident_now(&self) -> u64 {
        self.residency.current()
    }

    /// Per-operator streaming counters in plan pre-order; empty unless
    /// [`CursorConfig::profiling`] was set.
    pub fn op_stats(&self) -> &[OpStats] {
        &self.ops
    }

    /// Drain the stream into a materialized relation.
    pub fn collect(mut self) -> Result<Relation, EvalError> {
        let mut tuples = Vec::new();
        while let Some(b) = self.next_batch()? {
            tuples.extend(b.tuples);
        }
        let schema = self.schema().clone();
        self.close();
        Ok(Relation::new(schema, tuples))
    }
}

// ----------------------------------------------------------------------
// breaker classification

/// Is this plan node a pipeline breaker (must see its whole input before
/// emitting anything)? `Sort` counts even though [`build_cursor`] elides
/// it when the input is a base scan whose declared
/// [`crate::OrderSpec`] already satisfies the single sort key.
pub fn is_pipeline_breaker(plan: &LogicalPlan) -> bool {
    matches!(
        plan,
        LogicalPlan::Project { distinct: true, .. }
            | LogicalPlan::GroupBy { .. }
            | LogicalPlan::Sort { .. }
            | LogicalPlan::NestAll { .. }
    )
}

/// Pre-order labels of every pipeline breaker in `plan` — the
/// annotation the rewriting layer logs before streaming starts.
pub fn pipeline_breakers(plan: &LogicalPlan) -> Vec<String> {
    fn rec(p: &LogicalPlan, out: &mut Vec<String>) {
        if is_pipeline_breaker(p) {
            out.push(p.node_label());
        }
        for c in p.child_plans() {
            rec(c, out);
        }
    }
    let mut out = Vec::new();
    rec(plan, &mut out);
    out
}

// ----------------------------------------------------------------------
// the cursor compiler

/// Compile `plan` into a cursor tree over `catalog` (plus optional
/// source document for navigation operators). Every operator is
/// compiled here against its input schemas — paths resolved, output
/// schemas computed, plan errors raised — and each child is told which
/// columns its parent reads (see `op::child_demands`); the
/// returned executor only then streams batches on demand.
pub fn build_cursor<'a>(
    plan: &LogicalPlan,
    catalog: &'a Catalog,
    doc: Option<&'a Document>,
    config: &CursorConfig,
) -> Result<StreamExec<'a>, EvalError> {
    let mut b = Builder {
        catalog,
        doc,
        cfg: config.clone(),
        residency: Rc::new(Residency::default()),
        ops: Vec::new(),
    };
    let root = b.build(plan, &Demand::All)?;
    Ok(StreamExec {
        root,
        residency: b.residency,
        ops: b.ops,
        batch_size: config.batch_size.max(1),
        opened: false,
    })
}

struct Builder<'a> {
    catalog: &'a Catalog,
    doc: Option<&'a Document>,
    cfg: CursorConfig,
    residency: Rc<Residency>,
    ops: Vec<OpStats>,
}

impl<'a> Builder<'a> {
    fn mon(&mut self, plan: &LogicalPlan) -> Mon {
        let cells = if self.cfg.profiling {
            let c = Rc::new(OpCells::default());
            self.ops.push(OpStats {
                label: plan.node_label(),
                breaker: is_pipeline_breaker(plan),
                cells: Rc::clone(&c),
            });
            Some(c)
        } else {
            None
        };
        Mon {
            residency: Rc::clone(&self.residency),
            cells,
            outstanding: Cell::new(0),
        }
    }

    fn batch(&self) -> usize {
        self.cfg.batch_size.max(1)
    }

    /// Build `plan`'s children, each with the demand `plan` places on
    /// it.
    fn children(
        &mut self,
        plan: &LogicalPlan,
        demand: &Demand,
    ) -> Result<Vec<Box<dyn Cursor + 'a>>, EvalError> {
        plan.child_plans()
            .into_iter()
            .zip(child_demands(plan, demand))
            .map(|(c, d)| self.build(c, &d))
            .collect()
    }

    fn build(
        &mut self,
        plan: &LogicalPlan,
        demand: &Demand,
    ) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        use LogicalPlan::*;
        match plan {
            Scan { relation } => {
                let rel = self
                    .catalog
                    .get(relation)
                    .ok_or_else(|| EvalError::UnknownRelation(relation.clone()))?;
                let mon = self.mon(plan);
                Ok(Box::new(ScanCursor {
                    rel,
                    pos: 0,
                    batch: self.batch(),
                    mon,
                    closed: false,
                }))
            }
            Sort { input, by } => {
                // Sort elision over a declared order: a stable sort of
                // input already sorted on the (single) key is the
                // identity, so stream the scan through untouched.
                if by.len() == 1 {
                    if let Scan { relation } = input.as_ref() {
                        if let Some(ord) = self.catalog.declared_order(relation) {
                            if ord.satisfies(&by[0]) {
                                tracing::debug!(
                                    target: "uload::cursor",
                                    "Sort({}) elided: declared order of `{relation}` satisfies it",
                                    by[0].as_str()
                                );
                                return self.build(input, demand);
                            }
                        }
                    }
                }
                self.breaker(plan, demand)
            }
            Project { distinct: true, .. } | GroupBy { .. } | NestAll { .. } => {
                self.breaker(plan, demand)
            }
            Union { .. } => {
                let mon = self.mon(plan);
                let mut kids = self.children(plan, demand)?;
                let right = kids.pop().expect("union has two inputs");
                let left = kids.pop().expect("union has two inputs");
                check_union(left.schema(), right.schema())?;
                Ok(Box::new(UnionCursor {
                    left,
                    right,
                    on_right: false,
                    mon,
                    closed: false,
                }))
            }
            TwigJoin { root, steps } => self.twig(plan, root, steps, demand),
            Product { .. } | Join { .. } | StructJoin { .. } | Difference { .. } => {
                let mon = self.mon(plan);
                let mut kids = self.children(plan, demand)?;
                let right = kids.pop().expect("binary operator has two inputs");
                let left = kids.pop().expect("binary operator has two inputs");
                let op = Binary::compile(plan, left.schema(), right.schema())?;
                Ok(Box::new(BinaryCursor {
                    left,
                    right: Some(right),
                    op,
                    build: None,
                    eval: self.cfg.eval,
                    batch: self.batch(),
                    spill: Spill::default(),
                    mon,
                    closed: false,
                }))
            }
            Select { .. }
            | Project { .. }
            | Unnest { .. }
            | XmlTemplate { .. }
            | Navigate { .. }
            | Fetch { .. }
            | DeriveAncestorId { .. }
            | Rename { .. }
            | CastSchema { .. } => {
                let mon = self.mon(plan);
                let child = self.children(plan, demand)?.pop().expect("one input");
                let op = Unary::compile(plan, child.schema(), demand, self.doc)?;
                Ok(Box::new(MapCursor {
                    child,
                    op,
                    batch: self.batch(),
                    spill: Spill::default(),
                    mon,
                    closed: false,
                }))
            }
        }
    }

    fn breaker(
        &mut self,
        plan: &LogicalPlan,
        demand: &Demand,
    ) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        let mon = self.mon(plan);
        let child = self.children(plan, demand)?.pop().expect("one input");
        let op = Breaker::compile(plan, child.schema())?;
        Ok(Box::new(BreakerCursor {
            child,
            op,
            out: Vec::new(),
            pos: 0,
            materialized: false,
            batch: self.batch(),
            mon,
            closed: false,
        }))
    }

    fn twig(
        &mut self,
        plan: &LogicalPlan,
        root: &LogicalPlan,
        steps: &[TwigStep],
        demand: &Demand,
    ) -> Result<Box<dyn Cursor + 'a>, EvalError> {
        if steps.is_empty() {
            return self.build(root, demand);
        }
        let mon = self.mon(plan);
        let children = self.children(plan, demand)?;
        let schemas: Vec<&Schema> = children.iter().map(|c| c.schema()).collect();
        let shape = if self.cfg.eval.use_twigstack {
            twig_shape(&schemas, steps)
        } else {
            None
        };
        let schema = match &shape {
            Some(s) => s.schema.clone(),
            // the one-shot fallback evaluates the binary cascade, whose
            // schema (and errors) the fold of its joins gives
            None => steps
                .iter()
                .zip(&schemas[1..])
                .try_fold(schemas[0].clone(), |acc, (s, r)| {
                    struct_join_schema(&acc, r, &s.parent_attr, &s.attr)
                })?,
        };
        let names: Vec<String> = (0..children.len()).map(|k| format!("__t{k}")).collect();
        let one_level =
            plan.with_child_plans(names.iter().map(|n| LogicalPlan::scan(n.clone())).collect());
        Ok(Box::new(TwigCursor {
            children,
            steps: steps.to_vec(),
            shape,
            names,
            one_level,
            schema,
            state: TwigState::Start,
            batch: self.batch(),
            doc: self.doc,
            eval: self.cfg.eval,
            hint: self.cfg.arm_hint.clone(),
            mon,
            closed: false,
        }))
    }
}

// ----------------------------------------------------------------------
// cursor implementations

/// Source: batches cloned off a catalog relation.
struct ScanCursor<'a> {
    rel: &'a Relation,
    pos: usize,
    batch: usize,
    mon: Mon,
    closed: bool,
}

impl Cursor for ScanCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.rel.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if self.pos >= self.rel.tuples.len() {
            return Ok(None);
        }
        let hi = (self.pos + self.batch).min(self.rel.tuples.len());
        let tuples = self.rel.tuples[self.pos..hi].to_vec();
        self.pos = hi;
        Ok(Some(self.mon.emit(tuples)))
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.mon.finish();
    }
}

/// Bounded-output staging shared by the cursors: one input batch can
/// produce more than `batch_size` rows (joins and navigation multiply),
/// so the surplus is held here — accounted on the residency gauge — and
/// moved out one bounded batch at a time. Without this, a single fat
/// input batch would ride through the whole pipeline as one giant
/// batch, defeating the executor's memory bound.
#[derive(Default)]
struct Spill {
    out: Vec<Tuple>,
    pos: usize,
}

impl Spill {
    fn is_empty(&self) -> bool {
        self.pos >= self.out.len()
    }

    /// Emit `tuples` as one batch if they fit, else park them (every
    /// parked row counts as resident until emitted or cleared on close)
    /// and emit the first bounded batch.
    fn emit(&mut self, mon: &Mon, tuples: Vec<Tuple>, batch: usize) -> TupleBatch {
        debug_assert!(self.is_empty());
        if tuples.len() <= batch {
            return mon.emit(tuples);
        }
        mon.residency.alloc(tuples.len());
        self.out = tuples;
        self.pos = 0;
        self.emit_next(mon, batch)
    }

    /// Move the next bounded batch out of the parked rows.
    fn emit_next(&mut self, mon: &Mon, batch: usize) -> TupleBatch {
        let hi = (self.pos + batch.max(1)).min(self.out.len());
        let tuples: Vec<Tuple> = self.out[self.pos..hi]
            .iter_mut()
            .map(std::mem::take)
            .collect();
        mon.residency.free(tuples.len());
        self.pos = hi;
        if self.is_empty() {
            self.out = Vec::new();
            self.pos = 0;
        }
        mon.emit(tuples)
    }

    fn clear(&mut self, mon: &Mon) {
        mon.residency.free(self.out.len() - self.pos);
        self.out = Vec::new();
        self.pos = 0;
    }
}

/// Streaming unary operator: each child batch runs through the compiled
/// operator; output larger than one batch drains through the [`Spill`].
struct MapCursor<'a> {
    child: Box<dyn Cursor + 'a>,
    op: Unary<'a>,
    batch: usize,
    spill: Spill,
    mon: Mon,
    closed: bool,
}

impl Cursor for MapCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.op.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.spill.is_empty() {
            return Ok(Some(self.spill.emit_next(&self.mon, self.batch)));
        }
        loop {
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let out = self.op.apply(batch.tuples);
            // a filtered-empty batch is not end-of-stream: keep pulling
            if !out.is_empty() {
                return Ok(Some(self.spill.emit(&self.mon, out, self.batch)));
            }
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.child.close();
        self.spill.clear(&self.mon);
        self.mon.finish();
    }
}

/// Build–probe binary operator: the right side is drained once into the
/// operator's [`Build`] (resident until close; for `StructJoin` its IDs
/// are packed into [`crate::IdColumns`] once), then every left batch
/// probes it, oversized probe output draining through the [`Spill`].
struct BinaryCursor<'a> {
    left: Box<dyn Cursor + 'a>,
    right: Option<Box<dyn Cursor + 'a>>,
    op: Binary,
    build: Option<Build>,
    eval: EvalConfig,
    batch: usize,
    spill: Spill,
    mon: Mon,
    closed: bool,
}

impl Cursor for BinaryCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.op.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        self.left.open()?;
        if let Some(r) = &mut self.right {
            r.open()?;
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.spill.is_empty() {
            return Ok(Some(self.spill.emit_next(&self.mon, self.batch)));
        }
        if let Some(mut r) = self.right.take() {
            let mut tuples = Vec::new();
            while let Some(b) = r.next_batch()? {
                tuples.extend(b.tuples);
            }
            r.close();
            self.mon.residency.alloc(tuples.len());
            self.build = Some(self.op.build(tuples, self.eval)?);
        }
        let build = self.build.as_ref().expect("built above");
        loop {
            let Some(batch) = self.left.next_batch()? else {
                return Ok(None);
            };
            let out = self
                .op
                .probe(build, batch.tuples, self.eval, self.mon.metrics())?;
            if !out.is_empty() {
                return Ok(Some(self.spill.emit(&self.mon, out, self.batch)));
            }
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.left.close();
        if let Some(r) = &mut self.right {
            r.close();
        }
        if let Some(b) = self.build.take() {
            self.mon.residency.free(b.tuples.len());
        }
        self.spill.clear(&self.mon);
        self.mon.finish();
    }
}

/// Pass-through duplicate-preserving union: left to exhaustion, then
/// right.
struct UnionCursor<'a> {
    left: Box<dyn Cursor + 'a>,
    right: Box<dyn Cursor + 'a>,
    on_right: bool,
    mon: Mon,
    closed: bool,
}

impl Cursor for UnionCursor<'_> {
    fn schema(&self) -> &Schema {
        self.left.schema()
    }

    fn open(&mut self) -> Result<(), EvalError> {
        self.left.open()?;
        self.right.open()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.on_right {
            if let Some(b) = self.left.next_batch()? {
                return Ok(Some(self.mon.emit(b.tuples)));
            }
            self.on_right = true;
            self.left.close();
        }
        match self.right.next_batch()? {
            Some(b) => Ok(Some(self.mon.emit(b.tuples))),
            None => Ok(None),
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.left.close();
        self.right.close();
        self.mon.finish();
    }
}

/// Move the next bounded batch out of a buffered result.
fn take_batch(out: &mut [Tuple], pos: &mut usize, batch: usize) -> Vec<Tuple> {
    let hi = (*pos + batch).min(out.len());
    let tuples = out[*pos..hi].iter_mut().map(std::mem::take).collect();
    *pos = hi;
    tuples
}

/// Pipeline breaker: materialize the input, run the operator once,
/// stream the buffered result out batch by batch.
struct BreakerCursor<'a> {
    child: Box<dyn Cursor + 'a>,
    op: Breaker,
    out: Vec<Tuple>,
    pos: usize,
    materialized: bool,
    batch: usize,
    mon: Mon,
    closed: bool,
}

impl Cursor for BreakerCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.op.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if !self.materialized {
            self.materialized = true;
            let mut tuples = Vec::new();
            while let Some(b) = self.child.next_batch()? {
                self.mon.residency.alloc(b.len());
                tuples.extend(b.tuples);
            }
            let n_in = tuples.len();
            self.child.close();
            self.out = self.op.apply(tuples);
            self.mon.residency.free(n_in);
            self.mon.residency.alloc(self.out.len());
        }
        if self.pos >= self.out.len() {
            return Ok(None);
        }
        let tuples = take_batch(&mut self.out, &mut self.pos, self.batch);
        self.mon.residency.free(tuples.len());
        Ok(Some(self.mon.emit(tuples)))
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.child.close();
        if self.materialized {
            self.mon.residency.free(self.out.len() - self.pos);
        }
        self.out = Vec::new();
        self.pos = 0;
        self.mon.finish();
    }
}

enum TwigState {
    Start,
    /// Holistic: inputs resident, solutions enumerated, assembling
    /// output tuples batch by batch.
    Stream {
        rels: Vec<Relation>,
        solutions: Vec<Vec<usize>>,
        pos: usize,
        resident: usize,
    },
    /// Uncovered shape: the one-shot cascade result, draining.
    Drain {
        out: Vec<Tuple>,
        pos: usize,
    },
    Done,
}

/// Holistic twig join: drains its inputs (base ID streams in fused
/// plans), runs the multi-way merge once, then assembles one output
/// tuple per solution lazily — solutions are index vectors, so the
/// concatenated tuples never sit in memory all at once.
struct TwigCursor<'a> {
    children: Vec<Box<dyn Cursor + 'a>>,
    steps: Vec<TwigStep>,
    shape: Option<TwigShape>,
    names: Vec<String>,
    one_level: LogicalPlan,
    schema: Schema,
    state: TwigState,
    batch: usize,
    doc: Option<&'a Document>,
    eval: EvalConfig,
    hint: Option<ArmSwitchHint>,
    mon: Mon,
    closed: bool,
}

impl Cursor for TwigCursor<'_> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn open(&mut self) -> Result<(), EvalError> {
        for c in &mut self.children {
            c.open()?;
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
        if self.closed {
            return Ok(None);
        }
        self.mon.begin_pull();
        if matches!(self.state, TwigState::Start) {
            let mut rels = Vec::with_capacity(self.children.len());
            let mut resident = 0usize;
            for c in &mut self.children {
                let mut tuples = Vec::new();
                while let Some(b) = c.next_batch()? {
                    resident += b.len();
                    self.mon.residency.alloc(b.len());
                    tuples.extend(b.tuples);
                }
                let schema = c.schema().clone();
                c.close();
                rels.push(Relation::new(schema, tuples));
            }
            // Mid-query arm check: the leaf streams are fully drained, so
            // their real combined cardinality is known before the merge
            // has run. If a hint is attached (the store flagged this
            // plan's arm choice before) and the observation contradicts
            // the estimate the merge was priced on, fall over to the
            // cascade arm below — same answers, honestly-priced path —
            // and record the outcome.
            let fall_over = match (&self.shape, &self.hint) {
                (Some(_), Some(h)) if h.should_switch(resident as f64) => {
                    h.stats.record_arm_switch(h.doc_version, h.plan_fp, false);
                    tracing::debug!(
                        target: "uload::cost",
                        "twig arm fell over to cascade mid-query: observed {} leaf rows vs est {:.0}",
                        resident,
                        h.est_leaf_rows
                    );
                    true
                }
                _ => false,
            };
            self.state = match &self.shape {
                Some(shape) if !fall_over => {
                    let solutions =
                        twig_solutions(&rels, shape, &self.steps, self.eval, self.mon.metrics())?;
                    TwigState::Stream {
                        rels,
                        solutions,
                        pos: 0,
                        resident,
                    }
                }
                _ => {
                    let mut cat = Catalog::new();
                    for (n, r) in self.names.iter().zip(rels) {
                        cat.insert(n.clone(), r);
                    }
                    // on a fallover the shape *is* covered, so the
                    // one-shot evaluation must have the holistic knob
                    // off or it would just run the twig arm again
                    let mut eval_cfg = self.eval;
                    if fall_over {
                        eval_cfg.use_twigstack = false;
                    }
                    let ev = Evaluator {
                        catalog: &cat,
                        doc: self.doc,
                        config: eval_cfg,
                        metrics: self.mon.metrics_slot(),
                    };
                    let out = ev.eval(&self.one_level)?;
                    if let Some(m) = ev.metrics {
                        self.mon.absorb(m.into_inner());
                    }
                    self.mon.residency.free(resident);
                    self.mon.residency.alloc(out.tuples.len());
                    TwigState::Drain {
                        out: out.tuples,
                        pos: 0,
                    }
                }
            };
        }
        match &mut self.state {
            TwigState::Stream {
                rels,
                solutions,
                pos,
                resident,
            } => {
                if *pos >= solutions.len() {
                    self.mon.residency.free(*resident);
                    *resident = 0;
                    self.state = TwigState::Done;
                    return Ok(None);
                }
                let hi = (*pos + self.batch).min(solutions.len());
                let mut tuples = Vec::with_capacity(hi - *pos);
                for sol in &solutions[*pos..hi] {
                    tuples.push(solution_tuple(rels, sol));
                }
                *pos = hi;
                Ok(Some(self.mon.emit(tuples)))
            }
            TwigState::Drain { out, pos } => {
                if *pos >= out.len() {
                    self.state = TwigState::Done;
                    return Ok(None);
                }
                let tuples = take_batch(out, pos, self.batch);
                self.mon.residency.free(tuples.len());
                Ok(Some(self.mon.emit(tuples)))
            }
            TwigState::Done => Ok(None),
            TwigState::Start => unreachable!("materialized above"),
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for c in &mut self.children {
            c.close();
        }
        match std::mem::replace(&mut self.state, TwigState::Done) {
            TwigState::Stream { resident, .. } => self.mon.residency.free(resident),
            TwigState::Drain { out, pos } => self.mon.residency.free(out.len() - pos),
            _ => {}
        }
        self.mon.finish();
    }
}

// ----------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{tag_derived, tag_derived_attr};
    use crate::plan::{Axis, CmpOp, JoinKind, NavMode, Path, Predicate};
    use crate::value::Value;
    use crate::xmlgen::Template;
    use crate::OrderSpec;
    use xmltree::generate::bib_sample;
    use xmltree::Document;

    fn setup() -> (Document, Catalog) {
        let doc = bib_sample();
        let mut cat = Catalog::new();
        for l in ["library", "book", "phdthesis", "title", "author"] {
            cat.insert_ordered(l, tag_derived(&doc, l), OrderSpec::by("ID"));
        }
        cat.insert("year_attr", tag_derived_attr(&doc, "year"));
        (doc, cat)
    }

    /// Drain `plan` through the pipelined executor at several batch
    /// sizes and require byte-identical results to the oracle.
    fn assert_streams(plan: &LogicalPlan, cat: &Catalog, doc: Option<&Document>) {
        let ev = Evaluator {
            catalog: cat,
            doc,
            config: EvalConfig::default(),
            metrics: None,
        };
        let oracle = ev.eval(plan).unwrap();
        for bs in [1usize, 2, 3, 7, 1024] {
            let cfg = CursorConfig {
                batch_size: bs,
                ..Default::default()
            };
            let exec = build_cursor(plan, cat, doc, &cfg).unwrap();
            let got = exec.collect().unwrap();
            assert_eq!(got, oracle, "batch_size={bs} plan={plan}");
        }
    }

    #[test]
    fn scan_select_project_stream_like_the_oracle() {
        let (doc, cat) = setup();
        assert_streams(&LogicalPlan::scan("book"), &cat, Some(&doc));
        assert_streams(
            &LogicalPlan::scan("title").select(Predicate::eq("Val", Value::str("Data on the Web"))),
            &cat,
            Some(&doc),
        );
        assert_streams(
            &LogicalPlan::scan("title").project(&["ID", "Val"]),
            &cat,
            Some(&doc),
        );
    }

    #[test]
    fn binary_operators_stream_like_the_oracle() {
        let (doc, cat) = setup();
        let books = LogicalPlan::scan("book");
        let titles = LogicalPlan::scan("title");
        assert_streams(&books.clone().product(titles.clone()), &cat, Some(&doc));
        for kind in [
            JoinKind::Inner,
            JoinKind::Semi,
            JoinKind::LeftOuter,
            JoinKind::Nest,
            JoinKind::NestOuter,
        ] {
            let p = books
                .clone()
                .struct_join(titles.clone(), "ID", "ID", Axis::Child, kind);
            assert_streams(&p, &cat, Some(&doc));
        }
        let rtitles = LogicalPlan::scan("title")
            .project(&["ID", "Val"])
            .rename(&["tid", "tval"]);
        for kind in [JoinKind::Inner, JoinKind::Semi, JoinKind::LeftOuter] {
            assert_streams(
                &books.clone().join(
                    rtitles.clone(),
                    Predicate::col_cmp("Val", CmpOp::Eq, "tval"),
                    kind,
                ),
                &cat,
                Some(&doc),
            );
        }
        assert_streams(&titles.clone().union(titles.clone()), &cat, Some(&doc));
        assert_streams(
            &titles.clone().difference(
                titles
                    .clone()
                    .select(Predicate::eq("Val", Value::str("Data on the Web"))),
            ),
            &cat,
            Some(&doc),
        );
    }

    #[test]
    fn breakers_stream_like_the_oracle() {
        let (doc, cat) = setup();
        let titles = LogicalPlan::scan("title");
        assert_streams(
            &titles
                .clone()
                .union(titles.clone())
                .project_distinct(&["Val"]),
            &cat,
            Some(&doc),
        );
        assert_streams(
            &LogicalPlan::GroupBy {
                input: Box::new(LogicalPlan::scan("author")),
                keys: vec!["Val".into()],
                nest_as: "occ".into(),
            },
            &cat,
            Some(&doc),
        );
        assert_streams(&titles.clone().sort(&["Val"]), &cat, Some(&doc));
        assert_streams(
            &LogicalPlan::NestAll {
                input: Box::new(titles.clone()),
                as_name: "all".into(),
            },
            &cat,
            Some(&doc),
        );
        // NestAll over an *empty* input still yields its single tuple
        assert_streams(
            &LogicalPlan::NestAll {
                input: Box::new(titles.select(Predicate::eq("Val", Value::str("no such title")))),
                as_name: "all".into(),
            },
            &cat,
            Some(&doc),
        );
    }

    /// A one-column ID stream with a distinct name, the shape fused
    /// twig plans feed the holistic operator.
    fn id_col(rel: &str, as_name: &str) -> LogicalPlan {
        LogicalPlan::scan(rel).project(&["ID"]).rename(&[as_name])
    }

    #[test]
    fn twig_join_streams_like_the_oracle() {
        let (doc, cat) = setup();
        let plan = id_col("library", "id0").twig_join(vec![
            TwigStep {
                input: id_col("book", "id1"),
                parent_attr: "id0".into(),
                attr: "id1".into(),
                axis: Axis::Descendant,
            },
            TwigStep {
                input: id_col("title", "id2"),
                parent_attr: "id1".into(),
                attr: "id2".into(),
                axis: Axis::Child,
            },
        ]);
        assert_streams(&plan, &cat, Some(&doc));
        // cascade fallback (holistic off) must match too
        let ev = Evaluator {
            catalog: &cat,
            doc: Some(&doc),
            config: EvalConfig::default(),
            metrics: None,
        };
        let oracle = ev.eval(&plan).unwrap();
        let cfg = CursorConfig {
            batch_size: 2,
            eval: EvalConfig {
                use_twigstack: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let got = build_cursor(&plan, &cat, Some(&doc), &cfg)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got, oracle);
    }

    #[test]
    fn arm_hint_falls_over_to_cascade_and_records_the_switch() {
        let (doc, cat) = setup();
        let plan = id_col("library", "id0").twig_join(vec![
            TwigStep {
                input: id_col("book", "id1"),
                parent_attr: "id0".into(),
                attr: "id1".into(),
                axis: Axis::Descendant,
            },
            TwigStep {
                input: id_col("title", "id2"),
                parent_attr: "id1".into(),
                attr: "id2".into(),
                axis: Axis::Child,
            },
        ]);
        let oracle = build_cursor(&plan, &cat, Some(&doc), &CursorConfig::default())
            .unwrap()
            .collect()
            .unwrap();

        // estimate wildly above the real combined leaf cardinality: the
        // cursor must fall over to the cascade arm, produce identical
        // rows, and record exactly one switch in the store
        let stats = Arc::new(StatsStore::new());
        let cfg = CursorConfig {
            arm_hint: Some(ArmSwitchHint {
                stats: Arc::clone(&stats),
                doc_version: 5,
                plan_fp: 0x51,
                est_leaf_rows: 1_000_000.0,
            }),
            ..Default::default()
        };
        let got = build_cursor(&plan, &cat, Some(&doc), &cfg)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got, oracle, "fallover must not change answers");
        let arm = stats.arm(5, 0x51).expect("switch recorded");
        assert_eq!(arm.switches, 1);
        assert_eq!(arm.mispredicts, 1);

        // an accurate estimate keeps the twig arm and records nothing
        let quiet = Arc::new(StatsStore::new());
        let total: usize = ["library", "book", "title"]
            .iter()
            .map(|n| cat.get(n).unwrap().len())
            .sum();
        let cfg = CursorConfig {
            arm_hint: Some(ArmSwitchHint {
                stats: Arc::clone(&quiet),
                doc_version: 5,
                plan_fp: 0x51,
                est_leaf_rows: total as f64,
            }),
            ..Default::default()
        };
        let got = build_cursor(&plan, &cat, Some(&doc), &cfg)
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(got, oracle);
        assert!(quiet.arm(5, 0x51).is_none(), "no switch on a sane estimate");
    }

    #[test]
    fn unnest_roundtrip_streams() {
        let (doc, cat) = setup();
        let nested = LogicalPlan::scan("book").struct_nest_join(
            LogicalPlan::scan("title"),
            "ID",
            "ID",
            Axis::Child,
            false,
            "ts",
        );
        let plan = LogicalPlan::Unnest {
            input: Box::new(nested),
            attr: "ts".into(),
        };
        assert_streams(&plan, &cat, Some(&doc));
    }

    #[test]
    fn sort_elision_streams_declared_order() {
        let (doc, cat) = setup();
        let plan = LogicalPlan::scan("book").sort(&["ID"]);
        assert_streams(&plan, &cat, Some(&doc));
        // elided: the whole tree is the scan, so nothing is buffered
        let cfg = CursorConfig {
            batch_size: 1,
            ..Default::default()
        };
        let mut exec = build_cursor(&plan, &cat, Some(&doc), &cfg).unwrap();
        exec.next_batch().unwrap();
        assert_eq!(exec.peak_resident(), 1, "no breaker buffer for the sort");
        // an un-declared order still goes through the breaker
        let by_val = LogicalPlan::scan("book").sort(&["Val"]);
        assert_streams(&by_val, &cat, Some(&doc));
    }

    #[test]
    fn batch_boundaries_around_input_size() {
        let (doc, cat) = setup();
        // relation sizes in the bib sample are small; check ±1 around
        // them and around the default size
        let n = cat.get("author").unwrap().len();
        let plan = LogicalPlan::scan("author").project(&["Val"]);
        for bs in [1, 2, n.saturating_sub(1).max(1), n, n + 1, 1023, 1024, 1025] {
            let cfg = CursorConfig {
                batch_size: bs,
                ..Default::default()
            };
            let exec = build_cursor(&plan, &cat, Some(&doc), &cfg).unwrap();
            let got = exec.collect().unwrap();
            assert_eq!(got.len(), n, "batch_size={bs}");
        }
    }

    #[test]
    fn build_errors_surface_before_streaming() {
        let (doc, cat) = setup();
        assert!(matches!(
            build_cursor(
                &LogicalPlan::scan("nope"),
                &cat,
                Some(&doc),
                &CursorConfig::default()
            )
            .err(),
            Some(EvalError::UnknownRelation(_))
        ));
        let bad = LogicalPlan::scan("book").select(Predicate::eq("Nope", Value::Int(1)));
        assert!(matches!(
            build_cursor(&bad, &cat, Some(&doc), &CursorConfig::default()).err(),
            Some(EvalError::UnknownAttribute(_))
        ));
        // a template splicing a column its input lacks fails loudly
        let bad = LogicalPlan::XmlTemplate {
            input: Box::new(LogicalPlan::scan("book").project(&["ID"])),
            templ: Template::elem("r", vec![Template::attr("Val")]),
        };
        assert!(matches!(
            build_cursor(&bad, &cat, Some(&doc), &CursorConfig::default()).err(),
            Some(EvalError::UnknownAttribute(a)) if a == "Val"
        ));
    }

    /// Schema of `parent`'s first child when built under the demand
    /// `parent` places on it (the root demands everything of `parent`).
    fn child_schema(parent: &LogicalPlan, cat: &Catalog, doc: &Document) -> Schema {
        let mut b = Builder {
            catalog: cat,
            doc: Some(doc),
            cfg: CursorConfig::default(),
            residency: Rc::new(Residency::default()),
            ops: Vec::new(),
        };
        let demand = child_demands(parent, &Demand::All).remove(0);
        b.build(parent.child_plans()[0], &demand)
            .unwrap()
            .schema()
            .clone()
    }

    #[test]
    fn navigate_computes_only_demanded_columns() {
        let (doc, cat) = setup();
        let nav = LogicalPlan::Navigate {
            input: Box::new(LogicalPlan::scan("book")),
            from_attr: Path::new("ID"),
            axis: Axis::Child,
            label: "author".into(),
            as_prefix: "a".into(),
            mode: NavMode::Flat,
        };
        let names =
            |s: &Schema| -> Vec<String> { s.fields.iter().map(|f| f.name.clone()).collect() };
        let base = ["ID", "Tag", "Val", "Cont"];

        // a Project reading only the ID: no _Val/_Cont computed or emitted
        let ids_only = nav.clone().project(&["a_ID"]);
        let got = child_schema(&ids_only, &cat, &doc);
        assert_eq!(names(&got), [&base[..], &["a_ID"]].concat());
        assert_streams(&ids_only, &cat, Some(&doc));
        // a Project reading the content keeps exactly that column
        let cont = nav.clone().project(&["ID", "a_Cont"]);
        let got = child_schema(&cont, &cat, &doc);
        assert_eq!(names(&got), [&base[..], &["a_ID", "a_Cont"]].concat());
        assert_streams(&cont, &cat, Some(&doc));

        // positional or whole-tuple parents keep all three
        let all = [&base[..], &["a_ID", "a_Val", "a_Cont"]].concat();
        let parents = [
            LogicalPlan::XmlTemplate {
                input: Box::new(nav.clone()),
                templ: Template::elem("r", vec![Template::attr("a_ID")]),
            },
            nav.clone().union(nav.clone()),
            nav.clone().rename(&["i", "t", "v", "c", "x", "y", "z"]),
        ];
        for parent in &parents {
            assert_eq!(names(&child_schema(parent, &cat, &doc)), all, "{parent}");
            assert_streams(parent, &cat, Some(&doc));
        }
    }

    /// A child that counts how many times it is pulled — the probe for
    /// the cancellation contract.
    struct Probe<'a> {
        inner: Box<dyn Cursor + 'a>,
        pulls: Rc<Cell<usize>>,
    }

    impl Cursor for Probe<'_> {
        fn schema(&self) -> &Schema {
            self.inner.schema()
        }
        fn open(&mut self) -> Result<(), EvalError> {
            self.inner.open()
        }
        fn next_batch(&mut self) -> Result<Option<TupleBatch>, EvalError> {
            self.pulls.set(self.pulls.get() + 1);
            self.inner.next_batch()
        }
        fn close(&mut self) {
            self.inner.close();
        }
    }

    #[test]
    fn close_cancels_mid_stream_without_pulling_children() {
        let (_doc, cat) = setup();
        let rel = cat.get("author").unwrap();
        let residency = Rc::new(Residency::default());
        let mon = |r: &Rc<Residency>| Mon {
            residency: Rc::clone(r),
            cells: None,
            outstanding: Cell::new(0),
        };
        let pulls = Rc::new(Cell::new(0));
        let scan = ScanCursor {
            rel,
            pos: 0,
            batch: 1,
            mon: mon(&residency),
            closed: false,
        };
        let probe = Probe {
            inner: Box::new(scan),
            pulls: Rc::clone(&pulls),
        };
        let plan = LogicalPlan::scan("author").select(Predicate::True);
        let mut cur = MapCursor {
            child: Box::new(probe),
            op: Unary::compile(&plan, &rel.schema, &Demand::All, None).unwrap(),
            batch: 1,
            spill: Spill::default(),
            mon: mon(&residency),
            closed: false,
        };
        cur.open().unwrap();
        assert!(cur.next_batch().unwrap().is_some());
        let pulled = pulls.get();
        assert!(pulled >= 1);
        cur.close();
        // after close: no more batches, and the child is never pulled
        for _ in 0..3 {
            assert!(cur.next_batch().unwrap().is_none());
        }
        assert_eq!(pulls.get(), pulled, "child pulled after close");
        assert_eq!(residency.current(), 0, "close releases resident tuples");
    }

    #[test]
    fn early_close_keeps_residency_below_materialized_size() {
        let (doc, cat) = setup();
        // a product is quadratic when materialized; pull one batch only
        let plan = LogicalPlan::scan("author").product(LogicalPlan::scan("title"));
        let ev = Evaluator::with_document(&cat, &doc);
        let full = ev.eval(&plan).unwrap().len() as u64;
        let cfg = CursorConfig {
            batch_size: 1,
            ..Default::default()
        };
        let mut exec = build_cursor(&plan, &cat, Some(&doc), &cfg).unwrap();
        assert!(exec.next_batch().unwrap().is_some());
        exec.close();
        assert_eq!(exec.resident_now(), 0);
        assert!(
            exec.peak_resident() < full + cat.get("title").unwrap().len() as u64,
            "peak {} vs full {}",
            exec.peak_resident(),
            full
        );
    }

    #[test]
    fn profiling_counts_batches_rows_and_kernel_work() {
        let (doc, cat) = setup();
        let plan = LogicalPlan::scan("book").struct_join(
            LogicalPlan::scan("title"),
            "ID",
            "ID",
            Axis::Child,
            JoinKind::Inner,
        );
        let cfg = CursorConfig {
            batch_size: 1,
            profiling: true,
            ..Default::default()
        };
        let mut exec = build_cursor(&plan, &cat, Some(&doc), &cfg).unwrap();
        let mut rows = 0u64;
        while let Some(b) = exec.next_batch().unwrap() {
            rows += b.len() as u64;
        }
        let ops = exec.op_stats();
        assert_eq!(ops.len(), 3, "join + two scans");
        assert!(ops[0].label.starts_with("StructJoin"));
        assert_eq!(ops[0].cells.rows.get(), rows);
        assert!(ops[0].cells.batches.get() >= 1);
        assert!(
            ops[0].cells.metrics.borrow().comparisons > 0,
            "metered kernels feed op metrics"
        );
        assert!(!ops[0].breaker);
        assert!(exec.peak_resident() > 0);
    }

    #[test]
    fn breaker_annotation_lists_pre_order_labels() {
        let plan = LogicalPlan::scan("a")
            .union(LogicalPlan::scan("b"))
            .project_distinct(&["x"])
            .sort(&["x"]);
        let labels = pipeline_breakers(&plan);
        assert_eq!(labels.len(), 2);
        assert!(labels[0].starts_with("Sort"));
        assert!(labels[1].starts_with("Project"));
        assert!(is_pipeline_breaker(&plan));
        assert!(!is_pipeline_breaker(&LogicalPlan::scan("a")));
    }
}

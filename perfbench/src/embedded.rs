//! The embedded workloads, `adhoc` and `scan`: one thread, one engine
//! (`EngineConfig::threads = 1`), the public `Uload` API.
//!
//! * `adhoc` — `Uload::answer(text, doc)` over xmark(15): every request
//!   compiles its query text (parse → extract → containment/rewrite →
//!   plan) and then executes it.
//! * `scan` — the same shapes over xmark(150), prepared once in setup;
//!   the primary request drains `stream_prepared`.
//!
//! Both also run, once per shape and round, a materialized execution
//! (`answer_prepared`) and a first-10-rows stream (the LIMIT path), plus
//! `WRITES_PER_ROUND` document reloads per round.

use std::time::Instant;

use algebra::{build_cursor, CursorConfig, Evaluator, LogicalPlan, Tuple};
use uload::{Document, DocumentHandle, EngineConfig, PreparedQuery, Uload};

use crate::common::{
    alloc_counts, median, ms, quantile, speed_factor, walk_path, Calibrator, Checks, Rng, Sample,
    Tracer, Verdict,
};
use crate::queries::{shape, Reference, Shape, DOC_NAMES, DOC_SEED, SCAN, SHAPES, VIEWS};
use crate::{Metrics, RunArgs, RunResult};

pub struct Config {
    pub scale: usize,
    /// Compile in the request loop (`adhoc`) or prepare in setup (`scan`).
    pub adhoc: bool,
}

/// Document reloads per round (enough for a steady median even when a
/// round takes seconds).
const WRITES_PER_ROUND: usize = 3;

/// Rows kept from a first-rows request.
pub const FIRST_ROWS: usize = 10;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `Uload::answer` on one query text (adhoc's primary request).
    Answer(usize),
    /// Drain `stream_prepared` (scan's primary request).
    Stream(usize),
    /// `answer_prepared`.
    Materialize(usize),
    /// The first 10 rows of `stream_prepared`, then drop.
    FirstRows(usize),
    /// Document reload: `parse_document` of the serialized document,
    /// then `DocumentHandle::reload`.
    Write,
}

/// Setup phase times of one setup, milliseconds.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_ms: f64,
    pub summary_ms: f64,
    pub views_ms: f64,
    pub prepare_ms: f64,
}

struct Setup {
    engine: Uload,
    handle: DocumentHandle,
    /// Prepared plans, one per shape (scan: in setup; adhoc: after it).
    preps: Vec<PreparedQuery>,
    times: SetupTimes,
}

fn setup(cfg: &Config, shapes: &[&Shape]) -> Setup {
    let t0 = Instant::now();
    let t = Instant::now();
    let doc = uload::generate::xmark(cfg.scale, DOC_SEED);
    let generate_ms = ms(t.elapsed());
    let t = Instant::now();
    let mut engine = Uload::builder()
        .document(&doc)
        .config(EngineConfig::default().with_threads(1))
        .build()
        .expect("engine builds");
    let summary_ms = ms(t.elapsed());
    let t = Instant::now();
    for (name, xam) in VIEWS {
        engine
            .add_view_text(*name, xam, &doc)
            .expect("view materializes");
    }
    let views_ms = ms(t.elapsed());
    let t = Instant::now();
    let preps = if cfg.adhoc {
        Vec::new()
    } else {
        prepare_all(&engine, shapes)
    };
    let prepare_ms = ms(t.elapsed());
    let total_s = t0.elapsed().as_secs_f64();
    Setup {
        engine,
        handle: DocumentHandle::new(doc),
        preps,
        times: SetupTimes {
            total_s,
            generate_ms,
            summary_ms,
            views_ms,
            prepare_ms,
        },
    }
}

fn prepare_all(engine: &Uload, shapes: &[&Shape]) -> Vec<PreparedQuery> {
    shapes
        .iter()
        .map(|s| {
            engine
                .prepare_query(&s.text(DOC_NAMES[0]))
                .expect("shape prepares")
        })
        .collect()
}

/// Serialize result tuples the way the engine does (one XML string per
/// tuple).
pub fn serialize(tuples: &[Tuple]) -> Vec<String> {
    tuples
        .iter()
        .map(|t| t.get(0).as_str().unwrap_or("").to_string())
        .collect()
}

/// The reference answer of a shape over `doc`.
pub fn reference(shape: &Shape, doc: &Document) -> Vec<String> {
    match shape.reference {
        Reference::Walk(steps) => walk_path(doc, steps),
        Reference::Direct => Uload::execute_direct(&shape.text(DOC_NAMES[0]), doc)
            .expect("direct evaluation")
            .into_strings(),
    }
}

/// The answer check's expectations for one shape: the rows the view
/// plan returned when first executed (every later view-path response
/// must be identical to them) and how they compare with the reference.
pub struct Expect {
    pub view_rows: Vec<String>,
    pub view_verdict: Verdict,
}

impl Expect {
    /// Check a view-path response (materialized, streamed, wire,
    /// traced): identical to the first view rows, then judged against
    /// the reference.
    pub fn check(
        &self,
        checks: &mut Checks,
        shape: &'static str,
        path: &'static str,
        got: &uload::Result<Vec<String>>,
    ) {
        let v = match got {
            Ok(rows) if *rows == self.view_rows => self.view_verdict,
            _ => Verdict::Unexpected,
        };
        checks.record(shape, path, v);
    }

    /// Check a first-rows response: a prefix of the full view rows.
    pub fn check_prefix(
        &self,
        checks: &mut Checks,
        shape: &'static str,
        got: &uload::Result<Vec<String>>,
    ) {
        let n = FIRST_ROWS.min(self.view_rows.len());
        let v = match got {
            Ok(rows) if rows[..] == self.view_rows[..n] => Verdict::Ok,
            _ => Verdict::Unexpected,
        };
        checks.record(shape, "first_rows", v);
    }
}

/// One-time answer check after setup: reference answers, then each
/// shape answered materialized, streamed and (for path queries) by the
/// direct evaluator, every response counted.
pub fn expectations(
    engine: &Uload,
    handle: &DocumentHandle,
    shapes: &[&Shape],
    preps: &[PreparedQuery],
    checks: &mut Checks,
) -> Vec<Expect> {
    let doc = handle.document();
    shapes
        .iter()
        .zip(preps)
        .map(|(shape, prep)| {
            let reference = reference(shape, doc);
            let mut direct_rows = None;
            if let Reference::Walk(_) = shape.reference {
                let direct =
                    Uload::execute_direct(&shape.text(DOC_NAMES[0]), doc).map(|o| o.into_strings());
                direct_rows = direct.as_ref().ok().map(Vec::len);
                checks.check(shape.name, "direct", &direct, &reference);
            }
            let view_rows = engine.answer_prepared(prep, doc).unwrap_or_default();
            let e = Expect {
                view_verdict: crate::common::verdict(&view_rows, &reference),
                view_rows,
            };
            if e.view_verdict != Verdict::Ok || direct_rows.is_some_and(|n| n != reference.len()) {
                println!(
                    "  rows of {:<22} reference {:>6}, views {:>6}, direct {:>6}",
                    shape.name,
                    reference.len(),
                    e.view_rows.len(),
                    direct_rows.map_or("-".to_string(), |n| n.to_string())
                );
            }
            let mat = engine.answer_prepared(prep, doc);
            e.check(checks, shape.name, "materialized", &mat);
            let streamed = drain(engine, prep, handle);
            e.check(checks, shape.name, "streamed", &streamed);
            e
        })
        .collect()
}

pub fn drain(
    engine: &Uload,
    prep: &PreparedQuery,
    handle: &DocumentHandle,
) -> uload::Result<Vec<String>> {
    engine.stream_prepared(prep, handle)?.collect()
}

pub fn first_rows(
    engine: &Uload,
    prep: &PreparedQuery,
    handle: &DocumentHandle,
) -> uload::Result<Vec<String>> {
    engine
        .stream_prepared(prep, handle)?
        .take(FIRST_ROWS)
        .collect()
}

/// Document reload as a writer does it: parse the serialized document,
/// then mint a new version of the handle.
fn reload(handle: &DocumentHandle, serialized: &str) -> (DocumentHandle, bool) {
    let doc = uload::parse_document(serialized).expect("serialized document parses");
    let same = doc.len() == handle.document().len();
    (handle.reload(doc), same)
}

/// Timed requests of one run, by kind.
#[derive(Default)]
pub struct Samples {
    pub primary: Vec<Sample>,
    pub materialized: Vec<Sample>,
    pub first_rows: Vec<Sample>,
    pub write: Vec<Sample>,
}

impl Samples {
    pub fn count(&self) -> usize {
        self.primary.len() + self.materialized.len() + self.first_rows.len() + self.write.len()
    }

    pub fn merge(&mut self, o: Samples) {
        self.primary.extend(o.primary);
        self.materialized.extend(o.materialized);
        self.first_rows.extend(o.first_rows);
        self.write.extend(o.write);
    }

    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.primary
            .iter()
            .chain(&self.materialized)
            .chain(&self.first_rows)
            .chain(&self.write)
    }

    /// The end-to-end metrics every workload reports, times normalized
    /// by each request's speed factor; prints the raw ones beside them.
    pub fn end_to_end(&self, m: &mut Metrics, setup: &[Sample], wall_s: f64, alloc_bytes: u64) {
        let norm = |v: &[Sample]| v.iter().map(|s| s.normalized()).collect::<Vec<_>>();
        let raw = |v: &[Sample]| v.iter().map(|s| s.ms).collect::<Vec<_>>();
        // time-weighted speed factor of the measured phase
        let busy: f64 = self.all().map(|s| s.ms).sum();
        let factor = self.all().map(|s| s.normalized()).sum::<f64>() / busy.max(f64::MIN_POSITIVE);
        let qps = self.count() as f64 / wall_s;
        m.put("setup_s", median(&norm(setup)) / 1e3, "s");
        m.put("latency_p50_ms", quantile(&norm(&self.primary), 0.5), "ms");
        m.put("latency_p90_ms", quantile(&norm(&self.primary), 0.9), "ms");
        m.put("throughput_qps", qps / factor, "1/s");
        m.put(
            "materialized_p50_ms",
            median(&norm(&self.materialized)),
            "ms",
        );
        m.put("first_rows_p50_ms", median(&norm(&self.first_rows)), "ms");
        m.put("write_p50_ms", median(&norm(&self.write)), "ms");
        m.put(
            "alloc_bytes_per_op",
            alloc_bytes as f64 / self.count().max(1) as f64,
            "B",
        );
        m.put("peak_rss_mb", crate::common::peak_rss_mb(), "MiB");
        println!(
            "samples: {} primary, {} materialized, {} first-rows, {} writes; mean speed factor {factor:.3}",
            self.primary.len(),
            self.materialized.len(),
            self.first_rows.len(),
            self.write.len()
        );
        println!(
            "raw (not normalized): setup {:.4}s, latency p50 {:.4}ms p90 {:.4}ms, {qps:.2} req/s, \
             materialized p50 {:.4}ms, first rows p50 {:.4}ms, write p50 {:.4}ms",
            median(&raw(setup)) / 1e3,
            quantile(&raw(&self.primary), 0.5),
            quantile(&raw(&self.primary), 0.9),
            median(&raw(&self.materialized)),
            median(&raw(&self.first_rows)),
            median(&raw(&self.write)),
        );
    }
}

struct Run<'a> {
    cfg: &'a Config,
    engine: Uload,
    handle: DocumentHandle,
    serialized: String,
    shapes: Vec<&'static Shape>,
    /// `(shape index, text)` of every distinct adhoc query text.
    texts: Vec<(usize, String)>,
    preps: Vec<PreparedQuery>,
    expect: Vec<Expect>,
    checks: Checks,
}

impl Run<'_> {
    /// The requests of one round, in seeded order.
    fn round(&self, rng: &mut Rng) -> Vec<Op> {
        let mut ops: Vec<Op> = Vec::new();
        if self.cfg.adhoc {
            ops.extend((0..self.texts.len()).map(Op::Answer));
        } else {
            ops.extend((0..self.shapes.len()).map(Op::Stream));
        }
        ops.extend((0..self.shapes.len()).map(Op::Materialize));
        ops.extend((0..self.shapes.len()).map(Op::FirstRows));
        ops.extend([Op::Write; WRITES_PER_ROUND]);
        rng.shuffle(&mut ops);
        ops
    }

    /// Execute one request untraced; returns its latency in ms and checks
    /// its answer.
    fn exec(&mut self, op: Op) -> f64 {
        let doc = self.handle.document();
        match op {
            Op::Answer(i) => {
                let (s, text) = &self.texts[i];
                let t = Instant::now();
                let out = self.engine.answer(text, doc).map(|(rows, _)| rows);
                let dt = ms(t.elapsed());
                self.expect[*s].check(&mut self.checks, self.shapes[*s].name, "answer", &out);
                dt
            }
            Op::Stream(s) => {
                let t = Instant::now();
                let out = drain(&self.engine, &self.preps[s], &self.handle);
                let dt = ms(t.elapsed());
                self.expect[s].check(&mut self.checks, self.shapes[s].name, "streamed", &out);
                dt
            }
            Op::Materialize(s) => {
                let t = Instant::now();
                let out = self.engine.answer_prepared(&self.preps[s], doc);
                let dt = ms(t.elapsed());
                self.expect[s].check(&mut self.checks, self.shapes[s].name, "materialized", &out);
                dt
            }
            Op::FirstRows(s) => {
                let t = Instant::now();
                let out = first_rows(&self.engine, &self.preps[s], &self.handle);
                let dt = ms(t.elapsed());
                self.expect[s].check_prefix(&mut self.checks, self.shapes[s].name, &out);
                dt
            }
            Op::Write => {
                let t = Instant::now();
                let (h, same) = reload(&self.handle, &self.serialized);
                let dt = ms(t.elapsed());
                self.handle = h;
                self.checks
                    .record("document", "reload", Verdict::ok_if(same));
                dt
            }
        }
    }

    fn record(samples: &mut Samples, op: Op, s: Sample) {
        match op {
            Op::Answer(_) | Op::Stream(_) => samples.primary.push(s),
            Op::Materialize(_) => samples.materialized.push(s),
            Op::FirstRows(_) => samples.first_rows.push(s),
            Op::Write => samples.write.push(s),
        }
    }

    /// Execute one request decomposed into timed public calls. The
    /// answer is checked afterwards ([`Run::check_traced`]), outside the
    /// request's timer.
    fn exec_traced(&mut self, op: Op, tr: &mut Tracer, lc: &mut LayerCounts) -> Traced {
        let doc = self.handle.document();
        match op {
            Op::Answer(i) => {
                let s = self.texts[i].0;
                let mut plan = None;
                let out = compile_traced(&self.engine, &self.texts[i].1, tr, lc).and_then(|p| {
                    let rows = materialize_traced(&self.engine, &p, doc, tr);
                    plan = Some(p);
                    rows
                });
                Traced::Rows {
                    shape: s,
                    prefix: false,
                    out,
                    plan,
                }
            }
            Op::Materialize(s) => {
                let out = materialize_traced(&self.engine, self.preps[s].plan(), doc, tr);
                Traced::Rows {
                    shape: s,
                    prefix: false,
                    out,
                    plan: None,
                }
            }
            Op::Stream(s) | Op::FirstRows(s) => {
                let prefix = matches!(op, Op::FirstRows(_));
                let limit = if prefix { FIRST_ROWS } else { usize::MAX };
                let out = stream_traced(&self.engine, self.preps[s].plan(), doc, limit, tr, lc);
                Traced::Rows {
                    shape: s,
                    prefix,
                    out,
                    plan: None,
                }
            }
            Op::Write => {
                let parsed = tr.span("xmltree.parse", || uload::parse_document(&self.serialized));
                let doc = parsed.expect("serialized document parses");
                lc.write_parse_ns.push(tr.spans.last().map_or(0, |s| s.ns));
                let same = doc.len() == self.handle.document().len();
                self.handle = tr.span("storage.reload", || self.handle.reload(doc));
                Traced::Reload { same }
            }
        }
    }

    /// Check a traced response: the rows equal the untraced rows, and a
    /// traced compile built the very plan `prepare_query` builds.
    fn check_traced(&mut self, t: Traced) {
        match t {
            Traced::Rows {
                shape,
                prefix,
                out,
                plan,
            } => {
                let out = match plan {
                    Some(p) if uload::plan_fingerprint(&p) != self.preps[shape].fingerprint() => {
                        Err(uload::Error::Eval(
                            "traced plan differs from prepared plan".into(),
                        ))
                    }
                    _ => out,
                };
                let (e, name) = (&self.expect[shape], self.shapes[shape].name);
                if prefix {
                    e.check_prefix(&mut self.checks, name, &out);
                } else {
                    e.check(&mut self.checks, name, "traced", &out);
                }
            }
            Traced::Reload { same } => {
                self.checks
                    .record("document", "traced_reload", Verdict::ok_if(same));
            }
        }
    }
}

/// What a traced request produced, checked after its timer stops.
enum Traced {
    Rows {
        shape: usize,
        prefix: bool,
        out: uload::Result<Vec<String>>,
        /// The plan a traced compile built (adhoc requests).
        plan: Option<LogicalPlan>,
    },
    Reload {
        same: bool,
    },
}

/// Counters of the traced run beyond span times.
#[derive(Default)]
pub struct LayerCounts {
    pub queries: u64,
    pub patterns: u64,
    pub rewritings: u64,
    pub views_used: u64,
    pub twig_plans: u64,
    pub cursor_runs: u64,
    pub comparisons: u64,
    pub elements_skipped: u64,
    pub rows: u64,
    pub peak_resident: u64,
    pub write_parse_ns: Vec<u64>,
}

/// parse → extract → (satisfiable, rewrite) per pattern → plan, each a
/// timed public call. Returns the executable plan.
pub fn compile_traced(
    engine: &Uload,
    text: &str,
    tr: &mut Tracer,
    lc: &mut LayerCounts,
) -> uload::Result<LogicalPlan> {
    lc.queries += 1;
    let q = tr.span("xquery.parse", || Uload::parse_query(text))?;
    let ex = tr.span("xquery.extract", || Uload::extract_patterns(&q))?;
    let mut plans = Vec::with_capacity(ex.patterns.len());
    for (i, pat) in ex.patterns.iter().enumerate() {
        lc.patterns += 1;
        if !tr.span("containment.satisfiable", || {
            uload::satisfiable(pat, engine.summary())
        }) {
            return Err(uload::Error::UnsatisfiablePattern(pat.to_string()));
        }
        let rws = tr.span("rewriting.rewrite", || engine.rewrite_pattern(pat));
        let rw = rws
            .into_iter()
            .next()
            .ok_or_else(|| uload::Error::NoRewriting {
                pattern_index: i,
                pattern: pat.to_string(),
            })?;
        lc.rewritings += 1;
        lc.views_used += rw.views_used.len() as u64;
        plans.push(rw.plan);
    }
    let use_twig = engine.config().use_twigstack;
    let (plan, twig) = tr.span("rewriting.plan", || {
        let base = xquery::translate::combine_plans(&ex, plans);
        let fused = algebra::fuse_struct_joins(&base);
        let twig = fused != base;
        (if use_twig { fused } else { base }, twig)
    });
    lc.twig_plans += u64::from(twig);
    Ok(plan)
}

/// `Evaluator::eval` → serialize, each a timed call.
pub fn materialize_traced(
    engine: &Uload,
    plan: &LogicalPlan,
    doc: &Document,
    tr: &mut Tracer,
) -> uload::Result<Vec<String>> {
    let rel = tr.span("algebra.materialize", || {
        let mut ev = Evaluator::with_document(engine.store().catalog(), doc);
        let c = engine.config();
        ev.config.use_skip_index = c.use_skip_index;
        ev.config.columnar_kernels = c.columnar_kernels;
        ev.config.use_twigstack = c.use_twigstack;
        ev.eval(plan)
    });
    let rel = rel.map_err(|e| uload::Error::Eval(e.to_string()))?;
    let rows = tr.span("rewriting.serialize", || serialize(&rel.tuples));
    // freeing the evaluator's output is the executor's work too
    tr.span("algebra.materialize", || drop(rel));
    Ok(rows)
}

/// build_cursor → next_batch until `limit` rows (or the end) →
/// serialize, each a timed call; kernel counters from the cursors' own
/// profiles.
pub fn stream_traced(
    engine: &Uload,
    plan: &LogicalPlan,
    doc: &Document,
    limit: usize,
    tr: &mut Tracer,
    lc: &mut LayerCounts,
) -> uload::Result<Vec<String>> {
    // the engine's own cursor settings, with per-operator metering on
    // for the kernel counters
    let c = engine.config();
    let mut ccfg = CursorConfig {
        batch_size: c.batch_size,
        profiling: true,
        ..CursorConfig::default()
    };
    ccfg.eval.use_skip_index = c.use_skip_index;
    ccfg.eval.columnar_kernels = c.columnar_kernels;
    ccfg.eval.use_twigstack = c.use_twigstack;
    let catalog = engine.store().catalog();
    let mut exec = tr
        .span("algebra.open", || {
            build_cursor(plan, catalog, Some(doc), &ccfg)
        })
        .map_err(|e| uload::Error::Eval(e.to_string()))?;
    let mut rows = Vec::new();
    while rows.len() < limit {
        let batch = tr
            .span("algebra.exec", || exec.next_batch())
            .map_err(|e| uload::Error::Eval(e.to_string()))?;
        let Some(batch) = batch else { break };
        tr.span("rewriting.serialize", || {
            rows.extend(serialize(&batch.tuples))
        });
    }
    rows.truncate(limit);
    lc.cursor_runs += 1;
    lc.rows += rows.len() as u64;
    lc.peak_resident = lc.peak_resident.max(exec.peak_resident());
    for o in exec.op_stats() {
        let m = o.cells.metrics.borrow();
        lc.comparisons += m.comparisons;
        lc.elements_skipped += m.elements_skipped;
    }
    tr.span("algebra.exec", || {
        exec.close();
        drop(exec)
    });
    Ok(rows)
}

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

pub fn run(cfg: Config, args: &RunArgs) -> RunResult {
    let shapes: Vec<&'static Shape> = if cfg.adhoc {
        SHAPES.iter().collect()
    } else {
        SCAN.iter().map(|s| shape(s)).collect()
    };
    let mut last = None;
    let mut setup_samples = Vec::new();
    for _ in 0..SETUPS {
        // drop the previous engine first, so setups do not overlap in memory
        drop(last.take());
        let factor = speed_factor();
        let s = setup(&cfg, &shapes);
        setup_samples.push(Sample {
            ms: s.times.total_s * 1e3,
            factor,
        });
        last = Some(s);
    }
    let Setup {
        engine,
        handle,
        mut preps,
        times,
    } = last.expect("at least one setup");

    // the answer check's one-time part (untimed)
    if cfg.adhoc {
        preps = prepare_all(&engine, &shapes);
    }
    let mut checks = Checks::default();
    let expect = expectations(&engine, &handle, &shapes, &preps, &mut checks);
    let serialized = handle.document().content(handle.document().root());
    let texts: Vec<(usize, String)> = (0..shapes.len())
        .flat_map(|s| DOC_NAMES.iter().map(move |d| (s, *d)))
        .map(|(s, d)| (s, shapes[s].text(d)))
        .collect();
    let view_tuples: usize = VIEWS
        .iter()
        .filter_map(|(n, _)| engine.store().catalog().get(n).map(|r| r.len()))
        .sum();
    let mut run = Run {
        cfg: &cfg,
        engine,
        handle,
        serialized,
        shapes,
        texts,
        preps,
        expect,
        checks,
    };

    // measured loop: whole rounds until the time is up
    let mut rng = Rng::new(args.seed);
    let mut samples = Samples::default();
    let mut sequence: Vec<Vec<Op>> = Vec::new();
    let mut calibrator = Calibrator::new();
    let (bytes0, _) = alloc_counts();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let ops = run.round(&mut rng);
        for &op in &ops {
            let factor = calibrator.factor();
            let ms = run.exec(op);
            Run::record(&mut samples, op, Sample { ms, factor });
        }
        sequence.push(ops);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let (bytes1, _) = alloc_counts();
    let repeats = if cfg.adhoc {
        1.0 - run.texts.len() as f64 / samples.primary.len().max(1) as f64
    } else {
        0.0
    };

    let mut m = Metrics::default();
    if !args.trace {
        samples.end_to_end(&mut m, &setup_samples, wall_s, bytes1 - bytes0);
    } else {
        // replay a quarter of the rounds, each round first untraced and
        // then traced, so the overhead compares like with like
        let mut cal = Calibrator::new();
        let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
        let cache0 = run.engine.cache_stats().unwrap_or_default();
        let mut tr = Tracer::default();
        let mut lc = LayerCounts::default();
        for round in sequence.iter().take(sequence.len().div_ceil(4)) {
            for &op in round {
                let factor = cal.factor();
                untraced_ms += run.exec(op) * factor;
            }
            for &op in round {
                let factor = cal.factor();
                let traced = tr.request(|tr| run.exec_traced(op, tr, &mut lc));
                traced_ms += tr.last_total_ms() * factor;
                run.check_traced(traced);
            }
        }
        let cache1 = run.engine.cache_stats().unwrap_or_default();
        let path = std::path::PathBuf::from(format!(
            ".perfbench/trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = tr.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        let hits = cache1.hits - cache0.hits;
        let misses = cache1.misses - cache0.misses;
        let mut layers = crate::PerLayer::new(&tr, traced_ms / untraced_ms - 1.0);
        layers.embedded(&lc, hits, misses);
        layers.setup(&times, view_tuples);
        layers.finish(&mut m);
    }

    println!(
        "{}: xmark({}) seed {}, {} rounds, {} requests in {:.2}s; last setup \
         (raw): generate {:.1}ms, summary {:.1}ms, views {:.1}ms, prepare {:.1}ms",
        args.workload,
        cfg.scale,
        args.seed,
        sequence.len(),
        samples.count(),
        wall_s,
        times.generate_ms,
        times.summary_ms,
        times.views_ms,
        times.prepare_ms
    );
    if cfg.adhoc {
        println!(
            "adhoc: {} distinct texts over {} shapes; {:.1}% of answer requests repeat an earlier text",
            run.texts.len(),
            run.shapes.len(),
            repeats * 100.0
        );
    }
    RunResult {
        checks: run.checks,
        metrics: m,
    }
}

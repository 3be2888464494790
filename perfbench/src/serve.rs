//! The `serve` workload: an in-process `Server` on a Unix socket over
//! xmark(100), driven closed-loop by two `Client` connections.
//!
//! Each client round is 15 `EXEC`s of three prepared fingerprints
//! (mostly result-cache hits), 4 `QUERY` texts, one inline document reload
//! (`parse_document` + `ServerState::swap_document`, which mints a new
//! version so the next `EXEC` of every fingerprint misses), and one
//! materialized and one first-10-rows execution of a served plan on the
//! server's engine.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use uload::server::{protocol, BindAddr, Client, Server, ServerConfig, ServerHandle, ServerState};
use uload::{DocumentHandle, EngineConfig, PreparedQuery, Uload};

use crate::common::{
    alloc_counts, ms, speed_factor, Calibrator, Checks, Rng, Sample, Tracer, Verdict,
};
use crate::embedded::{
    expectations, first_rows, materialize_traced, stream_traced, Expect, LayerCounts, Samples,
    SetupTimes, FIRST_ROWS, SETUPS,
};
use crate::queries::{shape, Shape, DOC_NAMES, DOC_SEED, VIEWS};
use crate::{Metrics, PerLayer, RunArgs, RunResult};

const SCALE: usize = 100;
const CLIENTS: usize = 2;
const EXECS_PER_SHAPE: usize = 5;
const QUERIES_PER_ROUND: usize = 4;

/// Prepared once, then `EXEC`ed by fingerprint.
const EXEC_SHAPES: &[&str] = &["e13_item_names", "fan_width2", "chain_depth3"];

/// Sent as `QUERY` text (prepared server-side on every call).
const QUERY_SHAPES: &[&str] = &[
    "chain_depth2",
    "chain_depth4",
    "desc_keyword",
    "e15_item_text_kw",
    "site_item_bold",
    "fan_pred_quantity",
    "chain_mail4",
    "parlist_keyword",
    "person_names",
    "mail_senders",
];

#[derive(Clone, Copy, Debug)]
enum Op {
    Exec(usize),
    Query(usize),
    Write,
    Materialize(usize),
    FirstRows(usize),
}

struct Setup {
    server: ServerHandle,
    clients: Vec<Client>,
    fps: Vec<u64>,
    times: SetupTimes,
}

fn socket_path() -> PathBuf {
    PathBuf::from(format!(".perfbench/serve-{}.sock", std::process::id()))
}

fn setup() -> Setup {
    let t0 = Instant::now();
    let t = Instant::now();
    let doc = uload::generate::xmark(SCALE, DOC_SEED);
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
    let config = ServerConfig::default().with_addr(BindAddr::Unix(socket_path()));
    let server = Server::start(config, engine, DocumentHandle::new(doc)).expect("server starts");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("client connects"))
        .collect();
    let fps: Vec<u64> = EXEC_SHAPES
        .iter()
        .map(|s| {
            clients[0]
                .prepare(&shape(s).text(DOC_NAMES[0]))
                .expect("shape prepares")
        })
        .collect();
    let prepare_ms = ms(t.elapsed());
    Setup {
        server,
        clients,
        fps,
        times: SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            generate_ms,
            summary_ms,
            views_ms,
            prepare_ms,
        },
    }
}

fn teardown(s: Setup) {
    for c in s.clients {
        let _ = c.quit();
    }
    s.server.shutdown();
    s.server.wait();
    let _ = std::fs::remove_file(socket_path());
}

/// What every client needs to issue and check requests.
struct Shared<'a> {
    state: &'a ServerState,
    fps: &'a [u64],
    exec: &'a [Expect],
    query: &'a [Expect],
    query_texts: &'a [String],
    serialized: &'a str,
    /// Node count of the served document; every reload must keep it.
    doc_len: usize,
}

impl Shared<'_> {
    fn round(&self, client: usize, round: usize, rng: &mut Rng) -> Vec<Op> {
        let mut ops = Vec::new();
        for k in 0..self.fps.len() {
            ops.extend(std::iter::repeat_n(Op::Exec(k), EXECS_PER_SHAPE));
        }
        let n = self.query_texts.len();
        ops.extend(
            (0..QUERIES_PER_ROUND).map(|j| Op::Query((round * QUERIES_PER_ROUND + j + client) % n)),
        );
        ops.push(Op::Write);
        ops.push(Op::Materialize((round + client) % self.fps.len()));
        ops.push(Op::FirstRows((round + client + 2) % self.fps.len()));
        rng.shuffle(&mut ops);
        ops
    }

    fn plan(&self, k: usize) -> Arc<PreparedQuery> {
        self.state
            .prepared_plan(self.fps[k])
            .expect("registered plan")
    }

    /// One request, untraced: returns its latency (ms); the answer is
    /// checked after the timer stops.
    fn exec(&self, client: &mut Client, op: Op, checks: &mut Checks) -> f64 {
        let engine = self.state.engine();
        match op {
            Op::Exec(k) => {
                let t = Instant::now();
                let out = client.exec(self.fps[k]).map(|r| r.rows);
                let dt = ms(t.elapsed());
                self.exec[k].check(checks, EXEC_SHAPES[k], "wire_exec", &out);
                dt
            }
            Op::Query(q) => {
                let t = Instant::now();
                let out = client.query(&self.query_texts[q]).map(|r| r.rows);
                let dt = ms(t.elapsed());
                self.query[q].check(checks, QUERY_SHAPES[q], "wire_query", &out);
                dt
            }
            Op::Write => {
                let t = Instant::now();
                let doc =
                    uload::parse_document(self.serialized).expect("serialized document parses");
                let len = doc.len();
                self.state.swap_document(doc);
                let dt = ms(t.elapsed());
                checks.record("document", "swap", Verdict::ok_if(len == self.doc_len));
                dt
            }
            Op::Materialize(k) => {
                let (prep, handle) = (self.plan(k), self.state.document());
                let t = Instant::now();
                let out = engine.answer_prepared(&prep, handle.document());
                let dt = ms(t.elapsed());
                self.exec[k].check(checks, EXEC_SHAPES[k], "materialized", &out);
                dt
            }
            Op::FirstRows(k) => {
                let (prep, handle) = (self.plan(k), self.state.document());
                let t = Instant::now();
                let out = first_rows(engine, &prep, &handle);
                let dt = ms(t.elapsed());
                self.exec[k].check_prefix(checks, EXEC_SHAPES[k], &out);
                dt
            }
        }
    }

    fn record(samples: &mut Samples, op: Op, s: Sample) {
        match op {
            Op::Exec(_) | Op::Query(_) => samples.primary.push(s),
            Op::Materialize(_) => samples.materialized.push(s),
            Op::FirstRows(_) => samples.first_rows.push(s),
            Op::Write => samples.write.push(s),
        }
    }

    /// Server-side `PREPARE` time so far (ns), from its histogram.
    fn prepare_ns_sum(&self) -> u64 {
        let h = self.state.metrics().prepare_ns.snapshot();
        (h.mean() * h.count() as f64).round() as u64
    }

    /// One request decomposed: wire round trips split into the
    /// server-side time the server reports and the remainder (the
    /// wire); `QUERY` as `PREPARE` + `EXEC`. The answer is checked
    /// afterwards, outside the request's timer.
    fn exec_traced(
        &self,
        client: &mut Client,
        op: Op,
        tr: &mut Tracer,
        lc: &mut LayerCounts,
    ) -> Traced {
        let engine = self.state.engine();
        let exec_fp = |client: &mut Client, tr: &mut Tracer, fp: u64| {
            let (b0, c0) = alloc_counts();
            let t = Instant::now();
            let reply = client.exec(fp);
            let total = t.elapsed().as_nanos() as u64;
            let (b1, c1) = alloc_counts();
            reply.map(|r| {
                // allocations of the round trip, client and session thread
                tr.attribute("server.exec", r.ns, (b1 - b0, c1 - c0));
                tr.attribute("server.wire", total.saturating_sub(r.ns), (0, 0));
                r.rows
            })
        };
        match op {
            Op::Exec(k) => Traced::Wire(Set::Exec, k, exec_fp(client, tr, self.fps[k])),
            Op::Query(q) => {
                let before = self.prepare_ns_sum();
                let (b0, c0) = alloc_counts();
                let t = Instant::now();
                let fp = client.prepare(&self.query_texts[q]);
                let total = t.elapsed().as_nanos() as u64;
                let (b1, c1) = alloc_counts();
                let server = self.prepare_ns_sum() - before;
                tr.attribute("server.prepare", server, (b1 - b0, c1 - c0));
                tr.attribute("server.wire", total.saturating_sub(server), (0, 0));
                Traced::Wire(Set::Query, q, fp.and_then(|fp| exec_fp(client, tr, fp)))
            }
            Op::Write => {
                let doc = tr
                    .span("xmltree.parse", || uload::parse_document(self.serialized))
                    .expect("serialized document parses");
                lc.write_parse_ns.push(tr.spans.last().map_or(0, |s| s.ns));
                let len = doc.len();
                tr.span("server.swap", || self.state.swap_document(doc));
                Traced::Swap(len)
            }
            Op::Materialize(k) => {
                let (prep, handle) = (self.plan(k), self.state.document());
                let out = materialize_traced(engine, prep.plan(), handle.document(), tr);
                Traced::Local(k, false, out)
            }
            Op::FirstRows(k) => {
                let (prep, handle) = (self.plan(k), self.state.document());
                let out = stream_traced(engine, prep.plan(), handle.document(), FIRST_ROWS, tr, lc);
                Traced::Local(k, true, out)
            }
        }
    }

    fn check_traced(&self, t: Traced, wire: &mut Wire, checks: &mut Checks) {
        match t {
            Traced::Wire(set, i, out) => {
                if let Ok(rows) = &out {
                    wire.reads += 1;
                    wire.bytes += rows
                        .iter()
                        .map(|x| protocol::row_line(x).len() as u64 + 1)
                        .sum::<u64>();
                }
                match set {
                    Set::Exec => self.exec[i].check(checks, EXEC_SHAPES[i], "traced", &out),
                    Set::Query => self.query[i].check(checks, QUERY_SHAPES[i], "traced", &out),
                }
            }
            Traced::Local(k, true, out) => self.exec[k].check_prefix(checks, EXEC_SHAPES[k], &out),
            Traced::Local(k, false, out) => {
                self.exec[k].check(checks, EXEC_SHAPES[k], "traced", &out)
            }
            Traced::Swap(len) => {
                checks.record(
                    "document",
                    "traced_swap",
                    Verdict::ok_if(len == self.doc_len),
                );
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Set {
    Exec,
    Query,
}

/// What a traced request produced, checked after its timer stops.
enum Traced {
    /// Rows over the wire: from an `EXEC` or a `QUERY` shape.
    Wire(Set, usize, uload::Result<Vec<String>>),
    /// Rows of an in-process execution of a served plan (prefix or all).
    Local(usize, bool, uload::Result<Vec<String>>),
    /// A document swap, with the new document's node count.
    Swap(usize),
}

#[derive(Default)]
struct Wire {
    reads: u64,
    bytes: u64,
}

fn p50_us(h: &uload::Histogram) -> f64 {
    h.snapshot().p50() as f64 / 1e3
}

pub fn run(args: &RunArgs) -> RunResult {
    std::fs::create_dir_all(".perfbench").expect("create .perfbench");
    let mut last: Option<Setup> = None;
    let mut setup_samples = Vec::new();
    for _ in 0..SETUPS {
        if let Some(s) = last.take() {
            teardown(s);
        }
        let factor = speed_factor();
        let s = setup();
        setup_samples.push(Sample {
            ms: s.times.total_s * 1e3,
            factor,
        });
        last = Some(s);
    }
    let Setup {
        server,
        mut clients,
        fps,
        times,
    } = last.expect("at least one setup");
    let state: Arc<ServerState> = Arc::clone(server.state());
    let engine = state.engine();
    let handle = state.document();

    // the answer check's one-time part (untimed): references, then each
    // plan materialized and streamed in-process
    let mut checks = Checks::default();
    let exec_shapes: Vec<&Shape> = EXEC_SHAPES.iter().map(|s| shape(s)).collect();
    let exec_preps: Vec<PreparedQuery> = fps
        .iter()
        .map(|fp| (*state.prepared_plan(*fp).expect("registered plan")).clone())
        .collect();
    let exec = expectations(engine, &handle, &exec_shapes, &exec_preps, &mut checks);
    let query_shapes: Vec<&Shape> = QUERY_SHAPES.iter().map(|s| shape(s)).collect();
    let query_texts: Vec<String> = query_shapes.iter().map(|s| s.text(DOC_NAMES[0])).collect();
    let query_preps: Vec<PreparedQuery> = query_texts
        .iter()
        .map(|t| engine.prepare_query(t).expect("query prepares"))
        .collect();
    let query = expectations(engine, &handle, &query_shapes, &query_preps, &mut checks);
    let serialized = handle.document().content(handle.document().root());
    let view_tuples: usize = VIEWS
        .iter()
        .filter_map(|(n, _)| engine.store().catalog().get(n).map(|r| r.len()))
        .sum();
    let shared = Shared {
        state: &state,
        fps: &fps,
        exec: &exec,
        query: &query,
        query_texts: &query_texts,
        serialized: &serialized,
        doc_len: handle.document().len(),
    };
    // the measured phase must not pin the setup document
    drop(handle);

    // measured phase: both clients closed-loop, whole rounds until the
    // time is up
    let deadline = Duration::from_secs_f64(args.seconds);
    let barrier = Barrier::new(CLIENTS + 1);
    let (bytes0, _) = alloc_counts();
    let mut start = Instant::now();
    let per_client: Vec<(Samples, Checks, Vec<Vec<Op>>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (shared, barrier) = (&shared, &barrier);
                scope.spawn(move || {
                    let mut rng = Rng::new(args.seed.wrapping_mul(31).wrapping_add(c as u64 + 1));
                    let mut samples = Samples::default();
                    let mut checks = Checks::default();
                    let mut sequence = Vec::new();
                    let mut calibrator = Calibrator::new();
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < deadline {
                        let ops = shared.round(c, sequence.len(), &mut rng);
                        for &op in &ops {
                            let factor = calibrator.factor();
                            let ms = shared.exec(client, op, &mut checks);
                            Shared::record(&mut samples, op, Sample { ms, factor });
                        }
                        sequence.push(ops);
                    }
                    (samples, checks, sequence)
                })
            })
            .collect();
        barrier.wait();
        start = Instant::now();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let (bytes1, _) = alloc_counts();
    let mut samples = Samples::default();
    let mut rounds = 0;
    let mut sequence = Vec::new();
    for (i, (s, c, seq)) in per_client.into_iter().enumerate() {
        samples.merge(s);
        checks.merge(c);
        rounds += seq.len();
        if i == 0 {
            sequence = seq;
        }
    }

    let mut m = Metrics::default();
    if !args.trace {
        samples.end_to_end(&mut m, &setup_samples, wall_s, bytes1 - bytes0);
    } else {
        // replay a quarter of client 0's rounds on one connection, each
        // round first untraced and then traced
        let client = &mut clients[0];
        let mut cal = Calibrator::new();
        let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
        let cache0 = engine.cache_stats().unwrap_or_default();
        let mut tr = Tracer::default();
        let mut lc = LayerCounts::default();
        let mut wire = Wire::default();
        for round in sequence.iter().take(sequence.len().div_ceil(4)) {
            for &op in round {
                let factor = cal.factor();
                untraced_ms += shared.exec(client, op, &mut checks) * factor;
            }
            for &op in round {
                let factor = cal.factor();
                let traced = tr.request(|tr| shared.exec_traced(client, op, tr, &mut lc));
                traced_ms += tr.last_total_ms() * factor;
                shared.check_traced(traced, &mut wire, &mut checks);
            }
        }
        let cache1 = engine.cache_stats().unwrap_or_default();
        let path = PathBuf::from(format!(".perfbench/trace-serve-seed{}.jsonl", args.seed));
        if let Err(e) = tr.write(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        let sm = state.metrics();
        let mut layers = PerLayer::new(&tr, traced_ms / untraced_ms - 1.0);
        layers.embedded(
            &lc,
            cache1.hits - cache0.hits,
            cache1.misses - cache0.misses,
        );
        layers.setup(&times, view_tuples);
        layers.put("server.prepare_p50_us", p50_us(&sm.prepare_ns), "us");
        layers.put(
            "server.exec_uncached_p50_us",
            p50_us(&sm.exec_uncached_ns),
            "us",
        );
        layers.put(
            "server.exec_cached_p50_us",
            p50_us(&sm.exec_cached_ns),
            "us",
        );
        layers.put(
            "server.admission_wait_p50_us",
            p50_us(&sm.admission_wait_ns),
            "us",
        );
        layers.put(
            "server.result_cache_hit_rate",
            state.result_cache().counters().hit_rate(),
            "ratio",
        );
        layers.put(
            "server.bytes_per_op",
            wire.bytes as f64 / wire.reads.max(1) as f64,
            "B",
        );
        layers.finish(&mut m);
    }
    println!(
        "serve: xmark({SCALE}) seed {}, {CLIENTS} clients, {rounds} rounds, {} requests in {wall_s:.2}s, \
         last setup (raw): generate {:.1}ms, summary {:.1}ms, views {:.1}ms, start+prepare {:.1}ms",
        args.seed,
        samples.count(),
        times.generate_ms,
        times.summary_ms,
        times.views_ms,
        times.prepare_ms
    );
    let rc = state.result_cache().counters();
    println!(
        "serve: result cache {} hits / {} misses ({:.1}% hits)",
        rc.hits,
        rc.misses,
        rc.hit_rate() * 100.0
    );
    drop(state);
    teardown(Setup {
        server,
        clients,
        fps,
        times,
    });
    RunResult { checks, metrics: m }
}

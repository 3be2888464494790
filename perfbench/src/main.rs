//! End-to-end benchmark of the ULoad stack: query text (or a prepared
//! fingerprint) in, last row out, through the public API only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload adhoc|scan|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run is followed
//! by a replay of its first rounds decomposed into timed calls of each
//! layer's public functions, and the metrics are the per-layer ones.
//! See `perfbench/NOTES.md`.

mod common;
mod embedded;
mod queries;
mod serve;

use std::collections::BTreeMap;

use common::{Checks, CountingAlloc, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct RunResult {
    pub checks: Checks,
    pub metrics: Metrics,
}

/// Metric name → (value, unit), in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Every per-layer metric, with its unit. Each workload reports all of
/// them; a layer a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xquery.parse_us", "us"),
    ("xquery.extract_us", "us"),
    ("xquery.patterns_per_query", "count"),
    ("containment.satisfiable_us", "us"),
    ("containment.cache_hit_rate", "ratio"),
    ("containment.cache_misses_per_op", "count"),
    ("rewriting.rewrite_us", "us"),
    ("rewriting.views_per_plan", "count"),
    ("rewriting.plan_us", "us"),
    ("rewriting.twig_arm_share", "ratio"),
    ("rewriting.serialize_us", "us"),
    ("algebra.open_us", "us"),
    ("algebra.exec_us", "us"),
    ("algebra.materialize_us", "us"),
    ("algebra.comparisons_per_op", "count"),
    ("algebra.elements_skipped_per_op", "count"),
    ("algebra.peak_resident_tuples", "count"),
    ("algebra.rows_per_op", "count"),
    ("xmltree.generate_ms", "ms"),
    ("xmltree.parse_ms", "ms"),
    ("xmltree.parse_us", "us"),
    ("summary.build_ms", "ms"),
    ("storage.view_build_ms", "ms"),
    ("storage.view_tuples", "count"),
    ("storage.reload_us", "us"),
    ("server.prepare_p50_us", "us"),
    ("server.exec_uncached_p50_us", "us"),
    ("server.exec_cached_p50_us", "us"),
    ("server.admission_wait_p50_us", "us"),
    ("server.result_cache_hit_rate", "ratio"),
    ("server.bytes_per_op", "B"),
    ("server.prepare_us", "us"),
    ("server.exec_us", "us"),
    ("server.wire_us", "us"),
    ("server.swap_us", "us"),
    ("xquery.alloc_bytes_per_op", "B"),
    ("containment.alloc_bytes_per_op", "B"),
    ("rewriting.alloc_bytes_per_op", "B"),
    ("algebra.alloc_bytes_per_op", "B"),
    ("xmltree.alloc_bytes_per_op", "B"),
    ("storage.alloc_bytes_per_op", "B"),
    ("server.alloc_bytes_per_op", "B"),
    ("xquery.allocs_per_op", "count"),
    ("containment.allocs_per_op", "count"),
    ("rewriting.allocs_per_op", "count"),
    ("algebra.allocs_per_op", "count"),
    ("xmltree.allocs_per_op", "count"),
    ("storage.allocs_per_op", "count"),
    ("server.allocs_per_op", "count"),
    ("traced_total_us", "us"),
    ("unattributed_us", "us"),
    ("trace_overhead", "ratio"),
];

/// Per-layer metrics assembled from one traced replay.
pub struct PerLayer<'a> {
    tr: &'a Tracer,
    /// Traced over untraced time of the same requests, minus one, both
    /// normalized to the machine's speed at the time.
    overhead: f64,
    m: Metrics,
}

impl<'a> PerLayer<'a> {
    pub fn new(tr: &'a Tracer, overhead: f64) -> PerLayer<'a> {
        PerLayer {
            tr,
            overhead,
            m: Metrics::default(),
        }
    }

    fn per_op(&self, v: u64) -> f64 {
        v as f64 / self.tr.requests().max(1) as f64
    }

    fn ratio(a: u64, b: u64) -> f64 {
        if b == 0 {
            0.0
        } else {
            a as f64 / b as f64
        }
    }

    /// Counters of the embedded decomposition.
    pub fn embedded(&mut self, lc: &embedded::LayerCounts, cache_hits: u64, cache_misses: u64) {
        let misses = self.per_op(cache_misses);
        let m = &mut self.m;
        m.put(
            "xquery.patterns_per_query",
            Self::ratio(lc.patterns, lc.queries),
            "count",
        );
        m.put(
            "containment.cache_hit_rate",
            Self::ratio(cache_hits, cache_hits + cache_misses),
            "ratio",
        );
        m.put("containment.cache_misses_per_op", misses, "count");
        m.put(
            "rewriting.views_per_plan",
            Self::ratio(lc.views_used, lc.rewritings),
            "count",
        );
        m.put(
            "rewriting.twig_arm_share",
            Self::ratio(lc.twig_plans, lc.queries),
            "ratio",
        );
        m.put(
            "algebra.comparisons_per_op",
            Self::ratio(lc.comparisons, lc.cursor_runs),
            "count",
        );
        m.put(
            "algebra.elements_skipped_per_op",
            Self::ratio(lc.elements_skipped, lc.cursor_runs),
            "count",
        );
        m.put(
            "algebra.peak_resident_tuples",
            lc.peak_resident as f64,
            "count",
        );
        m.put(
            "algebra.rows_per_op",
            Self::ratio(lc.rows, lc.cursor_runs),
            "count",
        );
        let parses = &lc.write_parse_ns;
        let mean_parse = Self::ratio(parses.iter().sum(), parses.len() as u64);
        m.put("xmltree.parse_ms", mean_parse / 1e6, "ms");
    }

    /// Setup-phase layers, from the last setup of the run.
    pub fn setup(&mut self, t: &embedded::SetupTimes, view_tuples: usize) {
        let m = &mut self.m;
        m.put("xmltree.generate_ms", t.generate_ms, "ms");
        m.put("summary.build_ms", t.summary_ms, "ms");
        m.put("storage.view_build_ms", t.views_ms, "ms");
        m.put("storage.view_tuples", view_tuples as f64, "count");
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.m.put(name, value, unit);
    }

    /// Self times, allocations, the unattributed remainder and the
    /// overhead; fills every metric not set by the workload with 0.
    pub fn finish(mut self, out: &mut Metrics) {
        let layer_ns = self.tr.layer_ns();
        let mut attributed = 0u64;
        println!(
            "traced replay: {} requests, self time per request:",
            self.tr.requests()
        );
        for (layer, ns) in &layer_ns {
            attributed += ns;
            let us = self.per_op(*ns) / 1e3;
            println!("  {layer:<26} {us:>12.3} us");
            self.m.put(&format!("{layer}_us"), us, "us");
        }
        let total = self.tr.total_ns();
        let unattributed = total.saturating_sub(attributed);
        let total_us = self.per_op(total) / 1e3;
        let un_us = self.per_op(unattributed) / 1e3;
        println!("  {:<26} {un_us:>12.3} us", "unattributed");
        println!("  {:<26} {total_us:>12.3} us", "traced total");
        self.m.put("traced_total_us", total_us, "us");
        self.m.put("unattributed_us", un_us, "us");
        println!(
            "  trace overhead vs the same requests untraced: {:+.2}%",
            self.overhead * 100.0
        );
        self.m.put("trace_overhead", self.overhead, "ratio");
        for (krate, (bytes, calls)) in self.tr.crate_allocs() {
            let (b, c) = (self.per_op(bytes), self.per_op(calls));
            self.m.put(&format!("{krate}.alloc_bytes_per_op"), b, "B");
            self.m.put(&format!("{krate}.allocs_per_op"), c, "count");
        }
        for (name, unit) in PER_LAYER {
            let (v, _) = self.m.0.get(*name).copied().unwrap_or((0.0, unit));
            out.put(name, v, unit);
        }
    }
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload adhoc|scan|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "adhoc" => embedded::run(
            embedded::Config {
                scale: 15,
                adhoc: true,
            },
            &args,
        ),
        "scan" => embedded::run(
            embedded::Config {
                scale: 150,
                adhoc: false,
            },
            &args,
        ),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let RunResult { checks, metrics } = result;
    println!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    checks.print();
    println!("  {:<26} {:>12.4}", "error_rate", checks.error_rate());
    for (name, (v, unit)) in &metrics.0 {
        println!("  {name:<32} {v:>14.4} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.only_known_defects(),
        checks.attempted(),
        checks.failed(),
        metrics.json()
    );
}

//! Pieces every workload shares: the counting allocator, the seeded
//! request order, latency statistics, the machine-speed calibration, the
//! reference answers and the span recorder of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use uload::Document;

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// `System` plus two process-wide counters: bytes requested and calls.
/// A `realloc` counts its new size, as a fresh allocation would.
pub struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics (`Relaxed`: they publish no other data).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (that is, from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(bytes, calls)` allocated by the whole process so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_BYTES.load(Ordering::Relaxed),
        ALLOC_CALLS.load(Ordering::Relaxed),
    )
}

/// Peak resident set size of the process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Seeded order
// ---------------------------------------------------------------------

/// SplitMix64: a tiny, dependency-free, seedable generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Nearest-rank quantile of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Machine-speed calibration
// ---------------------------------------------------------------------

/// The calibration kernel's reference time (ms): normalized times read
/// as on a machine where the kernel takes exactly this long (about what
/// it takes on a quiet 2-vCPU x86-64 box).
pub const KERNEL_NOMINAL_MS: f64 = 1.0;

/// How often the measuring thread re-times the kernel.
const CALIBRATION_PERIOD: Duration = Duration::from_millis(200);

/// Fixed work that touches nothing of the program: format, sort, hash
/// and look up 4,000 short strings — allocation, comparisons and
/// pointer chasing, like the engine's own work.
fn kernel() {
    let mut v: Vec<String> = (0..4_000u64)
        .map(|i| format!("{:x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    v.sort_unstable();
    let mut index = std::collections::HashMap::with_capacity(v.len());
    for (i, s) in v.iter().enumerate() {
        index.insert(s.as_str(), i);
    }
    let sum: usize = v.iter().map(|s| index[s.as_str()]).sum();
    std::hint::black_box(sum);
}

/// Best of three timings of the kernel, in ms.
pub fn kernel_ms() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            kernel();
            ms(t.elapsed())
        })
        .fold(f64::MAX, f64::min)
}

/// Speed factor of the machine right now: `KERNEL_NOMINAL_MS / kernel`.
/// A time multiplied by it reads as on a machine where the kernel takes
/// `KERNEL_NOMINAL_MS`. On a shared 2-vCPU VM, neighbours slow a fixed
/// loop by up to 70% for minutes at a time; the kernel slows with them,
/// and the program's code, which it shares nothing with, cannot move it.
pub fn speed_factor() -> f64 {
    KERNEL_NOMINAL_MS / kernel_ms()
}

/// Kernel timings the running speed factor is the median of (about a
/// second's worth).
const CALIBRATION_WINDOW: usize = 5;

/// The measuring thread's current speed factor: the kernel is re-timed
/// every `CALIBRATION_PERIOD`, and the factor uses the median of the
/// last `CALIBRATION_WINDOW` timings.
pub struct Calibrator {
    last: Instant,
    recent: std::collections::VecDeque<f64>,
    factor: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            last: Instant::now(),
            recent: std::collections::VecDeque::new(),
            factor: 1.0,
        };
        c.retime();
        c
    }

    fn retime(&mut self) {
        if self.recent.len() == CALIBRATION_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(kernel_ms());
        self.factor = KERNEL_NOMINAL_MS / median(self.recent.make_contiguous());
        self.last = Instant::now();
    }

    pub fn factor(&mut self) -> f64 {
        if self.last.elapsed() >= CALIBRATION_PERIOD {
            self.retime();
        }
        self.factor
    }
}

/// One timed request: its wall time and the speed factor at the time.
#[derive(Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub factor: f64,
}

impl Sample {
    /// The time as where the kernel takes `KERNEL_NOMINAL_MS`.
    pub fn normalized(self) -> f64 {
        self.ms * self.factor
    }
}

// ---------------------------------------------------------------------
// Reference answers
// ---------------------------------------------------------------------

/// One step of a reference path: axis, label, and labels of children
/// that must exist (`[location]`).
struct RefStep {
    descendant: bool,
    label: String,
    has_children: Vec<String>,
}

/// Parse the step list of a path query (`//a//b[c]/d`); predicates are
/// child-existence tests only.
fn ref_steps(path: &str) -> Vec<RefStep> {
    let mut steps = Vec::new();
    let mut rest = path;
    while !rest.is_empty() {
        let descendant = rest.starts_with("//");
        rest = rest.trim_start_matches('/');
        let end = rest.find('/').unwrap_or(rest.len());
        let (step, tail) = rest.split_at(end);
        let mut parts = step.split('[');
        let label = parts.next().unwrap_or_default().to_string();
        let has_children = parts.map(|p| p.trim_end_matches(']').to_string()).collect();
        steps.push(RefStep {
            descendant,
            label,
            has_children,
        });
        rest = tail;
    }
    steps
}

fn step_matches(doc: &Document, n: xmltree::NodeId, s: &RefStep) -> bool {
    doc.label(n) == s.label
        && s.has_children
            .iter()
            .all(|c| doc.children(n).iter().any(|&k| doc.label(k) == c.as_str()))
}

/// Does `n` end a match of `steps[..=k]`?
fn path_matches(doc: &Document, n: xmltree::NodeId, steps: &[RefStep], k: usize) -> bool {
    if !step_matches(doc, n, &steps[k]) {
        return false;
    }
    if k == 0 {
        // the first step hangs off the document root: `//a` is any `a`,
        // `/a` only the root element
        return steps[0].descendant || doc.parent(n).is_none();
    }
    let mut up = doc.parent(n);
    while let Some(p) = up {
        if path_matches(doc, p, steps, k - 1) {
            return true;
        }
        if !steps[k].descendant {
            return false;
        }
        up = doc.parent(p);
    }
    false
}

/// The reference answer of a path query: the distinct nodes its steps
/// reach, found by walking the document, serialized in document order.
pub fn walk_path(doc: &Document, path: &str) -> Vec<String> {
    let steps = ref_steps(path);
    let last = steps.len() - 1;
    doc.elements()
        .filter(|&n| path_matches(doc, n, &steps, last))
        .map(|n| doc.content(n))
        .collect()
}

/// How a response compares with the reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    /// Known defect: the view plan dedups rows by value — the response
    /// holds exactly the distinct values of the reference, once each.
    ValueDedup,
    /// Known defect: the direct evaluator repeats a node once per
    /// matching ancestor — same values as the reference, more rows.
    AncestorDuplicates,
    /// Any other disagreement, or an error.
    Unexpected,
}

impl Verdict {
    /// `Ok` when a check holds, else `Unexpected`.
    pub fn ok_if(holds: bool) -> Verdict {
        if holds {
            Verdict::Ok
        } else {
            Verdict::Unexpected
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::ValueDedup => "known defect: view plan dedups rows by value",
            Verdict::AncestorDuplicates => {
                "known defect: direct evaluation repeats nodes under nested ancestors"
            }
            Verdict::Unexpected => "UNEXPECTED mismatch",
        }
    }
}

pub fn verdict(got: &[String], want: &[String]) -> Verdict {
    if got == want {
        return Verdict::Ok;
    }
    let distinct = |v: &[String]| -> Vec<String> {
        let mut d = v.to_vec();
        d.sort();
        d.dedup();
        d
    };
    let (g, w) = (distinct(got), distinct(want));
    if g == w && got.len() == g.len() && got.len() < want.len() {
        Verdict::ValueDedup
    } else if g == w && got.len() > want.len() {
        Verdict::AncestorDuplicates
    } else {
        Verdict::Unexpected
    }
}

/// The answer check of one run. Every response is checked and tallied
/// by `(query, answering path)`; that pair is one checked request. The
/// run's `attempted` counts the distinct requests it checked and
/// `failed` those with at least one wrong response, so both depend on
/// what the program answers and not on how many responses fit in the
/// run's seconds. Per-response totals are in the report.
#[derive(Default)]
pub struct Checks {
    /// `(shape, answering path) → (responses, failed responses)`.
    requests: BTreeMap<(&'static str, &'static str), (u64, u64)>,
    /// `(shape, answering path, verdict) → count`.
    failures: BTreeMap<(&'static str, &'static str, Verdict), u64>,
}

impl Checks {
    pub fn record(&mut self, shape: &'static str, path: &'static str, v: Verdict) {
        let tally = self.requests.entry((shape, path)).or_default();
        tally.0 += 1;
        if v != Verdict::Ok {
            tally.1 += 1;
            *self.failures.entry((shape, path, v)).or_default() += 1;
        }
    }

    /// Check a response against the reference and record it.
    pub fn check(
        &mut self,
        shape: &'static str,
        path: &'static str,
        got: &uload::Result<Vec<String>>,
        want: &[String],
    ) {
        let v = match got {
            Ok(rows) => verdict(rows, want),
            Err(_) => Verdict::Unexpected,
        };
        self.record(shape, path, v);
    }

    pub fn merge(&mut self, other: Checks) {
        for (k, (n, f)) in other.requests {
            let tally = self.requests.entry(k).or_default();
            tally.0 += n;
            tally.1 += f;
        }
        for (k, n) in other.failures {
            *self.failures.entry(k).or_default() += n;
        }
    }

    /// Distinct requests checked.
    pub fn attempted(&self) -> u64 {
        self.requests.len() as u64
    }

    /// Distinct requests with at least one wrong response.
    pub fn failed(&self) -> u64 {
        self.requests.values().filter(|t| t.1 > 0).count() as u64
    }

    /// `true` when every failure is one of the two known defects.
    pub fn only_known_defects(&self) -> bool {
        self.failures
            .keys()
            .all(|(_, _, v)| *v != Verdict::Unexpected)
    }

    /// Failed responses over checked responses.
    pub fn error_rate(&self) -> f64 {
        let (n, f) = self
            .requests
            .values()
            .fold((0, 0), |(n, f), t| (n + t.0, f + t.1));
        f as f64 / n.max(1) as f64
    }

    pub fn print(&self) {
        let responses: u64 = self.requests.values().map(|t| t.0).sum();
        println!(
            "answer check: {} of {} requests failed; {} responses, error_rate {:.4}",
            self.failed(),
            self.attempted(),
            responses,
            self.error_rate()
        );
        for ((shape, path, v), n) in &self.failures {
            println!("  FAIL {shape:<22} {path:<12} x{n:<6} {}", v.name());
        }
    }
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// One timed call of the traced run.
pub struct Span {
    pub request: u64,
    pub layer: &'static str,
    pub ns: u64,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

/// Spans of the traced run, kept in memory and written at the end.
#[derive(Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
    /// Traced wall time per request, in request order.
    pub totals_ns: Vec<u64>,
    request: u64,
}

impl Tracer {
    /// Time one public call as a span of the current request.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (b0, c0) = alloc_counts();
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let (b1, c1) = alloc_counts();
        self.spans.push(Span {
            request: self.request,
            layer,
            ns,
            alloc_bytes: b1 - b0,
            allocs: c1 - c0,
        });
        out
    }

    /// Attribute an externally measured duration and `(bytes, calls)` of
    /// allocation to a layer (server-side times reported over the wire).
    pub fn attribute(&mut self, layer: &'static str, ns: u64, (alloc_bytes, allocs): (u64, u64)) {
        self.spans.push(Span {
            request: self.request,
            layer,
            ns,
            alloc_bytes,
            allocs,
        });
    }

    /// Run one whole request, timing its total.
    pub fn request<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let t = Instant::now();
        let out = f(self);
        self.totals_ns.push(t.elapsed().as_nanos() as u64);
        self.request += 1;
        out
    }

    /// Traced wall time of the last request, in ms.
    pub fn last_total_ms(&self) -> f64 {
        self.totals_ns.last().map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    pub fn requests(&self) -> u64 {
        self.request
    }

    /// Self time per layer, summed over the run (ns).
    pub fn layer_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for s in &self.spans {
            *m.entry(s.layer).or_default() += s.ns;
        }
        m
    }

    /// `(bytes, calls)` allocated per crate (the layer-name prefix).
    pub fn crate_allocs(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut m: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let krate = s.layer.split('.').next().unwrap_or(s.layer);
            let e = m.entry(krate).or_default();
            e.0 += s.alloc_bytes;
            e.1 += s.allocs;
        }
        m
    }

    pub fn total_ns(&self) -> u64 {
        self.totals_ns.iter().sum()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"request\":{},\"layer\":\"{}\",\"ns\":{},\"alloc_bytes\":{},\"allocs\":{}}}",
                s.request, s.layer, s.ns, s.alloc_bytes, s.allocs
            )?;
        }
        for (i, t) in self.totals_ns.iter().enumerate() {
            writeln!(w, "{{\"request\":{i},\"layer\":\"total\",\"ns\":{t}}}")?;
        }
        w.flush()
    }
}

//! E14 kernel-flag grid: every workload of
//! `experiments::vector_workloads` timed under three flag settings of
//! the one holistic twig kernel — neither seeking nor bulk runs
//! (linear), seeking alone, and both (the engine default). All three
//! produce identical solution sets (asserted by the `vector_parity`
//! driver and the `columnar_matches_scalar` proptest); only wall-clock
//! may differ. The packed columns are built outside the timed closures —
//! the store carries them, so steady-state serving never rebuilds them.

use algebra::{twig_join_columnar, EvalConfig, IdColumns};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use storage::IdStreamIndex;
use uload_bench::experiments::{kernel_flags, pack_streams, vector_workloads};

fn kernel_flag_grid(c: &mut Criterion) {
    let doc = xmltree::generate::xmark(15, 42);
    let idx = IdStreamIndex::build(&doc);
    let mut g = c.benchmark_group("e14_vector_parity");
    g.sample_size(10);
    for w in vector_workloads() {
        let pattern = w.pattern();
        let cols = pack_streams(&w.streams(&idx));
        let refs: Vec<&IdColumns> = cols.iter().collect();
        for (name, config) in [
            ("linear", kernel_flags(false, false)),
            ("skip", kernel_flags(true, false)),
            ("columnar", EvalConfig::default()),
        ] {
            g.bench_function(BenchmarkId::new(name, &w.name), |b| {
                b.iter(|| twig_join_columnar(&pattern, &refs, config).len())
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = kernel_flag_grid
}
criterion_main!(benches);

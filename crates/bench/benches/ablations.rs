//! Ablation benches for the design choices called out in DESIGN.md:
//! scratchpad staging on/off, eager vs. lazy copy-out, and compile-cache
//! behavior. Each measures host time of the full simulated pipeline under
//! the two alternatives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use petal_apps::convolution::{ConvMapping, SeparableConvolution};
use petal_apps::Benchmark;
use petal_bench::{bench_sample_size, bench_size};
use petal_gpu::compile::{CompileCache, KernelText};
use petal_gpu::profile::MachineProfile;
use std::hint::black_box;

fn bench_local_memory_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_local_memory");
    let machine = MachineProfile::desktop();
    let bench = SeparableConvolution::new(bench_size(128, 48), 9);
    for (label, mapping) in [
        ("local_mem", ConvMapping::SeparableLocalMem),
        ("global_only", ConvMapping::SeparableNoLocal),
    ] {
        let cfg = bench.mapping_config(&machine, mapping);
        g.bench_function(BenchmarkId::new("separable_k9", label), |bch| {
            bch.iter(|| black_box(bench.run_with_config(&machine, &cfg).unwrap()));
        });
    }
    g.finish();
}

fn bench_compile_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_compile_cache");
    let gpu = MachineProfile::desktop().gpu.unwrap();
    g.bench_function("ir_cache_hit_path", |bch| {
        bch.iter(|| {
            let text = KernelText::new("k", "source-text");
            let mut cache = CompileCache::new();
            let (_, cold) = cache.compile(&gpu, &text);
            cache.reset_process();
            let (_, warm) = cache.compile(&gpu, &text);
            black_box((cold, warm))
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(bench_sample_size());
    targets = bench_local_memory_ablation, bench_compile_cache
}
criterion_main!(benches);

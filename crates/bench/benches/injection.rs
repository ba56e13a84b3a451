//! Criterion bench: end-to-end injection throughput (simulate + decode) for
//! the flagship configurations — the shots/second figure that bounds every
//! experiment's wall-clock time.
//!
//! Each configuration is measured under both samplers; the
//! `frame`/`tableau` pair at the paper's 1000-shot XXZZ(3,3) workload is
//! the headline speedup, tracked as the `end_to_end_frame_shots_per_sec` /
//! `end_to_end_tableau_shots_per_sec` pair in `BENCH_decoder.json` (see
//! `cargo run --release -p radqec-bench --bin decoder_throughput`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::injection::{InjectionEngine, SamplerKind};
use radqec_noise::{FaultSpec, NoiseSpec, RadiationModel};
use std::hint::black_box;

fn bench_injection(c: &mut Criterion) {
    let mut group = c.benchmark_group("injection");
    group.sample_size(10);
    const SHOTS: usize = 1000;
    group.throughput(Throughput::Elements(SHOTS as u64));
    for (name, spec) in [
        ("rep5", CodeSpec::from(RepetitionCode::bit_flip(5))),
        ("rep15", CodeSpec::from(RepetitionCode::bit_flip(15))),
        ("xxzz33", CodeSpec::from(XxzzCode::new(3, 3))),
    ] {
        let fault = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root: 2 };
        let noise = NoiseSpec::paper_default();
        for (sampler_name, sampler) in
            [("frame", SamplerKind::FrameBatch), ("tableau", SamplerKind::Tableau)]
        {
            let engine =
                InjectionEngine::builder(spec).shots(SHOTS).seed(1).sampler(sampler).build();
            group.bench_with_input(BenchmarkId::new(sampler_name, name), &(), |b, _| {
                b.iter(|| black_box(engine.logical_error_at_sample(&fault, &noise, 0)));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_injection);
criterion_main!(benches);

//! Criterion bench: end-to-end MWPM decode latency per shot
//! on realistic syndromes (noisy shots of the paper's codes), plus the
//! tiered bulk decoder's batch pipeline, cold (fresh LUT/cache) and warm
//! (engine-lifetime cache).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use radqec_circuit::{ShotBatch, ShotRecord};
use radqec_core::codes::{CodeSpec, RepetitionCode, XxzzCode};
use radqec_core::decoder::{BulkDecoder, MwpmDecoder};
use radqec_noise::{run_noisy_shot, ActiveFault, NoiseSpec};
use radqec_stabilizer::StabilizerBackend;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn noisy_shots(spec: CodeSpec, count: usize) -> (Vec<ShotRecord>, MwpmDecoder) {
    let code = spec.build();
    let mwpm = MwpmDecoder::new(&code);
    let mut rng = StdRng::seed_from_u64(3);
    let noise = NoiseSpec::depolarizing(0.03);
    let fault = ActiveFault::none(code.total_qubits() as usize);
    let shots = (0..count)
        .map(|_| {
            let mut backend = StabilizerBackend::new(code.total_qubits());
            run_noisy_shot(&code.circuit, &mut backend, &noise, &fault, &mut rng)
        })
        .collect();
    (shots, mwpm)
}

fn bench_decoders(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode");
    for (name, spec) in [
        ("rep15", CodeSpec::from(RepetitionCode::bit_flip(15))),
        ("xxzz33", CodeSpec::from(XxzzCode::new(3, 3))),
        ("xxzz55", CodeSpec::from(XxzzCode::new(5, 5))),
    ] {
        let (shots, mwpm) = noisy_shots(spec, 64);
        group.bench_with_input(BenchmarkId::new("mwpm", name), &(), |b, _| {
            b.iter(|| {
                for s in &shots {
                    black_box(mwpm.decode(s));
                }
            });
        });
    }
    group.finish();
}

/// Pack sampled noisy shots into a [`ShotBatch`].
fn to_batch(code_clbits: u32, shots: &[ShotRecord]) -> ShotBatch {
    let mut batch = ShotBatch::new(code_clbits, shots.len());
    for (s, rec) in shots.iter().enumerate() {
        for c in 0..code_clbits {
            if rec.get(c) {
                batch.flip(c, s);
            }
        }
    }
    batch
}

fn bench_batch_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode_batch");
    for (name, spec) in [
        ("rep5", CodeSpec::from(RepetitionCode::bit_flip(5))),
        ("xxzz33", CodeSpec::from(XxzzCode::new(3, 3))),
        ("xxzz55", CodeSpec::from(XxzzCode::new(5, 5))),
    ] {
        let code = spec.build();
        let (shots, _) = noisy_shots(spec, 256);
        let batch = to_batch(code.circuit.num_clbits(), &shots);
        group.bench_with_input(BenchmarkId::new("tiered_cold", name), &(), |b, _| {
            b.iter(|| {
                let dec = BulkDecoder::new(&code);
                black_box(dec.decode_batch(&batch))
            });
        });
        let warm = BulkDecoder::new(&code);
        warm.decode_batch(&batch);
        group.bench_with_input(BenchmarkId::new("tiered_warm", name), &(), |b, _| {
            b.iter(|| black_box(warm.decode_batch(&batch)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decoders, bench_batch_pipeline);
criterion_main!(benches);

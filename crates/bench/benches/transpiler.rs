//! Criterion bench: transpilation cost (layout + routing + decomposition)
//! for the paper's code/architecture pairs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use radqec_core::codes::{RepetitionCode, XxzzCode};
use radqec_topology::{devices, generators};
use radqec_transpiler::{transpile, TranspileOptions};
use std::hint::black_box;

fn bench_transpile(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpile");
    group.sample_size(20);
    let rep11 = RepetitionCode::bit_flip(11).build();
    let xxzz33 = XxzzCode::new(3, 3).build();
    let cases = [
        ("rep11_linear", &rep11.circuit, generators::linear(22)),
        ("rep11_mesh", &rep11.circuit, generators::mesh(5, 6)),
        ("rep11_cairo", &rep11.circuit, devices::cairo()),
        ("xxzz33_mesh", &xxzz33.circuit, generators::mesh(5, 4)),
        ("xxzz33_brooklyn", &xxzz33.circuit, devices::brooklyn()),
    ];
    for (name, circuit, topo) in cases {
        group.bench_with_input(BenchmarkId::new("auto", name), &(), |b, _| {
            b.iter(|| black_box(transpile(circuit, &topo, &TranspileOptions::auto())));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transpile);
criterion_main!(benches);

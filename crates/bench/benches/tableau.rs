//! Criterion bench: CHP tableau gate, measurement and reset throughput.
//!
//! Sizes are the tableau widths the engines run at, plus the layout's word
//! boundary. Tableau shots run on a circuit's used qubits only, so
//! xxzz-(3,3) runs at 18 qubits on every device and rep-(5,1) at 9. The
//! sizes are 10 (a 5×2 lattice), 18, 30 (a 5×6 mesh), 33 (the first size
//! whose 2n rows need a second 64-bit column word) and 65 (all of
//! Brooklyn).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use radqec_stabilizer::Tableau;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const SIZES: [usize; 5] = [10, 18, 30, 33, 65];

/// Prepare the n-qubit GHZ state on a cleared tableau.
fn ghz(t: &mut Tableau) {
    t.clear();
    t.h(0);
    for q in 1..t.num_qubits() {
        t.cx(q - 1, q);
    }
}

fn bench_gates(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_gates");
    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("h_cx_layer", n), &n, |b, &n| {
            let mut t = Tableau::new(n);
            b.iter(|| {
                for q in 0..n {
                    t.h(q);
                }
                for q in 0..n - 1 {
                    t.cx(q, q + 1);
                }
                black_box(&t);
            });
        });
    }
    group.finish();
}

fn bench_measure(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_measure");
    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("ghz_measure_all", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut t = Tableau::new(n);
            b.iter(|| {
                ghz(&mut t);
                let mut acc = false;
                for q in 0..n {
                    acc ^= t.measure(q, &mut rng);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// The radiation-reset pattern: a strike resets qubit after qubit of an
/// entangled state. The first reset of a GHZ state is a random
/// measurement, every later one a deterministic measurement plus a
/// conditional X.
fn bench_reset(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau_reset");
    for n in SIZES {
        group.bench_with_input(BenchmarkId::new("ghz_reset_all", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(1);
            let mut t = Tableau::new(n);
            b.iter(|| {
                ghz(&mut t);
                for q in 0..n {
                    t.reset(q, &mut rng);
                }
                black_box(&t);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gates, bench_measure, bench_reset);
criterion_main!(benches);

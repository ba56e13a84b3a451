//! Bit-identity pins for the CHP tableau.
//!
//! Seeded random circuits over the whole Clifford-plus-measurement gate
//! set run at qubit counts that straddle the 64-bit word boundaries of
//! both a row-major layout (`⌈n/64⌉` words per row) and a qubit-major one
//! (`⌈2n/64⌉` row words per column). Each case folds into an FNV-1a
//! digest: every measurement outcome, every `peek_z` / `peek_x` probe,
//! every final `stabilizer(i)` string and one draw from the measurement
//! RNG afterwards (which pins how many draws the run consumed). The
//! digests were captured from the row-major tableau; any storage layout
//! must reproduce them exactly.
//!
//! To re-capture (only when a state-changing edit is *intended*):
//! `cargo test --release --test tableau_bit_identity -- --ignored --nocapture`.
//!
//! The compaction test pins the engines' tableau shots, which replay the
//! transpiled circuit on its used qubits only, to full-device replays of
//! the same circuit: record for record, under a radiation strike.

use radqec_circuit::Backend;
use radqec_core::codes::XxzzCode;
use radqec_core::injection::{mix_seed, InjectionEngine, SamplerKind, TableauSampler};
use radqec_noise::{run_noisy_shot, FaultSpec, NoiseSpec, RadiationModel};
use radqec_stabilizer::{StabilizerBackend, Tableau};
use radqec_topology::devices;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Qubit counts on both sides of every word boundary of the two layouts.
const SIZES: [usize; 8] = [1, 2, 31, 32, 33, 63, 64, 65];

/// Captured digests, one per entry of [`SIZES`].
const GOLDEN: [u64; 8] = [
    0x7ff5_b63c_198f_7620,
    0xc583_7b3f_1efb_3a76,
    0x3ca4_a7e2_5345_fe67,
    0xbfdf_f6e8_aa65_980d,
    0x6e2e_dd12_6a86_c644,
    0xe929_5bbf_38ba_fda2,
    0xdd86_3556_bc72_fd02,
    0x2904_e75c_ab9a_8abd,
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }
}

/// Two distinct qubits of an `n`-qubit register (`n ≥ 2`).
fn pair(gen: &mut StdRng, n: usize) -> (usize, usize) {
    let a = gen.gen_range(0..n);
    let b = (a + gen.gen_range(1..n)) % n;
    (a, b)
}

/// Run three seeded random circuits of `n` qubits and digest them.
fn case_digest(n: usize) -> u64 {
    let mut h = Fnv::new();
    for circuit in 0..3u64 {
        let mut gen = StdRng::seed_from_u64(0x7AB1_EA00 ^ (n as u64) << 8 ^ circuit);
        let mut meas = StdRng::seed_from_u64(0x3EA5_0000 ^ (n as u64) << 8 ^ circuit);
        let mut t = Tableau::new(n);
        let kinds = if n >= 2 { 13 } else { 10 };
        for _ in 0..30 * n + 60 {
            let a = gen.gen_range(0..n);
            match gen.gen_range(0..kinds) {
                0 => t.h(a),
                1 => t.s(a),
                2 => t.sdg(a),
                3 => t.x(a),
                4 => t.y(a),
                5 => t.z(a),
                6 => h.mix(u64::from(t.measure(a, &mut meas))),
                7 => t.reset(a, &mut meas),
                8 => h.mix(t.peek_z(a).map_or(2, u64::from)),
                9 => h.mix(t.peek_x(a).map_or(2, u64::from)),
                10 => {
                    let (c, d) = pair(&mut gen, n);
                    t.cx(c, d);
                }
                11 => {
                    let (c, d) = pair(&mut gen, n);
                    t.cz(c, d);
                }
                _ => {
                    let (c, d) = pair(&mut gen, n);
                    t.swap(c, d);
                }
            }
        }
        for i in 0..n {
            for b in t.stabilizer(i).to_string().bytes() {
                h.mix(u64::from(b));
            }
        }
        t.check_invariants().unwrap();
        h.mix(meas.next_u64());
    }
    h.0
}

#[test]
fn random_circuits_match_the_captured_digests() {
    for (&n, &golden) in SIZES.iter().zip(&GOLDEN) {
        assert_eq!(case_digest(n), golden, "tableau digest moved at n = {n}");
    }
}

#[test]
#[ignore = "prints the digests to paste into GOLDEN"]
fn capture() {
    let digests: Vec<String> =
        SIZES.iter().map(|&n| format!("0x{:016x}", case_digest(n))).collect();
    println!("const GOLDEN: [u64; 8] = [{}];", digests.join(", "));
}

#[test]
fn compacted_tableau_shots_equal_full_device_shots() {
    const SHOTS: usize = 200;
    for topo in [devices::brooklyn(), devices::cambridge()] {
        let engine = InjectionEngine::builder(XxzzCode::new(3, 3).into())
            .topology(topo.clone())
            .sampler(SamplerKind::Tableau)
            .shots(SHOTS)
            .seed(11)
            .build();
        let circuit = &engine.transpiled().circuit;
        let sampler = TableauSampler::new(circuit);
        assert_eq!(sampler.circuit().num_qubits(), 18, "{}", topo.name());
        assert!(topo.num_qubits() > 18);
        // Strike the middle used qubit, at impact, over intrinsic noise.
        let root = sampler.used_qubits()[9];
        let fault = FaultSpec::RadiationAtImpact { model: RadiationModel::default(), root };
        let noise = NoiseSpec::paper_default();
        let active = fault.activate(&topo, 0);
        let seed = |shot: usize| mix_seed(11, 0, shot as u64);

        let compacted = sampler.map_shots(SHOTS, &noise, &[(0, &active)], seed, |r| r);
        let mut backend = StabilizerBackend::new(topo.num_qubits());
        let full: Vec<_> = (0..SHOTS)
            .map(|shot| {
                backend.reset_all();
                run_noisy_shot(
                    circuit,
                    &mut backend,
                    &noise,
                    &active,
                    &mut StdRng::seed_from_u64(seed(shot)),
                )
            })
            .collect();
        assert_eq!(compacted, full, "{}: compacted records differ", topo.name());
        assert!(full.windows(2).any(|w| w[0] != w[1]), "{}: degenerate records", topo.name());

        // The engine's tableau path decodes exactly these records.
        let errors = full.iter().filter(|r| !engine.decoder().decode(r)).count();
        assert!(errors > 0, "{}: the strike caused no logical error", topo.name());
        let ler = engine.logical_error_at_sample(&fault, &noise, 0);
        assert_eq!(ler, errors as f64 / SHOTS as f64, "{}", topo.name());
    }
}

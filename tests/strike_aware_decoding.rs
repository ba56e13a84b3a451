//! Oracle-grade equivalence suite for strike-aware decoding (ISSUE 5).
//!
//! The strike-aware path factors exactly like the unaware one:
//! `decode(shot, mask) = raw_readout XOR flip_mask(defect_pattern)`, where
//! `flip_mask` is the pure matching function of the *mask-reweighted*
//! detector graph. The reference implementation is [`MwpmDecoder::masked`]
//! (per-shot matching on the reweighted graph); [`BulkDecoder`]'s masked
//! contexts must be **bit-identical** to it — proven exhaustively over all `2^{2P}` defect
//! patterns for the LUT-eligible codes the issue names, property-tested
//! for xxzz-(5,5), per-shot *and* batch paths.
//!
//! The suite also pins the mask algebra itself: a zero-radius (or fully
//! decayed) mask is a provable no-op — masked decoding takes the unaware
//! path and its output is bit-identical to [`BulkDecoder::decode_batch`] — and
//! masks clipped to the device graph never index out of bounds, whatever
//! root/radius/intensity configuration property testing throws at them.

use proptest::prelude::*;
use radqec::prelude::*;
use radqec_circuit::{ShotBatch, ShotRecord};
use radqec_core::codes::CodeCircuit;
use radqec_core::decoder::{BulkDecoder, DecoderMask};
use radqec_detect::{MaskError, StrikeMask};
use radqec_topology::generators::{linear, mesh};
use radqec_transpiler::Layout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A spread of masks exercising every reweighting shape: hot data centre,
/// boundary strike, struck ancillas (time edges), a partially decayed
/// event and a barely-above-background one.
fn masks_under_test(code: &CodeCircuit) -> Vec<(&'static str, DecoderMask)> {
    let nd = code.data_qubits.len();
    let np = code.primary_count;
    let hot_centre = {
        let mut data = vec![0.0; nd];
        data[nd / 2] = 1.0;
        if nd > 1 {
            data[nd / 2 - 1] = 0.25;
        }
        if nd / 2 + 1 < nd {
            data[nd / 2 + 1] = 0.25;
        }
        DecoderMask::from_probs(data, vec![0.0; np])
    };
    let boundary = {
        let mut data = vec![0.0; nd];
        data[0] = 1.0;
        if nd > 1 {
            data[1] = 0.25;
        }
        let mut stabs = vec![0.0; np];
        stabs[0] = 0.25;
        DecoderMask::from_probs(data, stabs)
    };
    let ancillas = DecoderMask::from_probs(vec![0.05; nd], vec![0.6; np]);
    vec![
        ("hot_centre", hot_centre.clone()),
        ("boundary", boundary),
        ("ancillas", ancillas),
        ("decayed", hot_centre.scaled(0.11)),
        ("faint", hot_centre.scaled(0.02)),
    ]
}

/// Two records realising defect pattern `key` (bit `2i` = round-1 syndrome
/// of primary stabilizer `i`, bit `2i+1` = round-1/round-2 difference):
/// one with raw readout 0 and clean secondary syndromes, one with raw
/// readout 1 and every secondary bit set — decoding must depend on neither.
fn records_for_pattern(code: &CodeCircuit, key: u64) -> (ShotRecord, ShotRecord) {
    let nc = code.circuit.num_clbits();
    let mut plain = ShotRecord::new(nc);
    let mut noisy = ShotRecord::new(nc);
    for (i, stab) in code.primary_stabilizers().iter().enumerate() {
        let d0 = (key >> (2 * i)) & 1 == 1;
        let d1 = (key >> (2 * i + 1)) & 1 == 1;
        for r in [&mut plain, &mut noisy] {
            r.set(stab.cbit_round1, d0);
            r.set(stab.cbit_round2, d0 ^ d1);
        }
    }
    noisy.set(code.readout_cbit, true);
    for stab in &code.stabilizers[code.primary_count..] {
        noisy.set(stab.cbit_round1, true);
        noisy.set(stab.cbit_round2, true);
    }
    (plain, noisy)
}

/// Exhaustive proof for the LUT-eligible codes the issue names: every
/// possible defect pattern × every mask shape, per-shot and batch paths,
/// against the per-shot masked MWPM oracle.
#[test]
fn exhaustive_masked_syndrome_equivalence_on_lut_eligible_codes() {
    for code in [
        RepetitionCode::bit_flip(3).build(),
        RepetitionCode::bit_flip(5).build(),
        XxzzCode::new(3, 3).build(),
    ] {
        let bits = 2 * code.primary_count;
        assert!(bits <= 16, "{} not LUT-eligible", code.name);
        let dec = BulkDecoder::new(&code);
        for (mask_name, mask) in masks_under_test(&code) {
            let oracle = MwpmDecoder::masked(&code, &mask);
            let shots = 2usize << bits;
            let mut batch = ShotBatch::new(code.circuit.num_clbits(), shots);
            let mut expected = Vec::with_capacity(shots);
            for key in 0..(1u64 << bits) {
                let (plain, noisy) = records_for_pattern(&code, key);
                let want_plain = oracle.decode(&plain);
                let want_noisy = oracle.decode(&noisy);
                assert_eq!(
                    want_noisy, !want_plain,
                    "{} mask {mask_name} key {key:#b}: oracle must factor as raw ^ flip",
                    code.name
                );
                assert_eq!(
                    dec.decode_masked(&plain, &mask),
                    want_plain,
                    "{} mask {mask_name} key {key:#b} (plain)",
                    code.name
                );
                assert_eq!(
                    dec.decode_masked(&noisy, &mask),
                    want_noisy,
                    "{} mask {mask_name} key {key:#b} (noisy)",
                    code.name
                );
                for (offset, rec) in [(0usize, &plain), (1, &noisy)] {
                    let s = 2 * key as usize + offset;
                    for c in 0..code.circuit.num_clbits() {
                        if rec.get(c) {
                            batch.flip(c, s);
                        }
                    }
                }
                expected.push(want_plain);
                expected.push(want_noisy);
            }
            assert_eq!(
                dec.decode_batch_masked(&batch, &mask),
                expected,
                "{} mask {mask_name} batch",
                code.name
            );
        }
    }
}

/// A no-op mask (zero radius / decayed to background) is provably the
/// unaware decoder: identical output bits, no interned context, and the
/// projection of an actual zero-radius [`StrikeMask`] through a layout
/// lands on that same path.
#[test]
fn noop_masks_decode_bit_identically_to_unaware() {
    let code = XxzzCode::new(3, 3).build();
    let bulk = BulkDecoder::new(&code);
    let nc = code.circuit.num_clbits();
    let mut rng = StdRng::seed_from_u64(0x90);
    let mut batch = ShotBatch::new(nc, 300);
    for s in 0..300 {
        for c in 0..nc {
            if rng.gen_bool(0.3) {
                batch.flip(c, s);
            }
        }
    }
    let topo = mesh(5, 5);
    let layout = Layout::new((0..code.total_qubits()).collect(), topo.num_qubits());
    let zero_radius = StrikeMask::try_new(&topo, 12, 0, 1.0).unwrap();
    assert!(zero_radius.is_noop());
    let masks = [
        DecoderMask::project(&zero_radius, &code, &layout),
        DecoderMask::from_probs(vec![0.0; 9], vec![0.0; 4]),
        DecoderMask::from_probs(vec![1.0; 9], vec![1.0; 4]).scaled(0.0),
    ];
    let unaware = bulk.decode_batch(&batch);
    for (i, mask) in masks.iter().enumerate() {
        assert!(mask.is_noop(), "mask {i} must be a no-op");
        assert_eq!(bulk.decode_batch_masked(&batch, mask), unaware, "mask {i} batch");
        for s in 0..20 {
            assert_eq!(
                bulk.decode_masked(&batch.record(s), mask),
                bulk.decode(&batch.record(s)),
                "mask {i} shot {s}"
            );
        }
    }
    let stats = bulk.decode_stats();
    assert_eq!(stats.mask_contexts, 0, "no-op masks must never intern a context");
    assert_eq!(stats.mask_hits, 0);
}

/// The reweighting must actually change decoding somewhere — otherwise the
/// whole layer is dead code. A probability-1 strike on an interior
/// repetition-code segment flips the matcher's preferred side for the
/// right defect pair.
#[test]
fn masking_changes_at_least_one_decode() {
    let code = RepetitionCode::bit_flip(5).build();
    let bulk = BulkDecoder::new(&code);
    let mask = DecoderMask::from_probs(vec![1.0, 1.0, 0.9, 0.0, 0.0], vec![0.0; 4]);
    let oracle = MwpmDecoder::masked(&code, &mask);
    let plain = MwpmDecoder::new(&code);
    let bits = 2 * code.primary_count;
    let mut changed = 0usize;
    for key in 0..(1u64 << bits) {
        let (rec, _) = records_for_pattern(&code, key);
        let masked = oracle.decode(&rec);
        assert_eq!(bulk.decode_masked(&rec, &mask), masked, "key {key:#b}");
        if masked != plain.decode(&rec) {
            changed += 1;
        }
    }
    assert!(changed > 0, "the mask never changed a decision — reweighting is inert");
}

/// Masked sweeps stay on warm per-mask caches: repeating a batch decode
/// under the same mask runs no new matchings, and the mask-context map
/// interns one entry per distinct quantised weight key.
#[test]
fn masked_warm_path_reuses_the_mask_keyed_cache() {
    let code = RepetitionCode::bit_flip(5).build();
    let bulk = BulkDecoder::new(&code);
    let nc = code.circuit.num_clbits();
    let mut rng = StdRng::seed_from_u64(0x42);
    let mut batch = ShotBatch::new(nc, 256);
    for s in 0..256 {
        for c in 0..nc {
            if rng.gen_bool(0.2) {
                batch.flip(c, s);
            }
        }
    }
    let mask = DecoderMask::from_probs(vec![1.0, 0.25, 0.0, 0.0, 0.0], vec![0.25; 4]);
    let cold = bulk.decode_batch_masked(&batch, &mask);
    let after_cold = bulk.decode_stats();
    let warm = bulk.decode_batch_masked(&batch, &mask);
    let after_warm = bulk.decode_stats();
    assert_eq!(cold, warm, "warm masked decode must be bit-identical");
    assert_eq!(after_warm.matchings, after_cold.matchings, "warm repeat must not re-match");
    assert_eq!(after_warm.mask_contexts, 1);
    assert_eq!(after_warm.mask_hits, after_cold.mask_hits + 1);
    // The unaware path is untouched by masked traffic.
    let unaware = bulk.decode_batch(&batch);
    assert_eq!(unaware.len(), cold.len());
}

fn arb_mask(nd: usize, np: usize) -> impl Strategy<Value = DecoderMask> {
    (proptest::collection::vec(0.0f64..=1.0, nd), proptest::collection::vec(0.0f64..=1.0, np))
        .prop_map(|(d, s)| DecoderMask::from_probs(d, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// xxzz-(5,5) is too wide for the exhaustive walk (24 detector bits):
    /// random records × random masks against the masked per-shot oracle,
    /// batch and per-shot.
    #[test]
    fn xxzz55_masked_tiers_match_the_masked_oracle(
        seed in any::<u64>(),
        mask in arb_mask(25, 12),
    ) {
        let code = XxzzCode::new(5, 5).build();
        let oracle = MwpmDecoder::masked(&code, &mask);
        let dec = BulkDecoder::new(&code);
        let nc = code.circuit.num_clbits();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = ShotBatch::new(nc, 64);
        for s in 0..64 {
            for c in 0..nc {
                if rng.gen_bool(0.2) {
                    batch.flip(c, s);
                }
            }
        }
        let expected: Vec<bool> = (0..64).map(|s| oracle.decode(&batch.record(s))).collect();
        let got = dec.decode_batch_masked(&batch, &mask);
        prop_assert_eq!(&got, &expected, "batch");
        for (s, &want) in expected.iter().enumerate().take(8) {
            prop_assert_eq!(dec.decode_masked(&batch.record(s), &mask), want, "shot {}", s);
        }
    }

    /// StrikeMask validation properties: any in-range configuration builds
    /// a profile exactly `num_qubits` long (indexing can never escape the
    /// device graph), coverage respects the radius clip, zero radius is
    /// the no-op, and out-of-range configurations are typed errors — never
    /// panics.
    #[test]
    fn strike_masks_clip_to_the_device_graph(
        rows in 1u32..6,
        cols in 1u32..6,
        root in 0u32..64,
        radius in 0u32..8,
        intensity in 0.0f64..=1.0,
    ) {
        let topo = mesh(rows, cols);
        let n = topo.num_qubits();
        match StrikeMask::try_new(&topo, root, radius, intensity) {
            Ok(mask) => {
                prop_assert!(root < n);
                prop_assert_eq!(mask.probs().len(), n as usize);
                let dists = topo.distances_from(root);
                for q in 0..n {
                    let p = mask.prob(q);
                    prop_assert!((0.0..=1.0).contains(&p));
                    if dists[q as usize] >= radius {
                        prop_assert_eq!(p, 0.0, "qubit {} outside the clip radius", q);
                    } else {
                        prop_assert!(p <= intensity);
                    }
                }
                if radius == 0 || intensity == 0.0 {
                    prop_assert!(mask.is_noop());
                }
                // Decay keeps every invariant.
                let d = mask.decayed(0.5);
                prop_assert_eq!(d.probs().len(), n as usize);
            }
            Err(MaskError::RootOutsideTopology { root: r, num_qubits }) => {
                prop_assert_eq!(r, root);
                prop_assert_eq!(num_qubits, n);
                prop_assert!(root >= n);
            }
            Err(MaskError::IntensityOutOfRange { .. }) => {
                prop_assert!(false, "intensity was drawn in range");
            }
        }
    }

    /// Projection through a layout onto a *linear* host: per-qubit lookups
    /// stay in bounds for every root/radius, and no-op masks project to
    /// no-op decoder masks.
    #[test]
    fn projection_never_indexes_out_of_bounds(
        root in 0u32..10,
        radius in 0u32..6,
        intensity in 0.0f64..=1.0,
    ) {
        let code = RepetitionCode::bit_flip(5).build();
        let topo = linear(10);
        let layout = Layout::new((0..10).collect(), 10);
        let mask = StrikeMask::try_new(&topo, root, radius, intensity).unwrap();
        let dm = DecoderMask::project(&mask, &code, &layout);
        for d in 0..5u32 {
            prop_assert!((0.0..=1.0).contains(&dm.data_prob(d)));
        }
        for i in 0..4 {
            prop_assert!((0.0..=1.0).contains(&dm.stab_prob(i)));
        }
        if mask.is_noop() {
            prop_assert!(dm.is_noop());
        }
    }
}

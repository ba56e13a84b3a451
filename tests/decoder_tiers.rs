//! Equivalence suite for the bulk decoder: [`BulkDecoder`] (memo, then one
//! exact solve per distinct missed syndrome) must be bit-identical to
//! [`MwpmDecoder::decode`] — exhaustively over all `2^{2P}` defect patterns
//! for the LUT-eligible codes, per-shot and batch, and property-tested on
//! random records elsewhere. See `crates/core/src/decoder/mod.rs` for the
//! exactness argument these tests enforce.

use proptest::prelude::*;
use radqec::prelude::*;
use radqec_circuit::{ShotBatch, ShotRecord};
use radqec_core::codes::CodeCircuit;
use radqec_core::decoder::BulkDecoder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// possible defect pattern, both readout values, dirty secondary syndromes,
/// per-shot *and* batch paths.
#[test]
fn exhaustive_syndrome_equivalence_on_lut_eligible_codes() {
    for code in [
        RepetitionCode::bit_flip(3).build(),
        RepetitionCode::bit_flip(5).build(),
        RepetitionCode::bit_flip(7).build(),
        XxzzCode::new(3, 3).build(),
    ] {
        let bits = 2 * code.primary_count;
        assert!(bits <= 16, "{} not LUT-eligible", code.name);
        let oracle = MwpmDecoder::new(&code);
        let dec = BulkDecoder::new(&code);
        assert!(dec.uses_lut());

        let shots = 2usize << bits;
        let mut batch = ShotBatch::new(code.circuit.num_clbits(), shots);
        let mut expected = Vec::with_capacity(shots);
        for key in 0..(1u64 << bits) {
            let (plain, noisy) = records_for_pattern(&code, key);
            let want_plain = oracle.decode(&plain);
            let want_noisy = oracle.decode(&noisy);
            // decode = raw ^ flip(defects): the oracle itself must ignore
            // the readout value and the secondary syndromes beyond the XOR.
            assert_eq!(want_noisy, !want_plain, "{} key {key:#b}", code.name);
            assert_eq!(dec.decode(&plain), want_plain, "{} key {key:#b} (plain)", code.name);
            assert_eq!(dec.decode(&noisy), want_noisy, "{} key {key:#b} (noisy)", code.name);
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
        assert_eq!(dec.decode_batch(&batch), expected, "{} batch", code.name);
    }
}

/// Prefilling the exhaustive LUT is indistinguishable from lazy filling.
#[test]
fn prefilled_lut_equals_lazy_lut() {
    let code = XxzzCode::new(3, 3).build();
    let lazy = BulkDecoder::new(&code);
    let eager = BulkDecoder::new(&code);
    eager.prefill_lut();
    let bits = 2 * code.primary_count;
    for key in 0..(1u64 << bits) {
        let (plain, _) = records_for_pattern(&code, key);
        assert_eq!(lazy.decode(&plain), eager.decode(&plain), "key {key:#b}");
    }
}

/// LUT-eligibility boundary: (3,5)/(5,3) still fit (14 detector bits),
/// (5,5) does not (24) and must run on the sharded cross-batch cache.
#[test]
fn lut_eligibility_matches_the_documented_threshold() {
    for (code, eligible) in [
        (RepetitionCode::bit_flip(9).build(), true),
        (XxzzCode::new(3, 5).build(), true),
        (XxzzCode::new(5, 3).build(), true),
        (XxzzCode::new(5, 5).build(), false),
    ] {
        assert_eq!(BulkDecoder::new(&code).uses_lut(), eligible, "{}", code.name);
    }
}

fn codes_under_test() -> Vec<CodeCircuit> {
    vec![
        RepetitionCode::bit_flip(3).build(),
        RepetitionCode::bit_flip(5).build(),
        RepetitionCode::bit_flip(7).build(),
        RepetitionCode::bit_flip(9).build(),
        XxzzCode::new(3, 3).build(),
        XxzzCode::new(3, 5).build(),
        XxzzCode::new(5, 5).build(),
    ]
}

fn random_record(nc: u32, density: f64, rng: &mut StdRng) -> ShotRecord {
    let mut r = ShotRecord::new(nc);
    for c in 0..nc {
        r.set(c, rng.gen_bool(density));
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Random (even garbage) records: the bulk decoder equals the MWPM
    /// oracle.
    #[test]
    fn tiers_match_mwpm_on_random_records(
        code_idx in 0usize..7,
        seed in any::<u64>(),
        density_idx in 0usize..3,
    ) {
        let code = &codes_under_test()[code_idx];
        let oracle = MwpmDecoder::new(code);
        let dec = BulkDecoder::new(code);
        let density = [0.05, 0.25, 0.6][density_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let shot = random_record(code.circuit.num_clbits(), density, &mut rng);
            prop_assert_eq!(dec.decode(&shot), oracle.decode(&shot), "{}", code.name);
        }
    }

    /// Random batches: the bit-plane bulk path equals per-shot decoding,
    /// and repeated decode_batch calls (warm engine cache) stay identical.
    #[test]
    fn bulk_batch_matches_per_shot_on_random_batches(
        code_idx in 0usize..7,
        seed in any::<u64>(),
        shots in 1usize..180,
    ) {
        let code = &codes_under_test()[code_idx];
        let oracle = MwpmDecoder::new(code);
        let bulk = BulkDecoder::new(code);
        let nc = code.circuit.num_clbits();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = ShotBatch::new(nc, shots);
        for s in 0..shots {
            for c in 0..nc {
                if rng.gen_bool(0.2) {
                    batch.flip(c, s);
                }
            }
        }
        let expected: Vec<bool> = (0..shots).map(|s| oracle.decode(&batch.record(s))).collect();
        let cold = bulk.decode_batch(&batch);
        prop_assert_eq!(&cold, &expected, "{} cold", code.name);
        let warm = bulk.decode_batch(&batch);
        prop_assert_eq!(&warm, &expected, "{} warm", code.name);
    }
}

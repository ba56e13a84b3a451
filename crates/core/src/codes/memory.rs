//! Multi-round memory experiments — the syndrome-streaming workload.
//!
//! Where [`assemble`](super::assemble) builds the paper's two-round
//! logical-operation experiment (Figs. 1–2), [`assemble_memory`] builds the
//! *streaming* counterpart: initialise the data block, then run `R`
//! identical stabilisation rounds, each measuring every stabilizer into its
//! own classical slot and resetting the ancillas. No logical operation, no
//! readout chain — the product is the per-round syndrome stream that online
//! radiation-event detection (`radqec-detect`) consumes.
//!
//! Each round starts with a `Barrier`, and barriers survive transpilation
//! in order, so the `r`-th barrier of the routed physical circuit marks
//! where round `r` begins — that is how the streaming engine aligns its
//! piecewise-constant fault timeline (round `r` ↦ transient time
//! `t = r / (R−1)`) with the physical op stream.

use super::{Basis, CodeLayout, StabKind};
use radqec_circuit::Circuit;

/// One stabilizer generator of a memory experiment. Unlike
/// [`Stabilizer`](super::Stabilizer) there are no fixed round-1/round-2
/// classical bits: round `r`'s outcome lives at
/// [`MemoryCircuit::cbit`]`(r, i)`.
#[derive(Debug, Clone)]
pub struct MemoryStabilizer {
    /// Z or X type.
    pub kind: StabKind,
    /// The dedicated syndrome ancilla qubit.
    pub ancilla: u32,
    /// Data qubits in the stabilizer's support.
    pub support: Vec<u32>,
}

/// The transversal final data readout of a memory experiment assembled
/// with [`CodeSpec::build_memory_readout`](super::CodeSpec::build_memory_readout):
/// every data qubit measured once in the primary-family basis after the
/// last stabilisation round, landing in classical bits
/// `rounds · num_stabs + d`. The measured data layer yields both the raw
/// logical readout (parity over `support`) and one extra *projected*
/// syndrome layer for the primary stabilizers — the terminal detector
/// layer a space-time decoder needs to close each replica's history.
#[derive(Debug, Clone)]
pub struct MemoryReadout {
    /// Measurement basis (Z for bit-flip-protected memories, X for
    /// phase-flip memories initialised in `|+⟩^n`).
    pub basis: Basis,
    /// Data qubits whose measured parity is the raw logical readout.
    pub support: Vec<u32>,
    /// The noiseless readout parity — each replica's true logical frame
    /// (the excited `X^⊗n` init stores all-ones, so a Z-basis chain of odd
    /// support reads 1; an `|+⟩^n` init reads 0 in the X basis).
    pub expected: bool,
}

/// A fully assembled `R`-round memory experiment: the circuit plus the
/// structure syndrome-stream consumers need.
#[derive(Debug, Clone)]
pub struct MemoryCircuit {
    /// Human-readable name, e.g. `rep-(5,1)-mem10`.
    pub name: String,
    /// The logical (pre-transpilation) circuit.
    pub circuit: Circuit,
    /// Number of stabilisation rounds `R` (≥ 2).
    pub rounds: usize,
    /// Data qubit count (data qubits are `0..n_data` by construction).
    pub n_data: u32,
    /// All stabilizer generators, in classical-register order (primary
    /// family first, mirroring [`CodeCircuit`](super::CodeCircuit)).
    pub stabilizers: Vec<MemoryStabilizer>,
    /// How many leading entries of `stabilizers` are primary (the family
    /// whose first-round outcome is deterministic on the initial state and
    /// whose detector graph protects the logical readout).
    pub primary_count: usize,
    /// Whether stabilizer `i`'s *first*-round outcome is deterministic on
    /// the initial product state (Z-type on `|0⟩^n`, X-type on `|+⟩^n`).
    /// Round-0 detection events are only defined for these; the others
    /// start their event stream at round 1 (consecutive-round XOR).
    pub first_round_deterministic: Vec<bool>,
    /// The final transversal data readout, when the experiment was
    /// assembled with one (see [`MemoryReadout`]); `None` for the plain
    /// syndrome-stream variant.
    pub final_readout: Option<MemoryReadout>,
}

impl MemoryCircuit {
    /// Number of stabilizer generators.
    pub fn num_stabs(&self) -> usize {
        self.stabilizers.len()
    }

    /// Total qubits (data + stabilizer ancillas; memory experiments have no
    /// readout ancilla).
    pub fn total_qubits(&self) -> u32 {
        self.circuit.num_qubits()
    }

    /// Classical bit receiving stabilizer `stab`'s round-`round` outcome.
    #[inline]
    pub fn cbit(&self, round: usize, stab: usize) -> u32 {
        debug_assert!(round < self.rounds && stab < self.num_stabs());
        (round * self.num_stabs() + stab) as u32
    }

    /// The primary stabilizers (leading `primary_count` entries).
    pub fn primary_stabilizers(&self) -> &[MemoryStabilizer] {
        &self.stabilizers[..self.primary_count]
    }

    /// Classical bit receiving data qubit `d`'s final readout (only
    /// meaningful when [`Self::final_readout`] is `Some`).
    #[inline]
    pub fn data_cbit(&self, d: u32) -> u32 {
        debug_assert!(d < self.n_data && self.final_readout.is_some());
        (self.rounds * self.num_stabs()) as u32 + d
    }

    /// Op indices where each round starts in `circuit` (the per-round
    /// barriers). Applying the same scan to a *transpiled* version of the
    /// circuit yields the physical round boundaries, since barriers pass
    /// through layout/routing untouched and in order.
    pub fn round_starts_of(circuit: &Circuit, rounds: usize) -> Vec<usize> {
        let starts: Vec<usize> = circuit
            .ops()
            .iter()
            .enumerate()
            .filter(|(_, g)| matches!(g, radqec_circuit::Gate::Barrier))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(starts.len(), rounds, "memory circuit must carry one barrier per round");
        starts
    }
}

/// Assemble an `R`-round memory experiment from a code layout: initial
/// product state, then `R` × (barrier, stabilizer measurement, ancilla
/// reset). Shares the per-round gate pattern of [`assemble`](super::assemble)
/// so streamed syndromes are directly comparable to the two-round
/// experiment's.
///
/// # Panics
/// Panics when `rounds < 2` (a stream needs at least one consecutive-round
/// detection event).
pub(crate) fn assemble_memory(layout: CodeLayout, rounds: usize) -> MemoryCircuit {
    assemble_memory_inner(layout, rounds, false)
}

/// [`assemble_memory`] plus the final transversal data readout of
/// [`MemoryReadout`]. The readout is appended *inside* the last round (no
/// extra barrier), so [`MemoryCircuit::round_starts_of`] and the streaming
/// engine's round alignment are unchanged — the last round simply runs to
/// the end of the circuit, data measurements included.
pub(crate) fn assemble_memory_readout(layout: CodeLayout, rounds: usize) -> MemoryCircuit {
    assemble_memory_inner(layout, rounds, true)
}

fn assemble_memory_inner(layout: CodeLayout, rounds: usize, final_readout: bool) -> MemoryCircuit {
    assert!(rounds >= 2, "memory experiment needs at least 2 rounds, got {rounds}");
    let n_data = layout.n_data;
    let n_stab = layout.stabs.len() as u32;
    let total_qubits = n_data + n_stab;
    let n_clbits = n_stab * rounds as u32 + if final_readout { n_data } else { 0 };
    let mut circuit = Circuit::new(total_qubits, n_clbits);

    // Excite the data block so the strike's Z-basis resets are *visible*:
    // on `|0…0⟩` a reset-to-|0⟩ is a no-op and no Z-check can ever fire.
    // `X^⊗n` stores the all-ones bit string — every Z-type check has even
    // weight (2 or 4 across both code families), so round-0 Z syndromes
    // stay deterministically 0 while any reset flips its qubit to 0 and
    // lights up the adjacent checks. Phase-flip codes use `|+⟩^n`, whose
    // X-checks are deterministic and equally reset-sensitive. This mirrors
    // the paper's two-round experiments, which likewise hold an excited
    // (logical |1⟩) state.
    for d in 0..n_data {
        if layout.init_plus {
            circuit.h(d);
        } else {
            circuit.x(d);
        }
    }

    let stabilizers: Vec<MemoryStabilizer> = layout
        .stabs
        .iter()
        .enumerate()
        .map(|(i, (kind, support))| MemoryStabilizer {
            kind: *kind,
            ancilla: n_data + i as u32,
            support: support.clone(),
        })
        .collect();

    for r in 0..rounds {
        circuit.barrier();
        for s in &stabilizers {
            match s.kind {
                StabKind::Z => {
                    for &d in &s.support {
                        circuit.cx(d, s.ancilla);
                    }
                }
                StabKind::X => {
                    circuit.h(s.ancilla);
                    for &d in &s.support {
                        circuit.cx(s.ancilla, d);
                    }
                    circuit.h(s.ancilla);
                }
            }
        }
        for (i, s) in stabilizers.iter().enumerate() {
            circuit.measure(s.ancilla, (r * layout.stabs.len() + i) as u32);
        }
        for s in &stabilizers {
            circuit.reset(s.ancilla);
        }
    }

    // Final transversal data readout, in the primary-family basis: every
    // data qubit measured once after the last round's resets. No barrier —
    // the measurements belong to the last round's op span.
    let readout = final_readout.then(|| {
        if layout.init_plus {
            for d in 0..n_data {
                circuit.h(d);
            }
        }
        for d in 0..n_data {
            circuit.measure(d, n_stab * rounds as u32 + d);
        }
        MemoryReadout {
            basis: if layout.init_plus { Basis::X } else { Basis::Z },
            support: layout.logical_readout_support.clone(),
            expected: !layout.init_plus && layout.logical_readout_support.len() % 2 == 1,
        }
    });

    let first_round_deterministic: Vec<bool> = stabilizers
        .iter()
        .map(|s| match s.kind {
            StabKind::Z => !layout.init_plus,
            StabKind::X => layout.init_plus,
        })
        .collect();

    MemoryCircuit {
        name: if final_readout {
            format!("{}-memr{rounds}", layout.name)
        } else {
            format!("{}-mem{rounds}", layout.name)
        },
        circuit,
        rounds,
        n_data,
        stabilizers,
        primary_count: layout.primary_count,
        first_round_deterministic,
        final_readout: readout,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CodeSpec, RepetitionCode, XxzzCode};
    use super::*;
    use radqec_circuit::execute;
    use radqec_stabilizer::StabilizerBackend;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn repetition_memory_structure() {
        let mem = RepetitionCode::bit_flip(5).build_memory(4);
        assert_eq!(mem.name, "rep-(5,1)-mem4");
        assert_eq!(mem.rounds, 4);
        assert_eq!(mem.num_stabs(), 4);
        assert_eq!(mem.total_qubits(), 9, "5 data + 4 ancillas, no readout");
        assert_eq!(mem.circuit.num_clbits(), 16);
        assert_eq!(mem.cbit(0, 0), 0);
        assert_eq!(mem.cbit(2, 3), 11);
        assert!(mem.first_round_deterministic.iter().all(|&d| d), "Z checks on |0⟩ⁿ");
        let starts = MemoryCircuit::round_starts_of(&mem.circuit, 4);
        assert_eq!(starts.len(), 4);
        assert_eq!(starts[0], 5, "five X gates excite the data block before round 0");
    }

    #[test]
    fn xxzz_memory_first_round_determinism_by_kind() {
        let mem = XxzzCode::new(3, 3).build_memory(3);
        assert_eq!(mem.num_stabs(), 8);
        for (i, s) in mem.stabilizers.iter().enumerate() {
            assert_eq!(
                mem.first_round_deterministic[i],
                s.kind == StabKind::Z,
                "stab {i} {:?}",
                s.kind
            );
        }
    }

    #[test]
    fn phase_flip_memory_is_x_deterministic() {
        let mem = RepetitionCode::phase_flip(3).build_memory(2);
        assert!(mem.first_round_deterministic.iter().all(|&d| d), "X checks on |+⟩ⁿ");
        // Init layer precedes the first round's barrier.
        let starts = MemoryCircuit::round_starts_of(&mem.circuit, 2);
        assert_eq!(starts[0], 3, "three H gates before round 0");
    }

    #[test]
    fn noiseless_streams_are_quiet_after_round_zero() {
        // Without noise, every stabilizer's syndrome is constant from round
        // 1 on (round 0 projects the state into the joint eigenbasis), and
        // deterministic-first-round stabs read 0 everywhere.
        for spec in
            [CodeSpec::from(RepetitionCode::bit_flip(5)), CodeSpec::from(XxzzCode::new(3, 3))]
        {
            let mem = spec.build_memory(5);
            let mut backend = StabilizerBackend::new(mem.total_qubits());
            let mut rng = StdRng::seed_from_u64(7);
            let record = execute(&mem.circuit, &mut backend, &mut rng);
            for i in 0..mem.num_stabs() {
                let first = record.get(mem.cbit(0, i));
                if mem.first_round_deterministic[i] {
                    assert!(!first, "{}: stab {i} fired in round 0", mem.name);
                }
                for r in 1..mem.rounds {
                    assert_eq!(
                        record.get(mem.cbit(r, i)),
                        first,
                        "{}: stab {i} changed at round {r}",
                        mem.name
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 rounds")]
    fn single_round_memory_rejected() {
        let _ = RepetitionCode::bit_flip(3).build_memory(1);
    }

    #[test]
    fn readout_memory_structure() {
        let mem = RepetitionCode::bit_flip(5).build_memory_readout(4);
        assert_eq!(mem.name, "rep-(5,1)-memr4");
        assert_eq!(mem.circuit.num_clbits(), 16 + 5, "4 rounds × 4 stabs + 5 data readouts");
        assert_eq!(mem.data_cbit(0), 16);
        assert_eq!(mem.data_cbit(4), 20);
        assert_eq!(mem.primary_count, 4);
        let ro = mem.final_readout.as_ref().unwrap();
        assert_eq!(ro.basis, super::Basis::Z);
        assert_eq!(ro.support, vec![0]);
        assert!(ro.expected, "excited chain reads logical 1");
        // The readout rides inside the last round: same barrier count as
        // the plain variant, so round alignment survives transpilation.
        assert_eq!(MemoryCircuit::round_starts_of(&mem.circuit, 4).len(), 4);
    }

    #[test]
    fn noiseless_readout_matches_expected_frame_and_projects_final_syndromes() {
        for spec in [
            CodeSpec::from(RepetitionCode::bit_flip(5)),
            CodeSpec::from(XxzzCode::new(3, 3)),
            CodeSpec::from(RepetitionCode::phase_flip(5)),
        ] {
            let mem = spec.build_memory_readout(4);
            let ro = mem.final_readout.clone().unwrap();
            for seed in 0..3 {
                let mut backend = StabilizerBackend::new(mem.total_qubits());
                let mut rng = StdRng::seed_from_u64(seed);
                let record = execute(&mem.circuit, &mut backend, &mut rng);
                let raw = ro.support.iter().fold(false, |p, &d| p ^ record.get(mem.data_cbit(d)));
                assert_eq!(raw, ro.expected, "{} seed {seed}", mem.name);
                // The data layer's projected syndromes agree with the last
                // measured round for every primary stabilizer — the
                // terminal detector layer is event-free without noise.
                for (i, s) in mem.primary_stabilizers().iter().enumerate() {
                    let proj =
                        s.support.iter().fold(false, |p, &d| p ^ record.get(mem.data_cbit(d)));
                    assert_eq!(
                        proj,
                        record.get(mem.cbit(mem.rounds - 1, i)),
                        "{} stab {i} seed {seed}",
                        mem.name
                    );
                }
            }
        }
    }
}

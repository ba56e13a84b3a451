//! Paper Figures 1 & 2: circuit-diagram representations of the two codes.
//!
//! Renders the distance-(3,3) XXZZ surface code (Fig. 1) and the
//! distance-(5,1) bit-flip repetition code (Fig. 2) as text diagrams, with
//! the paper's qubit naming.

use radqec_circuit::display;
use radqec_core::codes::{RepetitionCode, XxzzCode};

fn main() {
    let rep = RepetitionCode::bit_flip(5).build();
    radqec_bench::header("Fig. 2 — distance-(5,1) bit-flip repetition code");
    println!("{}", display::summary(&rep.circuit));
    println!("{}", display::render(&rep.circuit, &rep.qubit_labels()));

    let xxzz = XxzzCode::new(3, 3).build();
    radqec_bench::header("Fig. 1 — distance-(3,3) XXZZ surface code");
    println!("{}", display::summary(&xxzz.circuit));
    println!("{}", display::render(&xxzz.circuit, &xxzz.qubit_labels()));
    println!(
        "qubits: {} data, {} mz, {} mx, 1 readout ancilla (paper: 9/4/4/1)",
        xxzz.data_qubits.len(),
        xxzz.primary_count,
        xxzz.num_stabilizers() - xxzz.primary_count,
    );
}

//! Named IBM device coupling graphs used by the paper's architecture
//! analysis (Sec. V-D, Fig. 8).
//!
//! Edge lists are reconstructed from the publicly documented coupling maps
//! of the retired IBM Quantum backends.
//! What the experiments consume is the degree/distance structure:
//! * Almaden / Johannesburg — 20-qubit "Penguin" grids with sparse verticals;
//! * Cairo — 27-qubit Falcon heavy-hex;
//! * Cambridge — 28-qubit hexagon lattice;
//! * Brooklyn — 65-qubit Hummingbird heavy-hex.

use crate::graph::Topology;

/// IBM Q Almaden (20 qubits, Penguin r2): three 5-qubit rows of a 4×5 grid
/// with alternating vertical links.
pub fn almaden() -> Topology {
    let edges: &[(u32, u32)] = &[
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (1, 6),
        (3, 8),
        (5, 6),
        (6, 7),
        (7, 8),
        (8, 9),
        (5, 10),
        (7, 12),
        (9, 14),
        (10, 11),
        (11, 12),
        (12, 13),
        (13, 14),
        (11, 16),
        (13, 18),
        (15, 16),
        (16, 17),
        (17, 18),
        (18, 19),
    ];
    Topology::from_edges("almaden", 20, edges)
}

/// IBM Q Johannesburg (20 qubits, Penguin r3): 4×5 grid with vertical links
/// at the row ends and centre.
pub fn johannesburg() -> Topology {
    let edges: &[(u32, u32)] = &[
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (0, 5),
        (4, 9),
        (5, 6),
        (6, 7),
        (7, 8),
        (8, 9),
        (5, 10),
        (7, 12),
        (9, 14),
        (10, 11),
        (11, 12),
        (12, 13),
        (13, 14),
        (10, 15),
        (14, 19),
        (15, 16),
        (16, 17),
        (17, 18),
        (18, 19),
    ];
    Topology::from_edges("johannesburg", 20, edges)
}

/// IBM Cairo (27 qubits, Falcon r5.11 heavy-hex).
pub fn cairo() -> Topology {
    let edges: &[(u32, u32)] = &[
        (0, 1),
        (1, 2),
        (1, 4),
        (2, 3),
        (3, 5),
        (4, 7),
        (5, 8),
        (6, 7),
        (7, 10),
        (8, 9),
        (8, 11),
        (10, 12),
        (11, 14),
        (12, 13),
        (12, 15),
        (13, 14),
        (14, 16),
        (15, 18),
        (16, 19),
        (17, 18),
        (18, 21),
        (19, 20),
        (19, 22),
        (21, 23),
        (22, 25),
        (23, 24),
        (24, 25),
        (25, 26),
    ];
    Topology::from_edges("cairo", 27, edges)
}

/// IBM Q Cambridge (28 qubits): two rows of hexagons.
pub fn cambridge() -> Topology {
    let edges: &[(u32, u32)] = &[
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (0, 5),
        (4, 6),
        (5, 9),
        (6, 13),
        (7, 8),
        (8, 9),
        (9, 10),
        (10, 11),
        (11, 12),
        (12, 13),
        (13, 14),
        (7, 16),
        (11, 17),
        (15, 16),
        (16, 17),
        (17, 18),
        (18, 19),
        (19, 20),
        (20, 21),
        (21, 22),
        (15, 23),
        (19, 24),
        (23, 25),
        (24, 27),
        (25, 26),
        (26, 27),
    ];
    Topology::from_edges("cambridge", 28, edges)
}

/// IBM Q Brooklyn (65 qubits, Hummingbird r2 heavy-hex).
pub fn brooklyn() -> Topology {
    let edges: &[(u32, u32)] = &[
        // row 0: 0..9
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 8),
        (8, 9),
        // connectors 10, 11, 12
        (0, 10),
        (4, 11),
        (8, 12),
        (10, 13),
        (11, 17),
        (12, 21),
        // row 1: 13..23
        (13, 14),
        (14, 15),
        (15, 16),
        (16, 17),
        (17, 18),
        (18, 19),
        (19, 20),
        (20, 21),
        (21, 22),
        (22, 23),
        // connectors 24, 25, 26
        (15, 24),
        (19, 25),
        (23, 26),
        (24, 29),
        (25, 33),
        (26, 37),
        // row 2: 27..38
        (27, 28),
        (28, 29),
        (29, 30),
        (30, 31),
        (31, 32),
        (32, 33),
        (33, 34),
        (34, 35),
        (35, 36),
        (36, 37),
        (37, 38),
        // connectors 39, 40, 41
        (27, 39),
        (31, 40),
        (35, 41),
        (39, 42),
        (40, 46),
        (41, 50),
        // row 3: 42..52
        (42, 43),
        (43, 44),
        (44, 45),
        (45, 46),
        (46, 47),
        (47, 48),
        (48, 49),
        (49, 50),
        (50, 51),
        (51, 52),
        // connectors 53, 54, 55
        (44, 53),
        (48, 54),
        (52, 55),
        (53, 58),
        (54, 62),
        (55, 64),
        // row 4: 56..64
        (56, 57),
        (57, 58),
        (58, 59),
        (59, 60),
        (60, 61),
        (61, 62),
        (62, 63),
        (63, 64),
    ];
    Topology::from_edges("brooklyn", 65, edges)
}

/// Why a topology name failed to resolve.
///
/// Returned by [`try_by_name`]; [`by_name`] collapses both variants to
/// `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceNameError {
    /// The name matches no device and no generator family.
    UnknownName(String),
    /// The name parses as a generator but with dimensions the family
    /// rejects (e.g. `"mesh0x4"`).
    DegenerateDimensions(String),
}

impl std::fmt::Display for DeviceNameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceNameError::UnknownName(n) => write!(f, "unknown topology name {n:?}"),
            DeviceNameError::DegenerateDimensions(n) => {
                write!(f, "degenerate dimensions in topology name {n:?}")
            }
        }
    }
}

impl std::error::Error for DeviceNameError {}

/// Look up a named topology generator: `"linear<n>"`, `"complete<n>"`,
/// `"mesh<r>x<c>"` or one of the device names.
pub fn by_name(name: &str) -> Option<Topology> {
    try_by_name(name).ok()
}

/// [`by_name`] with a typed error distinguishing an unknown name from a
/// recognised generator family given dimensions it rejects.
pub fn try_by_name(name: &str) -> Result<Topology, DeviceNameError> {
    match name {
        "almaden" => return Ok(almaden()),
        "johannesburg" => return Ok(johannesburg()),
        "cairo" => return Ok(cairo()),
        "cambridge" => return Ok(cambridge()),
        "brooklyn" => return Ok(brooklyn()),
        _ => {}
    }
    let unknown = || DeviceNameError::UnknownName(name.to_string());
    if let Some(rest) = name.strip_prefix("linear") {
        let n = rest.parse::<u32>().map_err(|_| unknown())?;
        return Ok(crate::generators::linear(n));
    }
    if let Some(rest) = name.strip_prefix("complete") {
        let n = rest.parse::<u32>().map_err(|_| unknown())?;
        return Ok(crate::generators::complete(n));
    }
    if let Some(rest) = name.strip_prefix("mesh") {
        let mut it = rest.splitn(2, 'x');
        let r = it.next().and_then(|s| s.parse::<u32>().ok()).ok_or_else(unknown)?;
        let c = it.next().and_then(|s| s.parse::<u32>().ok()).ok_or_else(unknown)?;
        if r == 0 || c == 0 {
            return Err(DeviceNameError::DegenerateDimensions(name.to_string()));
        }
        return Ok(crate::generators::mesh(r, c));
    }
    Err(unknown())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_devices_are_connected() {
        for t in [almaden(), johannesburg(), cairo(), cambridge(), brooklyn()] {
            assert!(t.is_connected(), "{} disconnected", t.name());
        }
    }

    #[test]
    fn device_sizes() {
        assert_eq!(almaden().num_qubits(), 20);
        assert_eq!(johannesburg().num_qubits(), 20);
        assert_eq!(cairo().num_qubits(), 27);
        assert_eq!(cambridge().num_qubits(), 28);
        assert_eq!(brooklyn().num_qubits(), 65);
    }

    #[test]
    fn heavy_hex_devices_are_sparse() {
        // Heavy-hex style devices have max degree 3 and low average degree.
        for t in [cairo(), brooklyn()] {
            let max_deg = (0..t.num_qubits()).map(|q| t.degree(q)).max().unwrap();
            assert!(max_deg <= 3, "{}: max degree {max_deg}", t.name());
            assert!(t.average_degree() < 2.5, "{}", t.name());
        }
    }

    #[test]
    fn penguin_devices_have_grid_like_degree() {
        for t in [almaden(), johannesburg()] {
            let max_deg = (0..t.num_qubits()).map(|q| t.degree(q)).max().unwrap();
            assert!(max_deg <= 4, "{}: max degree {max_deg}", t.name());
            assert!(t.average_degree() > 2.0, "{}", t.name());
        }
    }

    #[test]
    fn by_name_resolves_everything() {
        assert_eq!(by_name("brooklyn").unwrap().num_qubits(), 65);
        assert_eq!(by_name("linear22").unwrap().num_qubits(), 22);
        assert_eq!(by_name("complete18").unwrap().num_qubits(), 18);
        assert_eq!(by_name("mesh5x4").unwrap().num_qubits(), 20);
        assert!(by_name("gibberish").is_none());
        assert!(by_name("mesh5").is_none());
    }

    #[test]
    fn try_by_name_types_the_failure_modes() {
        assert_eq!(try_by_name("mesh5x4").unwrap().num_qubits(), 20);
        assert_eq!(try_by_name("gibberish"), Err(DeviceNameError::UnknownName("gibberish".into())));
        assert_eq!(try_by_name("linearx"), Err(DeviceNameError::UnknownName("linearx".into())));
        // Degenerate mesh dimensions are a typed error, not a generator
        // panic — and `by_name` maps them to `None`.
        assert_eq!(
            try_by_name("mesh0x4"),
            Err(DeviceNameError::DegenerateDimensions("mesh0x4".into()))
        );
        assert!(by_name("mesh0x4").is_none());
        assert_eq!(
            try_by_name("mesh0x4").unwrap_err().to_string(),
            "degenerate dimensions in topology name \"mesh0x4\""
        );
    }
}

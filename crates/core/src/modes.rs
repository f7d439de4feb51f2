//! The 4x4 taxonomy (Figure 10).
//!
//! Four ways a mobile host sends (§4), four ways a correspondent host sends
//! to it (§5), and the classification of all sixteen combinations (§6):
//! seven useful, three valid-but-unused, six broken.

use std::fmt;

/// How the mobile host sends outgoing packets (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OutMode {
    /// Out-IE: Outgoing, Indirect, Encapsulated — reverse-tunnel via the
    /// home agent. Conservative mode; always works.
    IE,
    /// Out-DE: Outgoing, Direct, Encapsulated — tunnel straight to a
    /// decapsulation-capable correspondent.
    DE,
    /// Out-DH: Outgoing, Direct, Home address — plain packets with the home
    /// source address. Fails through source-address-filtering routers.
    DH,
    /// Out-DT: Outgoing, Direct, Temporary address — plain packets from the
    /// care-of address. No Mobile IP at all.
    DT,
}

/// How the correspondent host sends incoming packets (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InMode {
    /// In-IE: Incoming, Indirect, Encapsulated — naïve packets to the home
    /// address, captured and tunnelled by the home agent.
    IE,
    /// In-DE: Incoming, Direct, Encapsulated — a mobile-aware correspondent
    /// tunnels straight to the care-of address.
    DE,
    /// In-DH: Incoming, Direct, Home address — single link-layer hop on a
    /// shared segment, IP destination untouched.
    DH,
    /// In-DT: Incoming, Direct, Temporary address — plain packets to the
    /// care-of address.
    DT,
}

impl OutMode {
    /// All four outgoing modes, most to least conservative.
    pub const ALL: [OutMode; 4] = [OutMode::IE, OutMode::DE, OutMode::DH, OutMode::DT];

    /// Demote one step toward the conservative end (§7.1.1: "at each stage
    /// being prepared to return to the conservative method"). `IE` is the
    /// floor. `DT` does not demote — forgoing Mobile IP is an application
    /// decision, not a delivery fallback.
    pub fn demote(self) -> OutMode {
        match self {
            OutMode::DH => OutMode::DE,
            OutMode::DE => OutMode::IE,
            other => other,
        }
    }

    /// Promote one step toward the aggressive end (upgrade probing).
    pub fn promote(self) -> OutMode {
        match self {
            OutMode::IE => OutMode::DE,
            OutMode::DE => OutMode::DH,
            other => other,
        }
    }

    /// Does this mode put an encapsulation header on the wire?
    pub fn encapsulated(self) -> bool {
        matches!(self, OutMode::IE | OutMode::DE)
    }

    /// Does this mode deliver via the home agent?
    pub fn indirect(self) -> bool {
        self == OutMode::IE
    }

    /// Does this mode preserve the home address as the endpoint?
    pub fn location_transparent(self) -> bool {
        self != OutMode::DT
    }

    /// Position in [`OutMode::ALL`]: a dense 0..4 code for bit-packed
    /// storage (the method cache keeps modes in 2-bit fields and failure
    /// history as a 4-bit mask).
    pub const fn index(self) -> usize {
        match self {
            OutMode::IE => 0,
            OutMode::DE => 1,
            OutMode::DH => 2,
            OutMode::DT => 3,
        }
    }

    /// Inverse of [`OutMode::index`]. Only the low two bits are read, so
    /// any `u8`-ranged value maps onto a valid mode.
    pub const fn from_index(i: usize) -> OutMode {
        match i & 3 {
            0 => OutMode::IE,
            1 => OutMode::DE,
            2 => OutMode::DH,
            _ => OutMode::DT,
        }
    }

    /// The single-bit mask for this mode (`1 << index`), for 4-bit
    /// mode-set fields.
    pub const fn bit(self) -> u8 {
        1 << self.index()
    }
}

impl InMode {
    /// All four incoming modes, most to least conservative.
    pub const ALL: [InMode; 4] = [InMode::IE, InMode::DE, InMode::DH, InMode::DT];

    /// Does this mode put an encapsulation header on the wire?
    pub fn encapsulated(self) -> bool {
        matches!(self, InMode::IE | InMode::DE)
    }

    /// Does this mode deliver via the home agent?
    pub fn indirect(self) -> bool {
        self == InMode::IE
    }

    /// Does this mode keep the home address as the endpoint?
    pub fn location_transparent(self) -> bool {
        self != InMode::DT
    }
}

impl serde::Serialize for OutMode {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        w.display(self);
    }
}

impl serde::Serialize for InMode {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        w.display(self);
    }
}

impl fmt::Display for OutMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OutMode::IE => "Out-IE",
            OutMode::DE => "Out-DE",
            OutMode::DH => "Out-DH",
            OutMode::DT => "Out-DT",
        };
        f.write_str(s)
    }
}

impl fmt::Display for InMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InMode::IE => "In-IE",
            InMode::DE => "In-DE",
            InMode::DH => "In-DH",
            InMode::DT => "In-DT",
        };
        f.write_str(s)
    }
}

/// One cell of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combination {
    /// How the correspondent sends to the mobile (the row).
    pub incoming: InMode,
    /// How the mobile sends back (the column).
    pub outgoing: OutMode,
}

impl Combination {
    /// The cell at (incoming, outgoing).
    pub fn new(incoming: InMode, outgoing: OutMode) -> Combination {
        Combination { incoming, outgoing }
    }

    /// All sixteen cells, row-major as in the figure.
    pub fn all() -> impl Iterator<Item = Combination> {
        InMode::ALL.into_iter().flat_map(|i| {
            OutMode::ALL
                .into_iter()
                .map(move |o| Combination::new(i, o))
        })
    }
}

impl serde::Serialize for Combination {
    fn serialize(&self, w: &mut serde::JsonWriter) {
        w.display(self);
    }
}

impl fmt::Display for Combination {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.incoming, self.outgoing)
    }
}

/// Figure 10's shading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// Unshaded: a combination hosts would actually use.
    Useful,
    /// Light grey: "would work correctly with current protocols such as
    /// TCP, but for other reasons would not normally be used."
    ValidButUnused,
    /// Dark grey: "would not work correctly with current protocols such as
    /// TCP" — mixing temporary-address endpoints with permanent-address
    /// endpoints (§6.5).
    Broken,
}

impl CellClass {
    /// Would a TCP conversation complete in this mode (ignoring style)?
    pub fn works(self) -> bool {
        self != CellClass::Broken
    }
}

impl fmt::Display for CellClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellClass::Useful => "useful",
            CellClass::ValidButUnused => "valid-but-unused",
            CellClass::Broken => "broken",
        };
        f.write_str(s)
    }
}

/// The paper's classification of each (incoming, outgoing) combination
/// (Figure 10 and §6.5).
pub fn classify(c: Combination) -> CellClass {
    use CellClass::*;
    use InMode as I;
    use OutMode as O;
    match (c.incoming, c.outgoing) {
        // §6.5: mixing the temporary address as an endpoint in one direction
        // with the permanent address in the other confuses the transport —
        // "the use of the temporary care-of address for communication in
        // one direction effectively mandates the use of the same address
        // for the corresponding return communication."
        (I::DT, O::DT) => Useful,
        (I::DT, _) | (_, O::DT) => Broken,
        // Row A: conventional correspondent.
        (I::IE, O::IE) | (I::IE, O::DE) | (I::IE, O::DH) => Useful,
        // Row B: mobile-aware correspondent. In-DE/Out-IE is "also valid,
        // but unlikely to be used" (§6.2).
        (I::DE, O::IE) => ValidButUnused,
        (I::DE, O::DE) | (I::DE, O::DH) => Useful,
        // Row C: same segment. The first two "are also valid, but are
        // unlikely to be used" (§6.3).
        (I::DH, O::IE) | (I::DH, O::DE) => ValidButUnused,
        (I::DH, O::DH) => Useful,
    }
}

/// The environment a conversation runs in — the three factors of the
/// abstract: optimization goals are the caller's, these are the constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Environment {
    /// Does some router between MH and CH drop packets whose source address
    /// looks wrong (ingress or egress source filtering)?
    pub source_filtering_on_path: bool,
    /// Can the correspondent decapsulate IP-in-IP (§6.1: "recent versions
    /// of Linux have this capability built-in")?
    pub ch_decap_capable: bool,
    /// Is the correspondent fully mobile-aware (binding cache, can learn
    /// care-of addresses)?
    pub ch_mobile_aware: bool,
    /// Are MH and CH attached to the same link-layer segment?
    pub same_segment: bool,
    /// Does the conversation need to survive the MH moving?
    pub needs_mobility: bool,
}

/// The best combination available in `env`, following the paper's guidance
/// (§6): prefer the most efficient mode that is deliverable and meets the
/// mobility requirement.
pub fn best_combination(env: Environment) -> Combination {
    if !env.needs_mobility {
        return Combination::new(InMode::DT, OutMode::DT);
    }
    if env.same_segment {
        return Combination::new(InMode::DH, OutMode::DH);
    }
    let incoming = if env.ch_mobile_aware {
        InMode::DE
    } else {
        InMode::IE
    };
    // A fully mobile-aware correspondent can necessarily decapsulate (it
    // must, to use In-DE at all).
    let ch_decap = env.ch_decap_capable || env.ch_mobile_aware;
    let outgoing = if !env.source_filtering_on_path {
        OutMode::DH
    } else if ch_decap {
        OutMode::DE
    } else {
        OutMode::IE
    };
    Combination::new(incoming, outgoing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_cells_partition_as_in_figure_10() {
        let mut useful = 0;
        let mut unused = 0;
        let mut broken = 0;
        for c in Combination::all() {
            match classify(c) {
                CellClass::Useful => useful += 1,
                CellClass::ValidButUnused => unused += 1,
                CellClass::Broken => broken += 1,
            }
        }
        // "Of the sixteen possible routing choices that we identify, we
        // describe the seven that are most useful" (abstract).
        assert_eq!(useful, 7);
        assert_eq!(unused, 3);
        assert_eq!(broken, 6);
    }

    #[test]
    fn the_seven_useful_cells_match_the_paper() {
        use InMode as I;
        use OutMode as O;
        let useful: Vec<Combination> = Combination::all()
            .filter(|&c| classify(c) == CellClass::Useful)
            .collect();
        let expected = [
            (I::IE, O::IE),
            (I::IE, O::DE),
            (I::IE, O::DH),
            (I::DE, O::DE),
            (I::DE, O::DH),
            (I::DH, O::DH),
            (I::DT, O::DT),
        ];
        assert_eq!(useful.len(), expected.len());
        for (i, o) in expected {
            assert!(
                useful.contains(&Combination::new(i, o)),
                "missing {i:?}/{o:?}"
            );
        }
    }

    #[test]
    fn fourth_row_and_column_break_except_corner() {
        for o in OutMode::ALL {
            let class = classify(Combination::new(InMode::DT, o));
            if o == OutMode::DT {
                assert_eq!(class, CellClass::Useful);
            } else {
                assert_eq!(class, CellClass::Broken);
            }
        }
        for i in InMode::ALL {
            let class = classify(Combination::new(i, OutMode::DT));
            if i == InMode::DT {
                assert_eq!(class, CellClass::Useful);
            } else {
                assert_eq!(class, CellClass::Broken);
            }
        }
    }

    #[test]
    fn demote_promote_ladder() {
        assert_eq!(OutMode::DH.demote(), OutMode::DE);
        assert_eq!(OutMode::DE.demote(), OutMode::IE);
        assert_eq!(OutMode::IE.demote(), OutMode::IE);
        assert_eq!(OutMode::DT.demote(), OutMode::DT);
        assert_eq!(OutMode::IE.promote(), OutMode::DE);
        assert_eq!(OutMode::DE.promote(), OutMode::DH);
        assert_eq!(OutMode::DH.promote(), OutMode::DH);
        // Demote then promote round-trips in the middle of the ladder.
        assert_eq!(OutMode::DH.demote().promote(), OutMode::DH);
    }

    #[test]
    fn index_round_trips_and_bits_are_distinct() {
        let mut seen = 0u8;
        for (i, m) in OutMode::ALL.into_iter().enumerate() {
            assert_eq!(m.index(), i);
            assert_eq!(OutMode::from_index(m.index()), m);
            assert_eq!(m.bit(), 1 << i);
            seen |= m.bit();
        }
        assert_eq!(seen, 0b1111);
    }

    #[test]
    fn mode_properties() {
        assert!(OutMode::IE.encapsulated() && OutMode::IE.indirect());
        assert!(OutMode::DE.encapsulated() && !OutMode::DE.indirect());
        assert!(!OutMode::DH.encapsulated());
        assert!(!OutMode::DT.location_transparent());
        assert!(InMode::IE.indirect() && InMode::IE.encapsulated());
        assert!(InMode::DH.location_transparent() && !InMode::DH.encapsulated());
    }

    #[test]
    fn best_combination_follows_the_grid_rows() {
        // Row D: no mobility needed → DT/DT regardless of anything else.
        let c = best_combination(Environment {
            source_filtering_on_path: true,
            ch_decap_capable: false,
            ch_mobile_aware: false,
            same_segment: false,
            needs_mobility: false,
        });
        assert_eq!(c, Combination::new(InMode::DT, OutMode::DT));

        // Row A, conservative: filtered path, dumb correspondent → IE/IE.
        let c = best_combination(Environment {
            source_filtering_on_path: true,
            ch_decap_capable: false,
            ch_mobile_aware: false,
            same_segment: false,
            needs_mobility: true,
        });
        assert_eq!(c, Combination::new(InMode::IE, OutMode::IE));

        // Row A with decap-capable CH: IE/DE.
        let c = best_combination(Environment {
            source_filtering_on_path: true,
            ch_decap_capable: true,
            ch_mobile_aware: false,
            same_segment: false,
            needs_mobility: true,
        });
        assert_eq!(c, Combination::new(InMode::IE, OutMode::DE));

        // Open network, dumb CH: IE/DH.
        let c = best_combination(Environment {
            source_filtering_on_path: false,
            ch_decap_capable: false,
            ch_mobile_aware: false,
            same_segment: false,
            needs_mobility: true,
        });
        assert_eq!(c, Combination::new(InMode::IE, OutMode::DH));

        // Mobile-aware CH, open network: DE/DH.
        let c = best_combination(Environment {
            source_filtering_on_path: false,
            ch_decap_capable: true,
            ch_mobile_aware: true,
            same_segment: false,
            needs_mobility: true,
        });
        assert_eq!(c, Combination::new(InMode::DE, OutMode::DH));

        // Same segment: DH/DH.
        let c = best_combination(Environment {
            source_filtering_on_path: false,
            ch_decap_capable: true,
            ch_mobile_aware: true,
            same_segment: true,
            needs_mobility: true,
        });
        assert_eq!(c, Combination::new(InMode::DH, OutMode::DH));
    }

    #[test]
    fn every_best_combination_is_classified_useful() {
        for sf in [false, true] {
            for dc in [false, true] {
                for ma in [false, true] {
                    for ss in [false, true] {
                        for nm in [false, true] {
                            let env = Environment {
                                source_filtering_on_path: sf,
                                ch_decap_capable: dc,
                                ch_mobile_aware: ma,
                                same_segment: ss,
                                needs_mobility: nm,
                            };
                            let c = best_combination(env);
                            assert_eq!(
                                classify(c),
                                CellClass::Useful,
                                "best_combination({env:?}) = {c} not useful"
                            );
                        }
                    }
                }
            }
        }
    }
}

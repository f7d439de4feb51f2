//! Address newtypes.
//!
//! The whole paper is about *which* of two addresses goes *where* in a
//! packet, so the two roles get distinct types: a [`HomeAddress`] is the
//! permanent, location-independent identity; a [`CareOfAddress`] is the
//! temporary, topologically-correct locator. Mixing them up at compile time
//! is most of the bug surface of a Mobile IP stack.

use std::fmt;

use netsim::Ipv4Addr;

/// The mobile host's permanent home address — "a permanent home IP address
/// that does not change" (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HomeAddress(pub Ipv4Addr);

/// A temporary care-of address obtained on a visited network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CareOfAddress(pub Ipv4Addr);

impl HomeAddress {
    /// The raw IPv4 address.
    pub fn ip(self) -> Ipv4Addr {
        self.0
    }
}

impl CareOfAddress {
    /// The raw IPv4 address.
    pub fn ip(self) -> Ipv4Addr {
        self.0
    }
}

impl fmt::Display for HomeAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for CareOfAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_display_and_compare() {
        let h = HomeAddress("171.64.15.9".parse().unwrap());
        let c = CareOfAddress("36.186.0.99".parse().unwrap());
        assert_eq!(h.to_string(), "171.64.15.9");
        assert_eq!(c.to_string(), "36.186.0.99");
        assert_ne!(h.ip(), c.ip());
    }
}

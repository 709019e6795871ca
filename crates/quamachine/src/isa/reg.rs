//! Register names and register lists.

/// Control register selector for `MOVEC`: the vector base register.
///
/// The 68020 has several control registers; the Synthesis kernel only needs
/// the VBR (each thread's context switch loads the VBR with the address of
/// that thread's vector table, paper Section 4.2).
pub const CTRL_VBR: u16 = 0x801;
// NOTE: 0x801 is the real 68020 MOVEC encoding for VBR; kept for flavour.

/// A `MOVEM`-style register list: bits 0–7 select `D0`–`D7`, bits 8–15
/// select `A0`–`A7`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegList(pub u16);

impl RegList {
    /// The empty register list.
    pub const EMPTY: RegList = RegList(0);

    /// All data and address registers except the stack pointer `A7`:
    /// `D0`–`D7` and `A0`–`A6`. This is the list a full context switch
    /// saves (the stack pointer is handled separately).
    pub const ALL_BUT_SP: RegList = RegList(0x7FFF);

    /// All sixteen general registers.
    pub const ALL: RegList = RegList(0xFFFF);

    /// A list containing the single data register `n`.
    #[must_use]
    pub fn d(n: u8) -> RegList {
        debug_assert!(n < 8);
        RegList(1 << n)
    }

    /// A list containing the single address register `n`.
    #[must_use]
    pub fn a(n: u8) -> RegList {
        debug_assert!(n < 8);
        RegList(1 << (8 + n))
    }

    /// The union of two register lists.
    #[must_use]
    pub fn with(self, other: RegList) -> RegList {
        RegList(self.0 | other.0)
    }

    /// Number of registers selected.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether data register `n` is selected.
    #[must_use]
    pub fn has_d(self, n: u8) -> bool {
        self.0 & (1 << n) != 0
    }

    /// Whether address register `n` is selected.
    #[must_use]
    pub fn has_a(self, n: u8) -> bool {
        self.0 & (1 << (8 + n)) != 0
    }

    /// Iterate over selected registers in transfer order (`D0`..`D7`,
    /// then `A0`..`A7`), yielding `(is_addr, index)`.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = (bool, u8)> {
        (0u8..16).filter_map(move |i| {
            if self.0 & (1 << i) != 0 {
                Some((i >= 8, i % 8))
            } else {
                None
            }
        })
    }
}

/// A floating-point register list for `FMOVEM`: bits 0–7 select `FP0`–`FP7`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpRegList(pub u8);

impl FpRegList {
    /// All eight floating-point registers.
    pub const ALL: FpRegList = FpRegList(0xFF);

    /// Number of registers selected.
    #[must_use]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterate over selected register indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0u8..8).filter(move |i| self.0 & (1 << i) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reglist_single_registers() {
        assert!(RegList::d(3).has_d(3));
        assert!(!RegList::d(3).has_d(2));
        assert!(RegList::a(6).has_a(6));
        assert!(!RegList::a(6).has_d(6));
    }

    #[test]
    fn reglist_all_but_sp_excludes_a7() {
        let l = RegList::ALL_BUT_SP;
        assert_eq!(l.count(), 15);
        assert!(!l.has_a(7));
        assert!(l.has_a(6));
        assert!(l.has_d(0));
    }

    #[test]
    fn reglist_iter_order_is_d_then_a() {
        let l = RegList::d(1).with(RegList::a(0)).with(RegList::d(7));
        let v: Vec<_> = l.iter().collect();
        assert_eq!(v, vec![(false, 1), (false, 7), (true, 0)]);
    }

    #[test]
    fn fp_reglist_iter() {
        let l = FpRegList(0b1000_0001);
        let v: Vec<_> = l.iter().collect();
        assert_eq!(v, vec![0, 7]);
        assert_eq!(l.count(), 2);
    }
}

//! Condition codes for `Bcc`.

/// A 68000-family condition.
///
/// All sixteen stay although `Bcc` is their only consumer and not every
/// one is emitted: [`Cond::negate`] must stay closed over the set, and a
/// condition has no cost, effects or encoding row of its own to keep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Always true (`BRA`).
    T,
    /// Always false.
    F,
    /// Equal (`Z`).
    Eq,
    /// Not equal (`!Z`).
    Ne,
    /// Signed less than (`N ^ V`).
    Lt,
    /// Signed less or equal (`Z | (N ^ V)`).
    Le,
    /// Signed greater than (`!Z & !(N ^ V)`).
    Gt,
    /// Signed greater or equal (`!(N ^ V)`).
    Ge,
    /// Unsigned higher (`!C & !Z`).
    Hi,
    /// Unsigned lower or same (`C | Z`).
    Ls,
    /// Carry clear — unsigned higher or same (`!C`).
    Cc,
    /// Carry set — unsigned lower (`C`).
    Cs,
    /// Minus (`N`).
    Mi,
    /// Plus (`!N`).
    Pl,
    /// Overflow clear (`!V`).
    Vc,
    /// Overflow set (`V`).
    Vs,
}

impl Cond {
    /// The logical negation of this condition.
    #[must_use]
    pub fn negate(self) -> Cond {
        use Cond::*;
        match self {
            T => F,
            F => T,
            Eq => Ne,
            Ne => Eq,
            Lt => Ge,
            Ge => Lt,
            Le => Gt,
            Gt => Le,
            Hi => Ls,
            Ls => Hi,
            Cc => Cs,
            Cs => Cc,
            Mi => Pl,
            Pl => Mi,
            Vc => Vs,
            Vs => Vc,
        }
    }

    /// Evaluate the condition against condition-code flags.
    #[must_use]
    pub fn eval(self, n: bool, z: bool, v: bool, c: bool) -> bool {
        use Cond::*;
        match self {
            T => true,
            F => false,
            Eq => z,
            Ne => !z,
            Lt => n != v,
            Ge => n == v,
            Le => z || (n != v),
            Gt => !z && (n == v),
            Hi => !c && !z,
            Ls => c || z,
            Cc => !c,
            Cs => c,
            Mi => n,
            Pl => !n,
            Vc => !v,
            Vs => v,
        }
    }
}

impl std::fmt::Display for Cond {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Cond::T => "ra",
            Cond::F => "f",
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::Hi => "hi",
            Cond::Ls => "ls",
            Cond::Cc => "cc",
            Cond::Cs => "cs",
            Cond::Mi => "mi",
            Cond::Pl => "pl",
            Cond::Vc => "vc",
            Cond::Vs => "vs",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negation_is_involutive() {
        use Cond::*;
        for c in [T, F, Eq, Ne, Lt, Le, Gt, Ge, Hi, Ls, Cc, Cs, Mi, Pl, Vc, Vs] {
            assert_eq!(c.negate().negate(), c);
        }
    }

    #[test]
    fn negation_complements_eval() {
        use Cond::*;
        for c in [T, F, Eq, Ne, Lt, Le, Gt, Ge, Hi, Ls, Cc, Cs, Mi, Pl, Vc, Vs] {
            for bits in 0u8..16 {
                let (n, z, v, cf) = (bits & 8 != 0, bits & 4 != 0, bits & 2 != 0, bits & 1 != 0);
                assert_eq!(c.eval(n, z, v, cf), !c.negate().eval(n, z, v, cf));
            }
        }
    }

    #[test]
    fn signed_comparisons() {
        // After `CMP src,dst` the flags reflect dst - src.
        // dst=5, src=3: result 2 -> n=0 z=0 v=0 c=0 -> Gt.
        assert!(Cond::Gt.eval(false, false, false, false));
        assert!(!Cond::Lt.eval(false, false, false, false));
        // dst=3, src=5: result -2 -> n=1 c=1 -> Lt, Cs.
        assert!(Cond::Lt.eval(true, false, false, true));
        assert!(Cond::Cs.eval(true, false, false, true));
    }
}

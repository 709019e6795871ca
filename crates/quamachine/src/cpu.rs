//! CPU register state and the status register.

/// Status-register bit positions (68000 layout).
pub mod sr_bits {
    /// Supervisor state.
    pub const S: u16 = 1 << 13;
    /// Interrupt-mask field shift (bits 8–10).
    pub const INT_SHIFT: u16 = 8;
    /// Extend flag.
    pub const X: u16 = 1 << 4;
    /// Negative flag.
    pub const N: u16 = 1 << 3;
    /// Zero flag.
    pub const Z: u16 = 1 << 2;
    /// Overflow flag.
    pub const V: u16 = 1 << 1;
    /// Carry flag.
    pub const C: u16 = 1 << 0;
    /// The condition-code register: all five flags.
    pub const CCR: u16 = X | N | Z | V | C;
}

/// The processor registers.
///
/// `a[7]` is always the *active* stack pointer; the inactive one (USP in
/// supervisor mode, SSP in user mode) is parked in `other_sp` and swapped
/// on mode changes.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Data registers `D0`–`D7`.
    pub d: [u32; 8],
    /// Address registers `A0`–`A7` (`A7` = active SP).
    pub a: [u32; 8],
    /// Floating-point registers `FP0`–`FP7` (MC68881 coprocessor).
    pub fp: [f64; 8],
    /// Program counter.
    pub pc: u32,
    /// Status register.
    pub sr: u16,
    /// Vector base register: address of the current vector table. Each
    /// Synthesis thread has its own vector table; the context switch
    /// loads the VBR (paper Section 4.2).
    pub vbr: u32,
    /// The parked stack pointer (see type docs).
    pub other_sp: u32,
    /// Whether the FPU is enabled. The Synthesis kernel disables it for
    /// threads that have never executed an FP instruction so their
    /// context switch can skip the FP registers; the first FP instruction
    /// raises [`crate::error::Exception::FpUnavailable`] and the kernel
    /// resynthesizes the switch code (paper Section 4.2). A `movec` to the
    /// VBR (a switch-in) disables it and an `fmovem` load (an FP
    /// switch-in's restore) enables it, so it follows the thread on the
    /// CPU.
    pub fpu_enabled: bool,
    /// `STOP` state: halted until an interrupt.
    pub stopped: bool,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new()
    }
}

impl Cpu {
    /// Reset state: supervisor mode, all interrupts masked below 7... no —
    /// mask 7 blocks everything but NMI; we start at mask 7 like a 68000
    /// after reset.
    #[must_use]
    pub fn new() -> Cpu {
        Cpu {
            d: [0; 8],
            a: [0; 8],
            fp: [0.0; 8],
            pc: 0,
            sr: sr_bits::S | (7 << sr_bits::INT_SHIFT),
            vbr: 0,
            other_sp: 0,
            fpu_enabled: false,
            stopped: false,
        }
    }

    /// Whether the CPU is in supervisor state.
    #[must_use]
    pub fn supervisor(&self) -> bool {
        self.sr & sr_bits::S != 0
    }

    /// The interrupt mask level (0–7).
    #[must_use]
    pub fn int_mask(&self) -> u8 {
        ((self.sr >> sr_bits::INT_SHIFT) & 7) as u8
    }

    /// Set the interrupt mask level.
    pub fn set_int_mask(&mut self, level: u8) {
        self.sr =
            (self.sr & !(7 << sr_bits::INT_SHIFT)) | (u16::from(level & 7) << sr_bits::INT_SHIFT);
    }

    /// Write the whole status register, swapping stacks if the S bit
    /// changes.
    pub fn write_sr(&mut self, new: u16) {
        let was_super = self.supervisor();
        self.sr = new;
        let now_super = self.supervisor();
        if was_super != now_super {
            std::mem::swap(&mut self.a[7], &mut self.other_sp);
        }
    }

    /// Flag accessors.
    #[must_use]
    pub fn flag_n(&self) -> bool {
        self.sr & sr_bits::N != 0
    }
    /// Zero flag.
    #[must_use]
    pub fn flag_z(&self) -> bool {
        self.sr & sr_bits::Z != 0
    }
    /// Overflow flag.
    #[must_use]
    pub fn flag_v(&self) -> bool {
        self.sr & sr_bits::V != 0
    }
    /// Carry flag.
    #[must_use]
    pub fn flag_c(&self) -> bool {
        self.sr & sr_bits::C != 0
    }
    /// Extend flag.
    #[must_use]
    pub fn flag_x(&self) -> bool {
        self.sr & sr_bits::X != 0
    }

    /// Set the NZVC flags (leaving X).
    #[inline]
    pub fn set_nzvc(&mut self, n: bool, z: bool, v: bool, c: bool) {
        use sr_bits::{C, N, V, Z};
        let bit = |on: bool, flag: u16| u16::from(on) * flag;
        self.sr = (self.sr & !(N | Z | V | C)) | bit(n, N) | bit(z, Z) | bit(v, V) | bit(c, C);
    }

    /// Set NZVC and copy C into X (for add/sub/shift).
    #[inline]
    pub fn set_nzvc_x(&mut self, n: bool, z: bool, v: bool, c: bool) {
        self.set_nzvc(n, z, v, c);
        self.sr = (self.sr & !sr_bits::X) | (u16::from(c) * sr_bits::X);
    }

    /// The user stack pointer, regardless of current mode.
    #[must_use]
    pub fn usp(&self) -> u32 {
        if self.supervisor() {
            self.other_sp
        } else {
            self.a[7]
        }
    }

    /// Set the user stack pointer, regardless of current mode.
    pub fn set_usp(&mut self, v: u32) {
        if self.supervisor() {
            self.other_sp = v;
        } else {
            self.a[7] = v;
        }
    }

    /// The supervisor stack pointer, regardless of current mode.
    #[must_use]
    pub fn ssp(&self) -> u32 {
        if self.supervisor() {
            self.a[7]
        } else {
            self.other_sp
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state_is_supervisor_masked() {
        let c = Cpu::new();
        assert!(c.supervisor());
        assert_eq!(c.int_mask(), 7);
        assert!(!c.fpu_enabled);
    }

    #[test]
    fn mode_switch_swaps_stacks() {
        let mut c = Cpu::new();
        c.a[7] = 0x8000; // SSP
        c.other_sp = 0x4000; // USP
                             // Drop to user mode.
        c.write_sr(0);
        assert!(!c.supervisor());
        assert_eq!(c.a[7], 0x4000);
        assert_eq!(c.other_sp, 0x8000);
        assert_eq!(c.usp(), 0x4000);
        assert_eq!(c.ssp(), 0x8000);
        // Back to supervisor.
        c.write_sr(sr_bits::S);
        assert_eq!(c.a[7], 0x8000);
        assert_eq!(c.usp(), 0x4000);
    }

    #[test]
    fn same_mode_sr_write_keeps_stack() {
        let mut c = Cpu::new();
        c.a[7] = 0x8000;
        c.write_sr(sr_bits::S | sr_bits::N);
        assert_eq!(c.a[7], 0x8000);
        assert!(c.flag_n());
    }

    #[test]
    fn int_mask_field() {
        let mut c = Cpu::new();
        c.set_int_mask(3);
        assert_eq!(c.int_mask(), 3);
        assert!(c.supervisor(), "mask change must not clobber S");
    }

    #[test]
    fn usp_accessors_in_user_mode() {
        let mut c = Cpu::new();
        c.a[7] = 0x8000;
        c.write_sr(0); // user mode; a7 is now USP (was other_sp = 0)
        c.set_usp(0x1234);
        assert_eq!(c.a[7], 0x1234);
        assert_eq!(c.usp(), 0x1234);
    }

    #[test]
    fn flag_setting() {
        let mut c = Cpu::new();
        c.set_nzvc(true, false, true, false);
        assert!(c.flag_n() && !c.flag_z() && c.flag_v() && !c.flag_c());
        c.set_nzvc_x(false, true, false, true);
        assert!(c.flag_x() && c.flag_c() && c.flag_z());
        c.set_nzvc(false, false, false, false);
        assert!(c.flag_x(), "plain NZVC update leaves X alone");
    }
}

//! Flat physical memory with quaspace protection windows.
//!
//! Synthesis has no virtual memory: all quaspaces (quasi address spaces)
//! are subspaces of the single CPU address space, and "the kernel blanks
//! out the part of the address space that each quaspace is not supposed to
//! see" (paper Section 2.1). We model that blanking as a set of *windows*:
//! in user mode an access is legal only if it falls inside a window of the
//! currently installed address map; supervisor mode sees all of memory.
//!
//! Memory is big-endian, like the 68020.

use crate::error::Exception;
use crate::isa::Size;

/// A contiguous accessible window of the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First byte address.
    pub base: u32,
    /// Length in bytes.
    pub len: u32,
    /// Whether user-mode writes are allowed (reads always are, within the
    /// window).
    pub writable: bool,
}

impl Window {
    /// Whether `[addr, addr+size)` lies entirely inside this window.
    #[must_use]
    #[inline]
    pub fn contains(&self, addr: u32, size: u32) -> bool {
        addr >= self.base
            && u64::from(addr) + u64::from(size) <= u64::from(self.base) + u64::from(self.len)
    }
}

/// An address map: the set of windows a quaspace may touch.
///
/// Each thread's TTE carries an address map; the context switch installs
/// it. An empty map means "no user access at all".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AddressMap {
    /// The accessible windows.
    pub windows: Vec<Window>,
    /// A label for the quaspace. Context-switch code skips reinstalling
    /// an *equal* map (`sw_in` vs `sw_in_mmu`, paper Figure 3); equality
    /// is of the whole map, so two maps may share a label.
    pub id: u32,
}

impl AddressMap {
    /// A map granting access to one read-write window.
    #[must_use]
    pub fn single(id: u32, base: u32, len: u32) -> AddressMap {
        AddressMap {
            windows: vec![Window {
                base,
                len,
                writable: true,
            }],
            id,
        }
    }

    /// Whether a user-mode access is allowed.
    #[must_use]
    #[inline]
    pub fn allows(&self, addr: u32, size: u32, write: bool) -> bool {
        self.windows
            .iter()
            .any(|w| w.contains(addr, size) && (!write || w.writable))
    }
}

/// Physical memory.
#[derive(Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    /// The currently installed user address map.
    pub map: AddressMap,
    /// Count of data memory references made through [`Memory::read`] /
    /// [`Memory::write`] (the Quamachine's memory-reference counter).
    pub ref_count: u64,
}

impl Memory {
    /// Create `size` bytes of zeroed memory (the real machine had 2.5 MB;
    /// tests typically use less).
    #[must_use]
    pub fn new(size: u32) -> Memory {
        Memory {
            bytes: vec![0; size as usize],
            map: AddressMap::default(),
            ref_count: 0,
        }
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    #[inline]
    fn check(&self, addr: u32, size: u32, write: bool, supervisor: bool) -> Result<(), Exception> {
        if u64::from(addr) + u64::from(size) > u64::from(self.size()) {
            return Err(Exception::BusError);
        }
        if !supervisor && !self.map.allows(addr, size, write) {
            return Err(Exception::BusError);
        }
        Ok(())
    }

    /// Whether `len` bytes from `addr` pass, as one span, the check every
    /// [`Memory::read`] (or, with `write`, [`Memory::write`]) within them
    /// makes: what lets a multi-long transfer check once.
    #[inline]
    pub(crate) fn span_ok(&self, addr: u32, len: u32, write: bool, supervisor: bool) -> bool {
        self.check(addr, len, write, supervisor).is_ok()
    }

    /// The `len` bytes from `addr` of a multi-long transfer that
    /// [`Memory::span_ok`] passed, counting one reference per long.
    #[inline]
    pub(crate) fn longs_mut(&mut self, addr: u32, len: u32) -> &mut [u8] {
        self.ref_count += u64::from(len / 4);
        &mut self.bytes[addr as usize..(addr + len) as usize]
    }

    /// Read a value. Counts one memory reference.
    #[inline(always)]
    pub fn read(&mut self, addr: u32, size: Size, supervisor: bool) -> Result<u32, Exception> {
        self.check(addr, size.bytes(), false, supervisor)?;
        self.ref_count += 1;
        Ok(self.peek(addr, size))
    }

    /// Write a value. Counts one memory reference.
    #[inline(always)]
    pub fn write(
        &mut self,
        addr: u32,
        size: Size,
        val: u32,
        supervisor: bool,
    ) -> Result<(), Exception> {
        self.check(addr, size.bytes(), true, supervisor)?;
        self.ref_count += 1;
        self.poke(addr, size, val);
        Ok(())
    }

    /// Read without permission checks or reference counting (for the
    /// embedder, DMA, and test assertions).
    #[must_use]
    #[inline]
    pub fn peek(&self, addr: u32, size: Size) -> u32 {
        let a = addr as usize;
        // One slice per access: one bounds check, one (byte-swapped) load.
        match size {
            Size::B => u32::from(self.bytes[a]),
            Size::W => u32::from(u16::from_be_bytes(
                self.bytes[a..a + 2].try_into().expect("a 2-byte slice"),
            )),
            Size::L => u32::from_be_bytes(self.bytes[a..a + 4].try_into().expect("a 4-byte slice")),
        }
    }

    /// Write without permission checks or reference counting.
    #[inline]
    pub fn poke(&mut self, addr: u32, size: Size, val: u32) {
        let a = addr as usize;
        match size {
            Size::B => self.bytes[a] = val as u8,
            Size::W => self.bytes[a..a + 2].copy_from_slice(&(val as u16).to_be_bytes()),
            Size::L => self.bytes[a..a + 4].copy_from_slice(&val.to_be_bytes()),
        }
    }

    /// Bulk copy host bytes into memory (for loaders and DMA).
    pub fn poke_bytes(&mut self, addr: u32, data: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// Bulk store: set `len` bytes from `addr` to `byte`.
    pub fn fill(&mut self, addr: u32, len: u32, byte: u8) {
        let a = addr as usize;
        self.bytes[a..a + len as usize].fill(byte);
    }

    /// Bulk read memory into a host buffer.
    #[must_use]
    pub fn peek_bytes(&self, addr: u32, len: u32) -> Vec<u8> {
        self.bytes[addr as usize..(addr + len) as usize].to_vec()
    }

    /// First address whose contents differ from `other`, or `None` if the
    /// two memories are byte-identical (differential-execution
    /// equivalence checking compares whole memories this way).
    #[must_use]
    pub fn first_diff(&self, other: &Memory) -> Option<u32> {
        if self.bytes == other.bytes {
            return None;
        }
        self.bytes
            .iter()
            .zip(&other.bytes)
            .position(|(a, b)| a != b)
            .map(|i| i as u32)
            .or(Some(self.bytes.len().min(other.bytes.len()) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_layout() {
        let mut m = Memory::new(0x100);
        m.poke(0x10, Size::L, 0x1234_5678);
        assert_eq!(m.peek(0x10, Size::B), 0x12);
        assert_eq!(m.peek(0x13, Size::B), 0x78);
        assert_eq!(m.peek(0x10, Size::W), 0x1234);
        assert_eq!(m.peek(0x12, Size::W), 0x5678);
    }

    #[test]
    fn supervisor_sees_everything() {
        let mut m = Memory::new(0x100);
        assert!(m.read(0x80, Size::L, true).is_ok());
        assert!(m.write(0x80, Size::L, 1, true).is_ok());
    }

    #[test]
    fn user_mode_is_blanked_without_windows() {
        let mut m = Memory::new(0x100);
        assert_eq!(m.read(0x80, Size::L, false), Err(Exception::BusError));
    }

    #[test]
    fn user_mode_window_access() {
        let mut m = Memory::new(0x1000);
        m.map = AddressMap::single(1, 0x100, 0x100);
        assert!(m.read(0x100, Size::L, false).is_ok());
        assert!(m.read(0x1FC, Size::L, false).is_ok());
        // Straddles the window end.
        assert_eq!(m.read(0x1FE, Size::L, false), Err(Exception::BusError));
        assert_eq!(m.read(0x80, Size::B, false), Err(Exception::BusError));
        assert!(m.write(0x100, Size::B, 7, false).is_ok());
    }

    #[test]
    fn read_only_window_rejects_writes() {
        let mut m = Memory::new(0x1000);
        m.map = AddressMap {
            windows: vec![Window {
                base: 0x100,
                len: 0x100,
                writable: false,
            }],
            id: 2,
        };
        assert!(m.read(0x100, Size::L, false).is_ok());
        assert_eq!(m.write(0x100, Size::L, 1, false), Err(Exception::BusError));
    }

    #[test]
    fn out_of_range_faults_even_in_supervisor() {
        let mut m = Memory::new(0x100);
        assert_eq!(m.read(0xFE, Size::L, true), Err(Exception::BusError));
        assert_eq!(m.read(0x4000, Size::B, true), Err(Exception::BusError));
    }

    #[test]
    fn ref_counting() {
        let mut m = Memory::new(0x100);
        let before = m.ref_count;
        m.read(0, Size::L, true).unwrap();
        m.write(0, Size::L, 5, true).unwrap();
        let _ = m.peek(0, Size::L); // peeks do not count
        assert_eq!(m.ref_count, before + 2);
    }
}

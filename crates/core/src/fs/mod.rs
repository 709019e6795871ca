//! The memory-resident file system.
//!
//! The paper's measured file system "is entirely memory-resident"
//! (Section 6.2); names are "hashed string names stored backwards"
//! (Section 6.3) — backwards because path names share long common
//! prefixes (`/usr/local/...`), so comparing from the end rejects
//! mismatches after one or two characters. About 60% of
//! `open(/dev/null)`'s 49 µs goes to this lookup and 40% to code
//! synthesis (Section 6.3).
//!
//! File *data* lives in simulated kernel memory so the synthesized `read`
//! and `write` routines copy real bytes under the cycle meter; the
//! directory structure is host-side, and lookups charge cycles per
//! character scanned ([`crate::charges::name_scan`]).

pub mod names;

use crate::alloc::FastFit;
use quamachine::isa::Size;
use quamachine::machine::Machine;

/// A file: a name, a cache buffer in kernel memory, and a length slot the
/// synthesized code updates in place.
#[derive(Debug)]
pub struct File {
    /// File id (index).
    pub fid: u32,
    /// The name (host mirror; the hash/compare cost is charged).
    pub name: String,
    /// Cache buffer base in kernel memory.
    pub buf: u32,
    /// Buffer capacity in bytes.
    pub cap: u32,
    /// Address of the length slot (a long the synthesized code reads and
    /// extends).
    pub len_slot: u32,
}

/// The file system.
#[derive(Debug, Default)]
pub struct Fs {
    files: Vec<File>,
}

impl Fs {
    /// An empty file system.
    #[must_use]
    pub fn new() -> Fs {
        Fs::default()
    }

    /// Create a file with a `cap`-byte cache buffer. Returns its id.
    ///
    /// # Errors
    ///
    /// Fails when the kernel heap cannot hold the buffer.
    pub fn create(
        &mut self,
        m: &mut Machine,
        heap: &mut FastFit,
        name: &str,
        cap: u32,
    ) -> Result<u32, crate::alloc::fastfit::OutOfMemory> {
        let buf = heap.alloc(cap)?;
        let len_slot = heap.alloc(4)?;
        m.mem.poke(len_slot, Size::L, 0);
        let fid = self.files.len() as u32;
        self.files.push(File {
            fid,
            name: name.to_string(),
            buf,
            cap,
            len_slot,
        });
        Ok(fid)
    }

    /// Look a name up, reporting `(file id, characters scanned)` — the
    /// scan count feeds the cycle charge. The comparison is
    /// backwards-from-the-end, so the scan count reflects how quickly
    /// mismatching names are rejected.
    #[must_use]
    pub fn lookup(&self, name: &str) -> (Option<u32>, u64) {
        // Hash the probe name (one full scan).
        let mut scanned = name.len() as u64;
        let probe_hash = names::hash_backwards(name.as_bytes());
        let mut found = None;
        for f in &self.files {
            // Hash compare first (the stored hash is free to read)...
            if names::hash_backwards(f.name.as_bytes()) != probe_hash {
                continue;
            }
            // ...then the backwards character compare.
            scanned += names::backwards_compare_scan(f.name.as_bytes(), name.as_bytes());
            if f.name == name {
                found = Some(f.fid);
                break;
            }
        }
        (found, scanned)
    }

    /// The file with id `fid`.
    #[must_use]
    pub fn file(&self, fid: u32) -> Option<&File> {
        self.files.get(fid as usize)
    }

    /// Write host bytes into a file's cache buffer (loader convenience).
    pub fn write_contents(&mut self, m: &mut Machine, fid: u32, data: &[u8]) {
        let f = &self.files[fid as usize];
        assert!(data.len() as u32 <= f.cap, "contents exceed capacity");
        m.mem.poke_bytes(f.buf, data);
        m.mem.poke(f.len_slot, Size::L, data.len() as u32);
    }

    /// Read a file's current contents out of the cache buffer.
    #[must_use]
    pub fn read_contents(&self, m: &Machine, fid: u32) -> Vec<u8> {
        let f = &self.files[fid as usize];
        let len = m.mem.peek(f.len_slot, Size::L).min(f.cap);
        m.mem.peek_bytes(f.buf, len)
    }

    /// Number of files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no files exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::machine::MachineConfig;

    fn setup() -> (Machine, FastFit, Fs) {
        let m = Machine::new(MachineConfig::sun3_emulation());
        let heap = FastFit::new(
            crate::layout::KERNEL_HEAP_BASE,
            crate::layout::KERNEL_HEAP_LEN,
        );
        (m, heap, Fs::new())
    }

    #[test]
    fn create_lookup_roundtrip() {
        let (mut m, mut heap, mut fs) = setup();
        let a = fs.create(&mut m, &mut heap, "/etc/passwd", 4096).unwrap();
        let b = fs.create(&mut m, &mut heap, "/etc/group", 4096).unwrap();
        assert_ne!(a, b);
        assert_eq!(fs.lookup("/etc/passwd").0, Some(a));
        assert_eq!(fs.lookup("/etc/group").0, Some(b));
        assert_eq!(fs.lookup("/etc/nothing").0, None);
    }

    #[test]
    fn contents_roundtrip_through_simulated_memory() {
        let (mut m, mut heap, mut fs) = setup();
        let fid = fs.create(&mut m, &mut heap, "f", 128).unwrap();
        fs.write_contents(&mut m, fid, b"hello synthesis");
        assert_eq!(fs.read_contents(&m, fid), b"hello synthesis");
    }

    #[test]
    fn scan_counts_reflect_backwards_rejection() {
        let (mut m, mut heap, mut fs) = setup();
        // Same length (so a length check cannot reject), same hash bucket
        // is not guaranteed, but the backwards compare must reject fast
        // when the *suffix* differs.
        fs.create(&mut m, &mut heap, "/usr/lib/thing.a", 64)
            .unwrap();
        let (_, scanned) = fs.lookup("/usr/lib/thing.b");
        // Probe hash scan (16) plus at most a couple of compare chars.
        assert!(scanned <= 16 + 4, "scanned {scanned}");
    }
}

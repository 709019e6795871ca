//! Construction of the baseline kernel: code blocks and kernel tables.

use quamachine::asm::Asm;
use quamachine::devices::tty::Tty;
use quamachine::devices::{dev_reg_addr, tty as tty_regs};
use quamachine::isa::{Cond, IndexSpec, Operand::*, RegList, ShiftKind, Size::*};
use quamachine::machine::{Machine, MachineConfig, RunExit};

use super::{ftype, layout as lay};
use crate::abi;
use synthesis_core::syscall::errno;

/// Fixed code-block addresses (each block gets a generous slot).
mod code {
    use super::lay::CODE;
    pub const ENTRY: u32 = CODE;
    pub const SYSRET: u32 = CODE + 0x0100;
    pub const BADCALL: u32 = CODE + 0x0200;
    pub const RET_EBADF: u32 = CODE + 0x0280;
    pub const PANIC: u32 = CODE + 0x0300;
    pub const NAMEI: u32 = CODE + 0x0400;
    pub const SYS_OPEN: u32 = CODE + 0x0800;
    pub const SYS_CLOSE: u32 = CODE + 0x0C00;
    pub const SYS_RW: u32 = CODE + 0x1000;
    pub const SYS_PIPE: u32 = CODE + 0x1800;
    pub const SYS_LSEEK: u32 = CODE + 0x1C00;
    pub const SYS_EXIT: u32 = CODE + 0x2000;
    pub const NULL_READ: u32 = CODE + 0x2200;
    pub const NULL_WRITE: u32 = CODE + 0x2280;
    pub const TTY_WRITE: u32 = CODE + 0x2380;
    pub const PIPE_READ: u32 = CODE + 0x2400;
    pub const PIPE_WRITE: u32 = CODE + 0x2600;
    pub const FILE_READ: u32 = CODE + 0x2800;
    pub const FILE_WRITE: u32 = CODE + 0x2A00;
    pub const USER: u32 = CODE + 0x3000;
}

/// Vnode-style operation tables: `OPS + type*8` → `[read, write]`.
const OPS: u32 = 0x2E00;

/// The host assist `sys_pipe` calls to allocate its two fds (see
/// [`Sunos::run`]).
const KCALL_PIPE_ASSIST: u16 = 0x50;

/// The baseline kernel.
pub struct Sunos {
    /// The machine (same model, same cost table as the Synthesis side).
    pub m: Machine,
    /// Inode addresses by name, for host-side setup.
    bench_inode: u32,
    user_loaded: bool,
}

impl Sunos {
    /// Boot the baseline: attach the tty, lay out the kernel tables and
    /// the directory tree, and load the kernel code.
    #[must_use]
    pub fn boot() -> Sunos {
        let cfg = MachineConfig {
            mem_size: synthesis_core::layout::MEM_SIZE,
            ..MachineConfig::sun3_emulation()
        };
        let mut m = Machine::new(cfg);
        let tty_idx = m.attach_device(Box::new(Tty::new(4)));
        let tty_data = dev_reg_addr(tty_idx, tty_regs::REG_DATA);

        let mut s = Sunos {
            m,
            bench_inode: 0,
            user_loaded: false,
        };
        s.build_tables(tty_data);
        s.load_code(tty_data);
        s
    }

    /// Load the benchmark program; returns its entry address.
    pub fn load_program(&mut self, program: Asm) -> u32 {
        assert!(!self.user_loaded, "one program per boot");
        self.user_loaded = true;
        let block = program.assemble().expect("program assembles");
        self.m
            .load_block(code::USER, block)
            .expect("user program fits")
    }

    /// Fill the benchmark file's contents.
    pub fn write_bench_file(&mut self, data: &[u8]) {
        assert!(data.len() <= 65536);
        self.m.mem.poke_bytes(lay::FILEDATA, data);
        self.m.mem.poke(self.bench_inode + 4, L, data.len() as u32);
    }

    /// Run the loaded program to completion (`exit` halts the machine).
    pub fn run_program(&mut self, entry: u32, max_cycles: u64) -> RunExit {
        self.m.cpu.pc = entry;
        self.m.cpu.a[7] = lay::KSTACK_TOP;
        self.run(max_cycles)
    }

    // --- Kernel tables -----------------------------------------------------

    fn build_tables(&mut self, _tty_data: u32) {
        let m = &mut self.m;
        // Vector table: everything panics except the UNIX trap.
        for vec in 0..64u32 {
            m.mem.poke(lay::VEC + 4 * vec, L, code::PANIC);
        }
        m.mem.poke(
            lay::VEC + 4 * (32 + u32::from(abi::UNIX_TRAP)),
            L,
            code::ENTRY,
        );

        // Jump table: bad call by default.
        for i in 0..64u32 {
            m.mem.poke(lay::JTAB + 4 * i, L, code::BADCALL);
        }
        m.mem.poke(lay::JTAB + 4 * abi::SYS_EXIT, L, code::SYS_EXIT);
        m.mem.poke(lay::JTAB + 4 * abi::SYS_READ, L, code::SYS_RW);
        // sys_write shares the entry; it distinguishes by d0 (see below) —
        // simpler: separate slot pointing at the same block with a mark is
        // not possible cross-block, so write gets SYS_RW too and the block
        // branches on d0.
        m.mem.poke(lay::JTAB + 4 * abi::SYS_WRITE, L, code::SYS_RW);
        m.mem.poke(lay::JTAB + 4 * abi::SYS_OPEN, L, code::SYS_OPEN);
        m.mem
            .poke(lay::JTAB + 4 * abi::SYS_CREAT, L, code::SYS_OPEN);
        m.mem
            .poke(lay::JTAB + 4 * abi::SYS_CLOSE, L, code::SYS_CLOSE);
        m.mem
            .poke(lay::JTAB + 4 * abi::SYS_LSEEK, L, code::SYS_LSEEK);
        m.mem.poke(lay::JTAB + 4 * abi::SYS_PIPE, L, code::SYS_PIPE);

        // Pipe pool: 4 descriptors, buffers in PIPEBUF.
        for p in 0..4u32 {
            let d = lay::PIPES + p * 32;
            for off in (0..32).step_by(4) {
                m.mem.poke(d + off, L, 0);
            }
            m.mem.poke(d + 16, L, lay::PIPEBUF + p * lay::PIPE_SIZE);
        }

        // Directory tree and inodes.
        let mut cursor = lay::DIRS;
        let alloc_inode = |m: &mut Machine, cursor: &mut u32, ty: u32, size: u32, data: u32| {
            let a = *cursor;
            *cursor += 16;
            m.mem.poke(a, L, ty);
            m.mem.poke(a + 4, L, size);
            m.mem.poke(a + 8, L, data);
            m.mem.poke(a + 12, L, 0);
            a
        };
        let dummy = alloc_inode(m, &mut cursor, 0, 0, 0);
        let null_ino = alloc_inode(m, &mut cursor, ftype::NULL, 0, 0);
        let tty_ino = alloc_inode(m, &mut cursor, ftype::TTY, 0, 0);
        let bench_ino = alloc_inode(m, &mut cursor, ftype::FILE, 65536, lay::FILEDATA);
        self.bench_inode = bench_ino;

        let build_dir = |m: &mut Machine, cursor: &mut u32, entries: &[(&str, u32)]| -> u32 {
            let a = *cursor;
            m.mem.poke(a, L, entries.len() as u32);
            let mut e = a + 4;
            for (name, value) in entries {
                assert!(name.len() < 12);
                let mut buf = [0u8; 12];
                buf[..name.len()].copy_from_slice(name.as_bytes());
                m.mem.poke_bytes(e, &buf);
                m.mem.poke(e + 12, L, *value);
                e += 16;
            }
            *cursor = e;
            a
        };

        // /dev: twenty-two entries; null and tty near the end, like a
        // real /dev where the scan earns its keep.
        let dev_names = [
            "console", "cua0", "drum", "fb", "fd0", "kbd", "kmem", "mem", "mouse", "mt0", "nd0",
            "ptyp0", "ptyp1", "rsd0", "sd0", "sd1", "st0", "vme", "win0", "zero",
        ];
        let mut dev_entries: Vec<(&str, u32)> = dev_names.iter().map(|n| (*n, dummy)).collect();
        dev_entries.push(("null", null_ino));
        dev_entries.push(("tty", tty_ino));
        let dev_dir = build_dir(m, &mut cursor, &dev_entries);

        // /tmp with the benchmark file.
        let tmp_dir = build_dir(
            m,
            &mut cursor,
            &[
                (".x11", dummy),
                ("lock", dummy),
                ("spool", dummy),
                ("bench", bench_ino),
            ],
        );

        // The root: dev and tmp are late entries.
        let root_entries: Vec<(&str, u32)> = vec![
            ("bin", dummy),
            ("etc", dummy),
            ("lib", dummy),
            ("mnt", dummy),
            ("sbin", dummy),
            ("sys", dummy),
            ("unix", dummy),
            ("usr", dummy),
            ("var", dummy),
            ("tmp", tmp_dir),
            ("dev", dev_dir),
        ];
        let root = build_dir(m, &mut cursor, &root_entries);
        // namei finds the root at a fixed slot.
        m.mem.poke(lay::NAMEBUF - 4, L, root);

        // Vnode ops tables. A tty read returns 0, as a /dev/null read
        // does: the one routine serves both.
        let ops = [
            (ftype::NULL, code::NULL_READ, code::NULL_WRITE),
            (ftype::TTY, code::NULL_READ, code::TTY_WRITE),
            (ftype::FILE, code::FILE_READ, code::FILE_WRITE),
            (ftype::PIPE_R, code::PIPE_READ, code::RET_EBADF),
            (ftype::PIPE_W, code::RET_EBADF, code::PIPE_WRITE),
        ];
        for (ty, r, w) in ops {
            m.mem.poke(OPS + ty * 8, L, r);
            m.mem.poke(OPS + ty * 8 + 4, L, w);
        }

        // The buffer cache: all 128 blocks of the benchmark file cached,
        // hash-chained two deep per bucket.
        for i in 0..128u32 {
            let e = lay::CACHE + i * 16;
            m.mem.poke(e, L, i); // blkno
            m.mem.poke(e + 4, L, bench_ino);
            m.mem.poke(e + 8, L, lay::FILEDATA + 512 * i);
            m.mem.poke(e + 12, L, 0); // next
        }
        for h in 0..64u32 {
            let first = lay::CACHE + h * 16;
            let second = lay::CACHE + (h + 64) * 16;
            m.mem.poke(lay::HASHTAB + 4 * h, L, first);
            m.mem.poke(first + 12, L, second);
        }
    }

    // --- Kernel code ---------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn load_code(&mut self, tty_data: u32) {
        let m = &mut self.m;
        let load = |m: &mut Machine, base: u32, a: Asm| {
            let block = a.assemble().expect("kernel block assembles");
            m.load_block(base, block).expect("kernel block fits");
        };

        // --- entry: the generic syscall prologue -------------------------
        {
            let mut a = Asm::new("u_entry");
            let bad = a.label();
            // The complete save, every call.
            a.movem_save(RegList::ALL_BUT_SP, PreDec(7));
            a.link(6, -16);
            // Fetch and validate the argument words into u.u_arg, the way
            // syscall() copied them in from user space: per argument a
            // range check and two memory accesses.
            a.move_i(L, 4, Dr(3));
            a.lea(Abs(lay::NAMEBUF + 16), 1); // u.u_arg
            let argloop = a.here();
            a.move_(L, Disp(-16, 6), Dr(4)); // read an "argument word"
            a.cmp(L, Imm(0xFFFF_0000), Dr(4)); // range check
            a.move_(L, Dr(4), PostInc(1));
            a.sub(L, Imm(1), Dr(3));
            a.bcc(Cond::Ne, argloop);
            a.cmp(L, Imm(64), Dr(0));
            a.bcc(Cond::Cc, bad);
            a.lea(Abs(lay::JTAB), 1);
            a.move_(L, Idx(0, 1, IndexSpec::d(0, 4)), Ar(1));
            a.jmp(Ind(1));
            a.bind(bad);
            a.move_i(L, (-22i32) as u32, Dr(0)); // EINVAL
            a.jmp(Abs(code::SYSRET));
            load(m, code::ENTRY, a);
        }

        // --- sysret: epilogue, result in d0 -------------------------------
        {
            let mut a = Asm::new("u_sysret");
            a.unlk(6);
            a.move_(L, Dr(0), Ind(7)); // overwrite the saved d0
            a.movem_load(PostInc(7), RegList::ALL_BUT_SP);
            a.rte();
            load(m, code::SYSRET, a);
        }

        // --- badcall -------------------------------------------------------
        {
            let mut a = Asm::new("u_badcall");
            a.move_i(L, (-22i32) as u32, Dr(0));
            a.jmp(Abs(code::SYSRET));
            load(m, code::BADCALL, a);
        }

        // --- ret_ebadf (vnode fn) -------------------------------------------
        {
            let mut a = Asm::new("u_ret_ebadf");
            a.move_i(L, (-9i32) as u32, Dr(0));
            a.rts();
            load(m, code::RET_EBADF, a);
        }

        // --- panic -----------------------------------------------------------
        {
            let mut a = Asm::new("u_panic");
            a.move_i(L, 0xDEAD, Dr(7));
            a.halt();
            load(m, code::PANIC, a);
        }

        // --- namei: a0 = path; returns inode in d0 (0 on failure) ------------
        {
            let mut a = Asm::new("u_namei");
            let next_component = a.label();
            let skipslash_done = a.label();
            let copyc = a.label();
            let comp_done = a.label();
            let scan_entry = a.label();
            let strcmp = a.label();
            let mismatch = a.label();
            let matched = a.label();
            let fail = a.label();
            let got_inode = a.label();
            // a3 = root dir (fetched from the rooted slot, like u.u_rdir).
            a.move_(L, Abs(lay::NAMEBUF - 4), Ar(3));
            a.bind(next_component);
            // Skip slashes.
            let skipslash = a.here();
            a.move_i(L, 0, Dr(0));
            a.move_(B, Ind(0), Dr(0));
            a.cmp(L, Imm(u32::from(b'/')), Dr(0));
            a.bcc(Cond::Ne, skipslash_done);
            a.add(L, Imm(1), Ar(0));
            a.bra(skipslash);
            a.bind(skipslash_done);
            a.tst(L, Dr(0));
            a.bcc(Cond::Eq, fail); // trailing slash / empty
                                   // Copy the component into NAMEBUF (copyinstr, byte by byte).
            a.lea(Abs(lay::NAMEBUF), 1);
            a.bind(copyc);
            a.move_i(L, 0, Dr(0));
            a.move_(B, Ind(0), Dr(0));
            a.tst(L, Dr(0));
            a.bcc(Cond::Eq, comp_done);
            a.cmp(L, Imm(u32::from(b'/')), Dr(0));
            a.bcc(Cond::Eq, comp_done);
            a.move_(B, Dr(0), PostInc(1));
            a.add(L, Imm(1), Ar(0));
            a.bra(copyc);
            a.bind(comp_done);
            a.move_i(B, 0, Ind(1)); // terminate
                                    // bread(): the directory is read through the buffer cache —
                                    // hash the "block", walk a chain, touch each buffer header.
            let bdone = a.label();
            a.move_(L, Ar(3), Dr(0));
            a.shift(ShiftKind::Lsr, L, Imm(4), Dr(0));
            a.and(L, Imm(63), Dr(0));
            a.lea(Abs(lay::HASHTAB), 4);
            a.move_(L, Idx(0, 4, IndexSpec::d(0, 4)), Ar(4));
            a.move_i(L, 2, Dr(1));
            let bwalk = a.here();
            a.cmp(L, Imm(0), Ar(4));
            a.bcc(Cond::Eq, bdone);
            a.tst(L, Ind(4));
            a.move_(L, Disp(12, 4), Ar(4));
            a.sub(L, Imm(1), Dr(1));
            a.bcc(Cond::Ne, bwalk);
            a.bind(bdone);
            // iget(): look the directory's inode up in the inode hash,
            // walking a chain and taking/dropping its lock.
            a.move_i(L, 12, Dr(1));
            let iwalk = a.here();
            a.move_(L, Abs(lay::HASHTAB), Dr(0)); // chain header
            a.move_(L, Abs(lay::HASHTAB + 4), Dr(0)); // i_number compare load
            a.cmp(L, Imm(7), Dr(0));
            a.sub(L, Imm(1), Dr(1));
            a.bcc(Cond::Ne, iwalk);
            // ilock/iunlock bookkeeping stores.
            a.move_i(L, 1, Abs(lay::NAMEBUF + 48));
            a.move_i(L, 0, Abs(lay::NAMEBUF + 48));
            // Scan the directory.
            a.move_(L, Ind(3), Dr(5)); // entry count
            a.lea(Disp(4, 3), 2); // first entry
            a.bind(scan_entry);
            a.tst(L, Dr(5));
            a.bcc(Cond::Eq, fail);
            // Per-entry dirent processing: record-length and name-length
            // checks, u.u_offset maintenance, and the entry-valid test —
            // the per-entry overhead of 4.2BSD directory scanning.
            a.move_(L, Ar(2), Abs(lay::NAMEBUF + 40));
            a.add(L, Imm(16), Abs(lay::NAMEBUF + 44));
            a.move_(L, Disp(12, 2), Dr(0)); // d_ino valid?
            a.tst(L, Dr(0));
            a.move_i(L, 16, Dr(1)); // d_reclen plausibility
            a.cmp(L, Imm(8), Dr(1));
            a.move_(L, Abs(lay::NAMEBUF + 44), Dr(0)); // offset bound
            a.cmp(L, Imm(0x4000), Dr(0));
            a.lea(Abs(lay::NAMEBUF), 1);
            a.move_(L, Ar(2), Ar(4));
            a.bind(strcmp);
            a.move_i(L, 0, Dr(0));
            a.move_i(L, 0, Dr(1));
            a.move_(B, PostInc(1), Dr(0));
            a.move_(B, PostInc(4), Dr(1));
            a.cmp(L, Dr(1), Dr(0));
            a.bcc(Cond::Ne, mismatch);
            a.tst(L, Dr(0));
            a.bcc(Cond::Eq, matched);
            a.bra(strcmp);
            a.bind(mismatch);
            a.add(L, Imm(16), Ar(2));
            a.sub(L, Imm(1), Dr(5));
            a.bra(scan_entry);
            a.bind(matched);
            a.move_(L, Disp(12, 2), Dr(3)); // the entry's value
                                            // More components?
            a.move_i(L, 0, Dr(0));
            a.move_(B, Ind(0), Dr(0));
            a.cmp(L, Imm(u32::from(b'/')), Dr(0));
            a.bcc(Cond::Ne, got_inode);
            a.move_(L, Dr(3), Ar(3)); // descend into the subdirectory
            a.bra(next_component);
            a.bind(got_inode);
            a.move_(L, Dr(3), Dr(0));
            a.rts();
            a.bind(fail);
            a.move_i(L, 0, Dr(0));
            a.rts();
            load(m, code::NAMEI, a);
        }

        // --- sys_open ---------------------------------------------------------
        {
            let mut a = Asm::new("u_sys_open");
            let fscan = a.label();
            let ffound = a.label();
            let fdscan = a.label();
            let fdfound = a.label();
            let fail_noent = a.label();
            let fail_nfile = a.label();
            a.jsr(Abs(code::NAMEI));
            a.tst(L, Dr(0));
            a.bcc(Cond::Eq, fail_noent);
            a.move_(L, Dr(0), Ar(4)); // inode
                                      // falloc: linear scan of the file table.
            a.lea(Abs(lay::FTAB), 2);
            a.move_i(L, lay::FTAB_N, Dr(5));
            a.bind(fscan);
            a.tst(L, Dr(5));
            a.bcc(Cond::Eq, fail_nfile);
            a.tst(L, Ind(2));
            a.bcc(Cond::Eq, ffound);
            a.add(L, Imm(lay::FTAB_ENT), Ar(2));
            a.sub(L, Imm(1), Dr(5));
            a.bra(fscan);
            a.bind(ffound);
            // ufalloc: linear scan of the fd table.
            a.lea(Abs(lay::FDTAB), 3);
            a.move_i(L, 0, Dr(4));
            a.bind(fdscan);
            a.cmp(L, Imm(16), Dr(4));
            a.bcc(Cond::Eq, fail_nfile);
            a.tst(L, Idx(0, 3, IndexSpec::d(4, 4)));
            a.bcc(Cond::Eq, fdfound);
            a.add(L, Imm(1), Dr(4));
            a.bra(fdscan);
            a.bind(fdfound);
            // Initialize the file entry from the inode.
            a.move_i(L, 1, Ind(2)); // in_use
            a.move_(L, Ind(4), Dr(0)); // inode type
            a.move_(L, Dr(0), Disp(4, 2));
            a.move_i(L, 0, Disp(8, 2)); // offset
            a.move_(L, Ar(4), Disp(12, 2)); // obj = inode
            a.move_(L, Dr(0), Dr(1));
            a.shift(ShiftKind::Lsl, L, Imm(3), Dr(1));
            a.add(L, Imm(OPS), Dr(1));
            a.move_(L, Dr(1), Disp(16, 2)); // ops
            a.move_i(L, 1, Disp(20, 2)); // refcount
                                         // vn_open: VOP_ACCESS permission groups, open-mode checks,
                                         // and audit bookkeeping.
            a.move_i(L, 3, Dr(1));
            let perm = a.here();
            a.move_(L, Ind(4), Dr(0)); // i_mode load
            a.and(L, Imm(7), Dr(0));
            a.cmp(L, Imm(4), Dr(0));
            a.sub(L, Imm(1), Dr(1));
            a.bcc(Cond::Ne, perm);
            a.move_i(L, 16, Dr(1));
            let audit = a.here();
            a.move_(L, Abs(lay::NAMEBUF + 48), Dr(0));
            a.sub(L, Imm(1), Dr(1));
            a.bcc(Cond::Ne, audit);
            // "Update the access time" (two bookkeeping stores).
            a.move_i(L, 1, Disp(12, 4));
            a.move_(L, Dr(4), Idx(0, 3, IndexSpec::d(4, 4))); // placeholder
            a.move_(L, Ar(2), Idx(0, 3, IndexSpec::d(4, 4))); // fdtab[fd] = entry
            a.move_(L, Dr(4), Dr(0)); // return fd
            a.jmp(Abs(code::SYSRET));
            a.bind(fail_noent);
            a.move_i(L, (-2i32) as u32, Dr(0));
            a.jmp(Abs(code::SYSRET));
            a.bind(fail_nfile);
            a.move_i(L, (-23i32) as u32, Dr(0));
            a.jmp(Abs(code::SYSRET));
            load(m, code::SYS_OPEN, a);
        }

        // --- sys_close ----------------------------------------------------------
        {
            let mut a = Asm::new("u_sys_close");
            let bad = a.label();
            let pipe_end = a.label();
            let release = a.label();
            a.cmp(L, Imm(16), Dr(1));
            a.bcc(Cond::Cc, bad);
            a.lea(Abs(lay::FDTAB), 1);
            a.move_(L, Idx(0, 1, IndexSpec::d(1, 4)), Ar(2));
            a.cmp(L, Imm(0), Ar(2));
            a.bcc(Cond::Eq, bad);
            // A pipe end (the two highest file types) also drops its
            // descriptor's count of open ends: the last close frees it.
            a.cmp(L, Imm(ftype::PIPE_R), Disp(4, 2));
            a.bcc(Cond::Cc, pipe_end);
            a.bind(release);
            // closef() -> vno_close -> vrele: walk the release chain.
            a.move_i(L, 8, Dr(3));
            let audit = a.here();
            a.move_(L, Disp(12, 2), Dr(0));
            a.tst(L, Dr(0));
            a.sub(L, Imm(1), Dr(3));
            a.bcc(Cond::Ne, audit);
            // Release: refcount--, clear the entry and the fd slot, plus
            // vnode-release bookkeeping stores.
            a.sub(L, Imm(1), Disp(20, 2));
            a.move_i(L, 0, Ind(2)); // in_use = 0
            a.move_i(L, 0, Disp(4, 2));
            a.move_i(L, 0, Disp(12, 2));
            a.move_i(L, 0, Disp(16, 2));
            a.move_i(L, 0, Idx(0, 1, IndexSpec::d(1, 4)));
            a.move_i(L, 0, Dr(0));
            a.jmp(Abs(code::SYSRET));
            a.bind(pipe_end);
            a.move_(L, Disp(12, 2), Ar(3));
            a.sub(L, Imm(1), Disp(20, 3)); // the descriptor's open ends
            a.bra(release);
            a.bind(bad);
            a.move_i(L, (-9i32) as u32, Dr(0));
            a.jmp(Abs(code::SYSRET));
            load(m, code::SYS_CLOSE, a);
        }

        // --- sys_read / sys_write (shared getf + vnode dispatch) -----------------
        {
            let mut a = Asm::new("u_sys_rw");
            let bad = a.label();
            let efault = a.label();
            let is_write = a.label();
            let dispatch = a.label();
            a.cmp(L, Imm(16), Dr(1));
            a.bcc(Cond::Cc, bad);
            a.lea(Abs(lay::FDTAB), 1);
            a.move_(L, Idx(0, 1, IndexSpec::d(1, 4)), Ar(2));
            a.cmp(L, Imm(0), Ar(2));
            a.bcc(Cond::Eq, bad);
            // useracc: the buffer must lie in the user region.
            a.cmp(L, Imm(synthesis_core::layout::USER_BASE), Ar(0));
            a.bcc(Cond::Cs, efault);
            // Build the uio descriptor on the stack (generality overhead).
            a.move_(L, Ar(0), PreDec(7));
            a.move_(L, Dr(2), PreDec(7));
            a.move_(L, Dr(1), PreDec(7));
            a.move_i(L, 0, PreDec(7));
            // Dispatch through the vnode ops table.
            a.move_(L, Disp(16, 2), Ar(1));
            a.cmp(L, Imm(abi::SYS_WRITE), Dr(0));
            a.bcc(Cond::Eq, is_write);
            a.move_(L, Ind(1), Ar(1)); // ops->read
            a.bra(dispatch);
            a.bind(is_write);
            a.move_(L, Disp(4, 1), Ar(1)); // ops->write
            a.bind(dispatch);
            a.jsr(Ind(1));
            a.lea(Disp(16, 7), 7); // pop the uio
            a.jmp(Abs(code::SYSRET));
            a.bind(bad);
            a.move_i(L, (-9i32) as u32, Dr(0));
            a.jmp(Abs(code::SYSRET));
            a.bind(efault);
            a.move_i(L, (-14i32) as u32, Dr(0));
            a.jmp(Abs(code::SYSRET));
            load(m, code::SYS_RW, a);
        }

        // --- sys_pipe --------------------------------------------------------------
        {
            let mut a = Asm::new("u_sys_pipe");
            let pscan = a.label();
            let pfound = a.label();
            let fail = a.label();
            // Find a free pipe descriptor.
            a.lea(Abs(lay::PIPES), 2);
            a.move_i(L, 4, Dr(5));
            a.bind(pscan);
            a.tst(L, Dr(5));
            a.bcc(Cond::Eq, fail);
            a.tst(L, Disp(20, 2));
            a.bcc(Cond::Eq, pfound);
            a.add(L, Imm(32), Ar(2));
            a.sub(L, Imm(1), Dr(5));
            a.bra(pscan);
            a.bind(pfound);
            a.move_i(L, 2, Disp(20, 2)); // in use: both ends open
            a.move_i(L, 0, Disp(4, 2)); // ridx
            a.move_i(L, 0, Disp(8, 2)); // widx
            a.move_i(L, 0, Disp(12, 2)); // count
                                         // Two file entries + two fds; the host sets the jump-table up
                                         // so this path is exercised rarely — allocation is done with
                                         // the same scans as open, inlined for the two ends.
            a.kcall(KCALL_PIPE_ASSIST); // allocate the two fds (see below)
            a.jmp(Abs(code::SYSRET));
            a.bind(fail);
            a.move_i(L, (-23i32) as u32, Dr(0));
            a.jmp(Abs(code::SYSRET));
            load(m, code::SYS_PIPE, a);
        }

        // --- sys_lseek ---------------------------------------------------------------
        {
            let mut a = Asm::new("u_sys_lseek");
            let bad = a.label();
            a.cmp(L, Imm(16), Dr(1));
            a.bcc(Cond::Cc, bad);
            a.lea(Abs(lay::FDTAB), 1);
            a.move_(L, Idx(0, 1, IndexSpec::d(1, 4)), Ar(2));
            a.cmp(L, Imm(0), Ar(2));
            a.bcc(Cond::Eq, bad);
            a.move_(L, Dr(2), Disp(8, 2)); // offset = d2
            a.move_(L, Dr(2), Dr(0));
            a.jmp(Abs(code::SYSRET));
            a.bind(bad);
            a.move_i(L, (-9i32) as u32, Dr(0));
            a.jmp(Abs(code::SYSRET));
            load(m, code::SYS_LSEEK, a);
        }

        // --- sys_exit ----------------------------------------------------------------------
        {
            let mut a = Asm::new("u_sys_exit");
            a.halt();
            load(m, code::SYS_EXIT, a);
        }

        // --- vnode functions: called with a2 = file entry, a0 = buf, d2 = count.
        {
            let mut a = Asm::new("u_null_read");
            a.move_i(L, 0, Dr(0));
            a.rts();
            load(m, code::NULL_READ, a);
            let mut a = Asm::new("u_null_write");
            a.move_(L, Dr(2), Dr(0));
            a.rts();
            load(m, code::NULL_WRITE, a);
        }
        {
            // tty write: canonical output processing, one byte at a time.
            let mut a = Asm::new("u_tty_write");
            let done = a.label();
            a.move_(L, Dr(2), Dr(0));
            a.move_(L, Dr(2), Dr(5));
            let top = a.here();
            a.tst(L, Dr(5));
            a.bcc(Cond::Eq, done);
            a.move_i(L, 0, Dr(1));
            a.move_(B, PostInc(0), Dr(1));
            a.cmp(L, Imm(10), Dr(1)); // NL -> CRLF processing check
            a.move_(L, Dr(1), Abs(tty_data));
            a.sub(L, Imm(1), Dr(5));
            a.bra(top);
            a.bind(done);
            a.rts();
            load(m, code::TTY_WRITE, a);
        }

        // --- pipe read/write: locked, byte-at-a-time ------------------------------
        {
            let mut a = Asm::new("u_pipe_write");
            let done = a.label();
            // rdwri()/uio setup: 4.3BSD pipes lived on the file system,
            // so every call built a uio, locked the inode, and ran bmap
            // through the buffer cache before touching a byte.
            a.move_(L, Ar(0), Abs(lay::NAMEBUF + 52));
            a.move_(L, Dr(2), Abs(lay::NAMEBUF + 56));
            a.move_i(L, 0, Abs(lay::NAMEBUF + 60));
            a.move_i(L, 0, Abs(lay::NAMEBUF + 64));
            a.move_i(L, 8, Dr(4));
            let bmap = a.here();
            a.move_(L, Abs(lay::HASHTAB), Dr(0));
            a.tst(L, Dr(0));
            a.sub(L, Imm(1), Dr(4));
            a.bcc(Cond::Ne, bmap);
            a.move_(L, Disp(12, 2), Ar(3)); // pipe "inode"
            let lock = a.here();
            a.tas(Ind(3));
            a.bcc(Cond::Mi, lock);
            // V7-style pipe: append at the write offset (the pipe is a
            // small file; offsets reset when the reader drains it).
            a.move_(L, Disp(8, 3), Dr(7)); // woff
            a.move_i(L, lay::PIPE_SIZE, Dr(1));
            a.sub(L, Dr(7), Dr(1)); // space
            a.move_(L, Dr(2), Dr(6)); // n = count
            a.cmp(L, Dr(1), Dr(6));
            let fits = a.label();
            a.bcc(Cond::Ls, fits);
            a.move_(L, Dr(1), Dr(6)); // clamp (short write when "full")
            a.bind(fits);
            a.move_(L, Disp(16, 3), Ar(4));
            a.add(L, Dr(7), Ar(4)); // dst = buf + woff
                                    // uiomove: byte loop.
            a.move_(L, Dr(6), Dr(5));
            a.tst(L, Dr(5));
            a.bcc(Cond::Eq, done);
            a.sub(L, Imm(1), Dr(5));
            let copy = a.here();
            a.move_(B, PostInc(0), PostInc(4));
            a.dbf(5, copy);
            a.bind(done);
            a.add(L, Dr(6), Dr(7));
            a.move_(L, Dr(7), Disp(8, 3)); // woff += n
                                           // Inode timestamp update (IUPD|ICHG) before releasing.
            a.move_i(L, 1, Abs(lay::NAMEBUF + 68));
            a.move_i(L, 1, Abs(lay::NAMEBUF + 72));
            a.move_i(B, 0, Ind(3)); // unlock
                                    // wakeup(): scan the proc table for sleepers on this pipe —
                                    // checking p_wchan and p_stat per entry — and again for
                                    // select() waiters (selwakeup), as the 4.3BSD pipe code did.
            for _ in 0..2 {
                a.lea(Abs(lay::PROC), 4);
                a.move_i(L, lay::PROC_N, Dr(0));
                let wk = a.here();
                a.tst(L, Ind(4)); // p_wchan
                a.tst(L, Disp(4, 4)); // p_stat
                a.cmp(L, Imm(3), Dr(0)); // SSLEEP comparison stand-in
                a.add(L, Imm(32), Ar(4));
                a.sub(L, Imm(1), Dr(0));
                a.bcc(Cond::Ne, wk);
            }
            a.move_(L, Dr(6), Dr(0)); // bytes written
            a.rts();
            load(m, code::PIPE_WRITE, a);
        }
        {
            let mut a = Asm::new("u_pipe_read");
            let done = a.label();
            a.move_(L, Ar(0), Abs(lay::NAMEBUF + 52));
            a.move_(L, Dr(2), Abs(lay::NAMEBUF + 56));
            a.move_i(L, 0, Abs(lay::NAMEBUF + 60));
            a.move_i(L, 0, Abs(lay::NAMEBUF + 64));
            a.move_i(L, 8, Dr(4));
            let bmap = a.here();
            a.move_(L, Abs(lay::HASHTAB), Dr(0));
            a.tst(L, Dr(0));
            a.sub(L, Imm(1), Dr(4));
            a.bcc(Cond::Ne, bmap);
            a.move_(L, Disp(12, 2), Ar(3));
            let lock = a.here();
            a.tas(Ind(3));
            a.bcc(Cond::Mi, lock);
            // Available = woff - roff; n = min(count, available).
            a.move_(L, Disp(8, 3), Dr(1)); // woff
            a.move_(L, Disp(4, 3), Dr(7)); // roff
            a.sub(L, Dr(7), Dr(1)); // available
            a.move_(L, Dr(2), Dr(6));
            a.cmp(L, Dr(1), Dr(6));
            let sized = a.label();
            a.bcc(Cond::Ls, sized);
            a.move_(L, Dr(1), Dr(6));
            a.bind(sized);
            a.move_(L, Disp(16, 3), Ar(4));
            a.add(L, Dr(7), Ar(4)); // src = buf + roff
            a.move_(L, Dr(6), Dr(5));
            a.tst(L, Dr(5));
            a.bcc(Cond::Eq, done);
            a.sub(L, Imm(1), Dr(5));
            let copy = a.here();
            a.move_(B, PostInc(4), PostInc(0));
            a.dbf(5, copy);
            a.bind(done);
            a.add(L, Dr(6), Dr(7));
            a.move_(L, Dr(7), Disp(4, 3)); // roff += n
                                           // Drained? Reset both offsets, like the classic pipe did.
            let noreset = a.label();
            a.cmp(L, Disp(8, 3), Dr(7));
            a.bcc(Cond::Ne, noreset);
            a.move_i(L, 0, Disp(4, 3));
            a.move_i(L, 0, Disp(8, 3));
            a.bind(noreset);
            // Inode access-time update before releasing.
            a.move_i(L, 1, Abs(lay::NAMEBUF + 68));
            a.move_i(L, 1, Abs(lay::NAMEBUF + 72));
            a.move_i(B, 0, Ind(3));
            // wakeup() writers, then selwakeup(), with per-entry p_wchan
            // and p_stat checks.
            for _ in 0..2 {
                a.lea(Abs(lay::PROC), 4);
                a.move_i(L, lay::PROC_N, Dr(0));
                let wk = a.here();
                a.tst(L, Ind(4));
                a.tst(L, Disp(4, 4));
                a.cmp(L, Imm(3), Dr(0));
                a.add(L, Imm(32), Ar(4));
                a.sub(L, Imm(1), Dr(0));
                a.bcc(Cond::Ne, wk);
            }
            a.move_(L, Dr(6), Dr(0));
            a.rts();
            load(m, code::PIPE_READ, a);
        }

        // --- file read/write: buffer-cache walk per block, byte copies ----------
        for write in [false, true] {
            let mut a = Asm::new(if write { "u_file_write" } else { "u_file_read" });
            let ok = a.label();
            let loop_top = a.label();
            let fdone = a.label();
            let chain = a.label();
            let hit = a.label();
            let use_d1 = a.label();
            let byte = a.label();
            a.move_(L, Disp(8, 2), Dr(3)); // offset
            a.move_(L, Disp(12, 2), Ar(3)); // inode
            if write {
                // Clamp to the file's maximum extent (the data area).
                a.move_i(L, 65536, Dr(0));
            } else {
                a.move_(L, Disp(4, 3), Dr(0)); // size
            }
            a.sub(L, Dr(3), Dr(0)); // remaining
            a.cmp(L, Dr(0), Dr(2));
            a.bcc(Cond::Ls, ok);
            a.move_(L, Dr(0), Dr(2));
            a.bind(ok);
            a.move_(L, Dr(2), Dr(6)); // total
            a.bind(loop_top);
            a.tst(L, Dr(2));
            a.bcc(Cond::Eq, fdone);
            // Block number and hash.
            a.move_(L, Dr(3), Dr(0));
            a.shift(ShiftKind::Lsr, L, Imm(8), Dr(0));
            a.shift(ShiftKind::Lsr, L, Imm(1), Dr(0));
            a.move_(L, Dr(0), Dr(4)); // blkno
            a.and(L, Imm(63), Dr(0));
            a.lea(Abs(lay::HASHTAB), 4);
            a.move_(L, Idx(0, 4, IndexSpec::d(0, 4)), Ar(4));
            a.bind(chain);
            a.cmp(L, Imm(0), Ar(4));
            a.bcc(Cond::Eq, fdone); // miss: should not happen (all cached)
            a.cmp(L, Ind(4), Dr(4));
            a.bcc(Cond::Eq, hit);
            a.move_(L, Disp(12, 4), Ar(4));
            a.bra(chain);
            a.bind(hit);
            a.move_(L, Disp(8, 4), Ar(5)); // block data
            a.move_(L, Dr(3), Dr(0));
            a.and(L, Imm(511), Dr(0));
            a.add(L, Dr(0), Ar(5));
            a.move_i(L, 512, Dr(1));
            a.sub(L, Dr(0), Dr(1)); // room in this block
            a.cmp(L, Dr(1), Dr(2));
            a.bcc(Cond::Cc, use_d1);
            a.move_(L, Dr(2), Dr(1));
            a.bind(use_d1);
            // The byte loop ("uiomove"), with per-byte bookkeeping.
            a.bind(byte);
            a.move_i(L, 0, Dr(0));
            if write {
                a.move_(B, PostInc(0), Dr(0));
                a.move_(B, Dr(0), PostInc(5));
            } else {
                a.move_(B, PostInc(5), Dr(0));
                a.move_(B, Dr(0), PostInc(0));
            }
            a.add(L, Imm(1), Dr(3));
            a.sub(L, Imm(1), Dr(2));
            a.sub(L, Imm(1), Dr(1));
            a.bcc(Cond::Ne, byte);
            a.bra(loop_top);
            a.bind(fdone);
            a.move_(L, Dr(3), Disp(8, 2)); // offset back
            if write {
                // Extend the size when we wrote past it.
                let noext = a.label();
                a.move_(L, Disp(4, 3), Dr(0));
                a.cmp(L, Dr(3), Dr(0));
                a.bcc(Cond::Cc, noext);
                a.move_(L, Dr(3), Disp(4, 3));
                a.bind(noext);
            }
            a.move_(L, Dr(6), Dr(0));
            a.rts();
            load(
                m,
                if write {
                    code::FILE_WRITE
                } else {
                    code::FILE_READ
                },
                a,
            );
        }
    }

    /// Service the pipe-allocation host assist ([`KCALL_PIPE_ASSIST`]): allocate
    /// two file entries and two fds for the pipe descriptor in `a2`,
    /// charging the same scans open performs. Both tables are scanned for
    /// both ends before anything is claimed: if either has no room for
    /// two, the call returns `-EMFILE` and frees the descriptor, with no
    /// table changed.
    fn pipe_assist(&mut self) {
        let desc = self.m.cpu.a[2];
        let mem = &self.m.mem;
        let entries: Vec<u32> = (0..lay::FTAB_N)
            .map(|e| lay::FTAB + e * lay::FTAB_ENT)
            .filter(|&addr| mem.peek(addr, L) == 0)
            .take(2)
            .collect();
        let fds: Vec<u32> = (0..16u32)
            .filter(|&f| mem.peek(lay::FDTAB + 4 * f, L) == 0)
            .take(2)
            .collect();
        // Charge the scans the real path would perform.
        self.m.charge(64 * 10);
        if entries.len() < 2 || fds.len() < 2 {
            self.m.mem.poke(desc + 20, L, 0); // the descriptor's in_use
            self.m.cpu.d[0] = (-errno::EMFILE) as u32;
            return;
        }
        for ((&entry, &fd), ty) in entries.iter().zip(&fds).zip([ftype::PIPE_R, ftype::PIPE_W]) {
            self.m.mem.poke(entry, L, 1);
            self.m.mem.poke(entry + 4, L, ty);
            self.m.mem.poke(entry + 8, L, 0);
            self.m.mem.poke(entry + 12, L, desc);
            self.m.mem.poke(entry + 16, L, OPS + ty * 8);
            self.m.mem.poke(entry + 20, L, 1);
            self.m.mem.poke(lay::FDTAB + 4 * fd, L, entry);
        }
        self.m.cpu.d[0] = (fds[0] << 8) | fds[1];
    }

    /// Run with host assists serviced.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let deadline = self.m.meter.cycles.saturating_add(max_cycles);
        loop {
            let now = self.m.meter.cycles;
            if now >= deadline {
                return RunExit::CycleLimit;
            }
            match self.m.run(deadline - now) {
                RunExit::KCall(KCALL_PIPE_ASSIST) => self.pipe_assist(),
                other => return other,
            }
        }
    }
}

//! Workspace-level integration: the whole stack through the facade crate
//! — machine, synthesizer, kernel, emulator, and baseline together.

use synthesis::kernel::kernel::{Kernel, KernelConfig};
use synthesis::kernel::layout;
use synthesis::kernel::syscall::{general, traps};
use synthesis::machine::asm::Asm;
use synthesis::machine::isa::{Cond, Operand::*, Size::*};
use synthesis::machine::machine::RunExit;
use synthesis::machine::mem::AddressMap;
use synthesis::unix::programs::{addrs, path_blob};

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;
const UPATH: u32 = layout::USER_BASE + 0x2_8000;

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

/// open("/notes") → write → seek → read back → close → exit, as one
/// user program.
fn roundtrip_program() -> Asm {
    let mut a = Asm::new("roundtrip");
    // open("/notes") -> d5
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UPATH), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Dr(5));
    // write 8 bytes
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(UBUF), 0);
    a.move_i(L, 8, Dr(1));
    a.trap(traps::WRITE);
    // seek 0; read back into UBUF+0x100
    a.move_i(L, general::SEEK, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.move_i(L, 0, Dr(2));
    a.trap(traps::GENERAL);
    a.move_(L, Dr(5), Dr(0));
    a.lea(Abs(UBUF + 0x100), 0);
    a.move_i(L, 8, Dr(1));
    a.trap(traps::READ);
    // close; exit
    a.move_i(L, general::CLOSE, Dr(0));
    a.move_(L, Dr(5), Dr(1));
    a.trap(traps::GENERAL);
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let dead = a.here();
    a.bcc(Cond::T, dead);
    a
}

/// Boot the roundtrip program onto a fresh kernel, ready to run.
fn boot_roundtrip() -> (Kernel, synthesis::kernel::thread::Tid) {
    let mut k = Kernel::boot(KernelConfig::default()).unwrap();
    k.fs.create(&mut k.m, &mut k.heap, "/notes", 4096).unwrap();
    let entry = k
        .load_user_program(roundtrip_program().assemble().unwrap())
        .unwrap();
    k.m.mem.poke_bytes(UPATH, b"/notes\0");
    k.m.mem.poke_bytes(UBUF, b"quaject!");
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    (k, tid)
}

/// Boot → create file → open → write → seek → read → console print →
/// exit, all through synthesized code, in one pass.
#[test]
fn full_stack_file_roundtrip() {
    let (mut k, tid) = boot_roundtrip();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 2_000_000_000));
    assert_eq!(k.m.mem.peek_bytes(UBUF + 0x100, 8), b"quaject!");
    // And the file's contents are visible host-side.
    let (fid, _) = k.fs.lookup("/notes");
    assert_eq!(k.fs.read_contents(&k.m, fid.unwrap()), b"quaject!");
}

/// The same roundtrip seen through the event trace: the thread is
/// dispatched before its first syscall, syscalls enter and exit with
/// measured latencies, and the channel's synthesis precedes its destroy.
#[test]
fn full_stack_roundtrip_tells_a_coherent_trace_story() {
    use synthesis::kernel::trace::{Kind, TraceQuery};

    let (mut k, tid) = boot_roundtrip();
    let _ = TraceQuery::drain(&mut k); // cut: drop boot-time events
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 2_000_000_000));

    let q = TraceQuery::drain(&mut k).thread(tid);
    assert!(
        q.ordered(&[
            &|r| r.kind == Kind::CtxSwitch,
            &|r| r.kind == Kind::SyscallEnter,
            &|r| r.kind == Kind::SyscallExit,
        ]),
        "dispatch precedes the first syscall, which then returns"
    );
    // The program traps six times: open, write, seek, read, close, exit.
    assert!(
        q.count_kind(Kind::SyscallEnter) >= 6,
        "all six traps are on the record, got {}",
        q.count_kind(Kind::SyscallEnter)
    );
    assert!(
        q.any(|r| r.kind == Kind::SyscallExit && r.b > 0),
        "at least one syscall has a measured enter-to-exit latency"
    );
    // open() synthesized the channel; close() destroyed it, in order.
    assert!(
        q.count_kind(Kind::CacheHit) + q.count_kind(Kind::CacheMiss) > 0,
        "open() emitted a synthesis event"
    );
    assert!(
        q.ordered(&[
            &|r| matches!(r.kind, Kind::CacheHit | Kind::CacheMiss),
            &|r| r.kind == Kind::Destroy,
        ]),
        "synthesis precedes the destroy"
    );
}

/// One call [`file_calls`] makes on its open file.
#[derive(Clone, Copy)]
enum Call {
    Write(u32, u32),
    Read(u32, u32),
    Seek(u32),
}

/// Where [`file_calls`] stores each call's result, one long apiece.
const RESULTS: u32 = UBUF + 0x800;

/// open(`UPATH`) → d5, then `calls` on that fd, through the native traps
/// or (`unix`) the UNIX emulator's; then exit.
fn file_calls(unix: bool, calls: &[Call]) -> Asm {
    use synthesis::unix::abi;
    let trap = if unix { abi::UNIX_TRAP } else { traps::GENERAL };
    let mut a = Asm::new("file_calls");
    a.move_i(L, if unix { abi::SYS_OPEN } else { general::OPEN }, Dr(0));
    a.move_i(L, 2, Dr(1)); // O_RDWR
    a.lea(Abs(UPATH), 0);
    a.trap(trap);
    a.move_(L, Dr(0), Dr(5));
    for (i, &call) in calls.iter().enumerate() {
        match call {
            Call::Seek(pos) => {
                a.move_i(L, if unix { abi::SYS_LSEEK } else { general::SEEK }, Dr(0));
                a.move_(L, Dr(5), Dr(1));
                a.move_i(L, pos, Dr(2));
                a.trap(trap);
            }
            Call::Write(buf, n) | Call::Read(buf, n) => {
                let write = matches!(call, Call::Write(..));
                if unix {
                    a.move_i(L, if write { abi::SYS_WRITE } else { abi::SYS_READ }, Dr(0));
                    a.move_(L, Dr(5), Dr(1));
                    a.move_i(L, n, Dr(2));
                } else {
                    a.move_(L, Dr(5), Dr(0));
                    a.move_i(L, n, Dr(1));
                }
                a.lea(Abs(buf), 0);
                a.trap(match (unix, write) {
                    (true, _) => abi::UNIX_TRAP,
                    (false, true) => traps::WRITE,
                    (false, false) => traps::READ,
                });
            }
        }
        a.move_(L, Dr(0), Abs(RESULTS + 4 * i as u32));
    }
    a.move_i(L, if unix { abi::SYS_EXIT } else { general::EXIT }, Dr(0));
    a.move_i(L, 0, Dr(1));
    a.trap(trap);
    let dead = a.here();
    a.bcc(Cond::T, dead);
    a
}

/// A seek past the end of a file is refused (`-EINVAL`) and moves
/// nothing: a read there finds no bytes instead of the memory past the
/// file's length, and a write cannot land past the file's buffer. Both
/// the native `SEEK` and the emulator's `lseek` go through `Kernel::seek`.
#[test]
fn a_seek_past_the_end_is_refused() {
    const CAP: u32 = 4096;
    let calls = [
        Call::Write(UBUF, 8),
        Call::Seek(1000),
        Call::Read(UBUF + 0x100, 16),
        Call::Seek(CAP + 0x40),
        Call::Write(UBUF + 0x200, 16),
        Call::Seek(24), // the end itself is allowed
        Call::Seek(0),
        Call::Read(UBUF + 0x300, 32),
    ];
    let setup = |k: &mut Kernel| {
        k.m.mem.poke_bytes(UPATH, b"/notes\0");
        k.m.mem.poke_bytes(UBUF, b"quaject!");
        k.m.mem.poke_bytes(UBUF + 0x200, &[b'X'; 16]);
        k.fs.create(&mut k.m, &mut k.heap, "/notes", CAP).unwrap()
    };
    let check = |k: &Kernel, fid: u32, via: &str| {
        let results: Vec<i32> = (0..calls.len() as u32)
            .map(|i| k.m.mem.peek(RESULTS + 4 * i, L) as i32)
            .collect();
        assert_eq!(results, [8, -22, 0, -22, 16, 24, 0, 24], "{via}");
        let want = b"quaject!XXXXXXXXXXXXXXXX";
        assert_eq!(k.m.mem.peek_bytes(UBUF + 0x300, 24), want, "{via}");
        assert_eq!(k.fs.read_contents(&k.m, fid), want, "{via}");
        let f = k.fs.file(fid).unwrap();
        assert_ne!(
            k.m.mem.peek_bytes(f.buf + CAP + 0x40, 16),
            [b'X'; 16],
            "{via}"
        );
    };

    let mut k = Kernel::boot(KernelConfig::default()).unwrap();
    let fid = setup(&mut k);
    let entry = k
        .load_user_program(file_calls(false, &calls).assemble().unwrap())
        .unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 2_000_000_000));
    check(&k, fid, "native SEEK");

    let (mut emu, tid) =
        synthesis::unix::emu::boot_with_program(KernelConfig::default(), file_calls(true, &calls))
            .unwrap();
    let fid = setup(&mut emu.k);
    assert!(emu.run_until_exit(tid, 2_000_000_000));
    check(&emu.k, fid, "emulated lseek");
}

/// The same binary produces the same observable bytes under the
/// Synthesis UNIX emulator and under the baseline kernel.
#[test]
fn same_binary_same_bytes_on_both_kernels() {
    let program = || {
        let mut a = Asm::new("crosscheck");
        // pipe(); write 12 bytes; read back to a different buffer; exit.
        a.move_i(L, synthesis::unix::abi::SYS_PIPE, Dr(0));
        a.trap(synthesis::unix::abi::UNIX_TRAP);
        a.move_(L, Dr(0), Dr(5));
        a.move_i(L, synthesis::unix::abi::SYS_WRITE, Dr(0));
        a.move_(L, Dr(5), Dr(1));
        a.and(L, Imm(0xFF), Dr(1));
        a.lea(Abs(addrs::BUF), 0);
        a.move_i(L, 12, Dr(2));
        a.trap(synthesis::unix::abi::UNIX_TRAP);
        a.move_i(L, synthesis::unix::abi::SYS_READ, Dr(0));
        a.move_(L, Dr(5), Dr(1));
        a.shift(synthesis::machine::isa::ShiftKind::Lsr, L, Imm(8), Dr(1));
        a.lea(Abs(addrs::BUF + 0x200), 0);
        a.move_i(L, 12, Dr(2));
        a.trap(synthesis::unix::abi::UNIX_TRAP);
        a.move_i(L, synthesis::unix::abi::SYS_EXIT, Dr(0));
        a.trap(synthesis::unix::abi::UNIX_TRAP);
        let dead = a.here();
        a.bcc(Cond::T, dead);
        a
    };
    let payload = b"twelve bytes";

    // Baseline.
    let mut s = synthesis::unix::sunos::Sunos::boot();
    let entry = s.load_program(program());
    s.m.mem.poke_bytes(addrs::PATHS, &path_blob());
    s.m.mem.poke_bytes(addrs::BUF, payload);
    assert_eq!(s.run_program(entry, 10_000_000_000), RunExit::Halted);
    let sunos_bytes = s.m.mem.peek_bytes(addrs::BUF + 0x200, 12);

    // Synthesis.
    let (mut emu, tid) =
        synthesis::unix::emu::boot_with_program(KernelConfig::default(), program()).unwrap();
    emu.k.m.mem.poke_bytes(addrs::BUF, payload);
    assert!(emu.run_until_exit(tid, 10_000_000_000));
    let syn_bytes = emu.k.m.mem.peek_bytes(addrs::BUF + 0x200, 12);

    assert_eq!(sunos_bytes, payload);
    assert_eq!(syn_bytes, payload);
}

/// Virtual time is deterministic: the same workload yields the exact
/// same cycle count, run to run.
#[test]
fn deterministic_virtual_time() {
    let run = || {
        let mut k = Kernel::boot(KernelConfig::default()).unwrap();
        let mut a = Asm::new("det");
        a.move_i(L, 5000, Dr(7));
        let top = a.here();
        a.add(L, Imm(3), Dr(1));
        a.dbf(7, top);
        a.move_i(L, general::EXIT, Dr(0));
        a.trap(traps::GENERAL);
        let dead = a.here();
        a.bcc(Cond::T, dead);
        let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
        let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
        k.start(tid).unwrap();
        assert!(k.run_until_exit(tid, 2_000_000_000));
        k.m.meter.cycles
    };
    assert_eq!(run(), run());
}

//! Thread creation runs its fill: the resident `thread_init` routine
//! writes every new thread's TTE, fd table, stack pointers, first
//! kernel-stack frame and pinned vectors, counted, on the creating CPU.
//!
//! What it writes is checked byte for byte against a host reference of
//! the image — a fresh thread block and a recycled one popped off the
//! free list, whose link must be gone and whose other bytes must be left
//! as they were — at 1 and 2 CPUs, and at boot (1, 2 and 4 CPUs),
//! where the first idle thread is created with the CPU's `a7` still 0. The
//! routine runs on its own stack with every interrupt masked: a quantum
//! that expires during a create is taken after it, and a parked thread's
//! fabricated signal frame survives a create.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::kernel::{irq_levels, Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::syscall::{general, traps};
use synthesis_core::thread::tte::{off, FD_MAX};
use synthesis_core::thread::Tid;

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
/// Where the test programs keep their counters and results.
const DATA: u32 = layout::USER_BASE + 0x2_0000;

fn user_map() -> AddressMap {
    AddressMap::single(1, layout::USER_BASE, layout::USER_LEN)
}

fn boot(cpus: usize) -> Kernel {
    Kernel::boot(KernelConfig {
        cpus,
        ..KernelConfig::default()
    })
    .expect("kernel boots")
}

/// The base of the one resident block called `name`.
fn shared(k: &Kernel, name: &str) -> u32 {
    let mut found = k.m.code.iter().filter(|(_, b)| &*b.name == name);
    let (base, _) = found.next().unwrap_or_else(|| panic!("no block {name}"));
    assert!(found.next().is_none(), "two blocks {name}");
    base
}

/// What creating thread `tid` (at `entry`, with `user_sp` and SR `sr`)
/// must have written, built on the host from the thread's blocks and the
/// shared handlers: the 1 KB TTE, the 6-byte kernel-stack frame, and each
/// pinned vector with its value.
struct Image {
    tte: Vec<u8>,
    frame: Vec<u8>,
    vectors: Vec<(u32, u32)>,
}

fn reference(k: &Kernel, tid: Tid, entry: u32, user_sp: u32, sr: u16) -> Image {
    let t = &k.threads[&tid];
    let frame_at = t.kstack() + layout::KSTACK_LEN - 6;
    let mut tte = vec![0u8; layout::TTE_LEN as usize];
    let mut put = |at: u32, v: u32| {
        tte[at as usize..at as usize + 4].copy_from_slice(&v.to_be_bytes());
    };
    let ebadf = shared(k, "ebadf");
    for slot in 0..2 * FD_MAX {
        put(off::FD_TABLE + 4 * slot, ebadf);
    }
    put(off::USP, user_sp);
    put(off::SSP, frame_at);
    let mut frame = sr.to_be_bytes().to_vec();
    frame.extend(entry.to_be_bytes());

    let spurious = shared(k, "irq_spurious");
    let mut vectors: Vec<(u32, u32)> = [2, 3, 4, 5, 8].map(|v| (v, t.trap_error.base)).into();
    vectors.push((11, shared(k, "trap_fp_unavail")));
    for level in 1..=7u8 {
        let handler = match level {
            irq_levels::ALARM => shared(k, "irq_alarm"),
            irq_levels::TTY => shared(k, "irq_tty_rx"),
            irq_levels::QUANTUM => t.sw.entry("sw_out").expect("marked"),
            irq_levels::IPI if k.cpus.len() > 1 => t.sw.entry("ipi_in").expect("marked"),
            _ => spurious,
        };
        vectors.push((24 + u32::from(level), handler));
    }
    let trampoline = shared(k, "kcall_trampoline");
    for n in 0..16u8 {
        let handler = match n {
            traps::READ => t.trap_read.base,
            traps::WRITE => t.trap_write.base,
            _ => trampoline,
        };
        vectors.push((32 + u32::from(n), handler));
    }
    Image {
        tte,
        frame,
        vectors,
    }
}

/// `tid`'s TTE, frame and pinned vectors are exactly `want`.
fn assert_image(k: &Kernel, tid: Tid, want: &Image) {
    let t = &k.threads[&tid];
    assert_eq!(
        k.m.mem.peek_bytes(t.tte, layout::TTE_LEN),
        want.tte,
        "thread {tid}: TTE"
    );
    let frame_at = t.kstack() + layout::KSTACK_LEN - 6;
    assert_eq!(
        k.m.mem.peek_bytes(frame_at, 6),
        want.frame,
        "thread {tid}: frame"
    );
    for &(v, handler) in &want.vectors {
        let got = k.m.mem.peek(t.vt() + 4 * v, L);
        assert_eq!(got, handler, "thread {tid}: vector {v} is {got:#x}");
    }
}

fn spinner(k: &mut Kernel) -> u32 {
    let mut a = Asm::new("spin");
    let top = a.here();
    a.add(L, Imm(1), Abs(DATA));
    a.bcc(Cond::T, top);
    k.load_user_program(a.assemble().unwrap()).unwrap()
}

/// A new thread's image at `cpus` CPUs, in a fresh block and then in the
/// block of a destroyed thread, popped off the free list with a link to
/// the next listed block in its first long and every other byte
/// poisoned: the link is gone, and every byte the image does not cover
/// stays poisoned.
fn images_on(cpus: usize) {
    let mut k = boot(cpus);
    let entry = spinner(&mut k);
    let first = k.create_thread(entry, USTACK, user_map()).unwrap();
    let want = reference(&k, first, entry, USTACK, 0);
    assert_image(&k, first, &want);

    let other = k.create_thread(entry, USTACK, user_map()).unwrap();
    let (block, next) = (k.threads[&first].tte, k.threads[&other].tte);
    k.destroy(other).unwrap();
    k.destroy(first).unwrap();
    assert_eq!(k.listed_thread_blocks(), [block, next]);
    assert_eq!(k.m.mem.peek(block, L), next, "the link");
    let poisoned = layout::THREAD_BLOCK_LEN - 4;
    k.m.mem
        .poke_bytes(block + 4, &vec![0xA5; poisoned as usize]);
    let second = k.create_thread(entry, USTACK + 0x100, user_map()).unwrap();
    let t = &k.threads[&second];
    assert_eq!(t.tte, block, "the listed block is popped");
    assert_eq!(k.listed_thread_blocks(), [next]);
    let want = reference(&k, second, entry, USTACK + 0x100, 0);
    assert_image(&k, second, &want);
    let t = &k.threads[&second];
    assert_eq!(k.m.mem.peek(t.tte, L), 0, "the stale link is gone");
    for v in 0..layout::VECTOR_TABLE_LEN / 4 {
        if want.vectors.iter().all(|&(pinned, _)| pinned != v) {
            assert_eq!(
                k.m.mem.peek(t.vt() + 4 * v, L),
                0xA5A5_A5A5,
                "vector {v} is not the fill's to write"
            );
        }
    }
    let below = layout::KSTACK_LEN - 6;
    assert_eq!(
        k.m.mem.peek_bytes(t.kstack(), below),
        vec![0xA5; below as usize],
        "the kernel stack below the frame is not the fill's to write"
    );
}

#[test]
fn a_new_thread_gets_exactly_its_image_on_one_cpu() {
    images_on(1);
}

#[test]
fn a_new_thread_gets_exactly_its_image_on_two_cpus() {
    images_on(2);
}

/// Boot creates one idle thread per CPU through the fill — the first
/// while the CPU's `a7` is still 0 — and each gets its image.
#[test]
fn boot_fills_every_idle_thread() {
    for cpus in [1, 2, 4] {
        let k = boot(cpus);
        let idle = shared(&k, "idle");
        for c in &k.cpus {
            let want = reference(&k, c.idle_tid, idle, 0, 0x2000);
            assert_image(&k, c.idle_tid, &want);
        }
    }
}

/// A program that creates and destroys a thread `n` times, then spins:
/// each create's result lands at `DATA + 4 + 4i`.
fn create_loop(k: &mut Kernel, n: u32) -> u32 {
    let entry = spinner(k);
    let mut a = Asm::new("create_loop");
    for i in 0..n {
        a.move_i(L, entry, Dr(1));
        a.move_i(L, USTACK + 0x800, Dr(2));
        a.move_i(L, general::THREAD_CREATE, Dr(0));
        a.trap(traps::GENERAL);
        a.move_(L, Dr(0), Abs(DATA + 4 + 4 * i));
        a.move_(L, Dr(0), Dr(1));
        a.move_i(L, general::THREAD_DESTROY, Dr(0));
        a.trap(traps::GENERAL);
    }
    let top = a.here();
    a.bcc(Cond::T, top);
    k.load_user_program(a.assemble().unwrap()).unwrap()
}

/// Run `k` for `cycles` in short slices with the instruction trace on,
/// and check that every fill in the trace ran whole: from its first
/// instruction through its `rts` to the host's `halt`, nothing else
/// executed — no interrupt was taken inside it. Returns the fills seen.
fn run_checking_fills(k: &mut Kernel, cycles: u64) -> usize {
    let len =
        k.m.code
            .block(layout::THREAD_INIT)
            .expect("loaded")
            .instrs
            .len();
    let routine = layout::THREAD_INIT..layout::THREAD_INIT + 0x100;
    let (mut fills, end) = (0, k.m.meter.cycles + cycles);
    k.m.meter.tracing = true;
    while k.m.meter.cycles < end {
        k.m.meter.clear_trace();
        k.run(2_000);
        let trace = k.m.meter.trace();
        for (i, _) in trace
            .iter()
            .enumerate()
            .filter(|(_, r)| r.pc == layout::THREAD_INIT)
        {
            let run: Vec<u32> = trace[i..].iter().take(len + 1).map(|r| r.pc).collect();
            assert_eq!(run.len(), len + 1, "a fill was cut off");
            assert!(
                run[..len].iter().all(|pc| routine.contains(pc)) && run[len] == layout::HOST_RETURN,
                "something ran inside a fill: {run:x?}"
            );
            fills += 1;
        }
    }
    k.m.meter.tracing = false;
    fills
}

/// A quantum shorter than the fill itself expires inside every create:
/// its interrupt is taken after the kernel call, never inside the
/// routine, and every create succeeds.
#[test]
fn a_quantum_that_expires_during_create_is_taken_after_it() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        default_quantum_us: 40,
        ..KernelConfig::default()
    })
    .unwrap();
    let n = 12;
    let prog = create_loop(&mut k, n);
    let creator = k.create_thread(prog, USTACK, user_map()).unwrap();
    k.start(creator).unwrap();
    let accepted = |k: &Kernel| k.m.irq.accepted[usize::from(irq_levels::QUANTUM)];
    let before = accepted(&k);
    assert_eq!(run_checking_fills(&mut k, 400_000), n as usize);
    let got: Vec<u32> = (0..n).map(|i| k.m.mem.peek(DATA + 4 + 4 * i, L)).collect();
    assert!(
        got.iter().all(|&tid| tid > creator && tid < 0x8000_0000),
        "a create failed: {got:?}"
    );
    assert!(
        accepted(&k) - before >= u64::from(n),
        "the quanta that expired were not taken"
    );
    assert!(k.threads.contains_key(&creator));
}

/// A thread parked with a fabricated signal frame (`signal_parked`) still
/// runs its handler after another thread's creates.
#[test]
fn a_parked_threads_signal_frame_survives_a_create() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        default_quantum_us: 40,
        ..KernelConfig::default()
    })
    .unwrap();
    let handler = {
        let mut h = Asm::new("handler");
        h.add(L, Imm(1), Abs(DATA + 0x100));
        h.move_i(L, general::SIG_RETURN, Dr(0));
        h.trap(traps::GENERAL);
        let dead = h.here();
        h.bcc(Cond::T, dead);
        k.load_user_program(h.assemble().unwrap()).unwrap()
    };
    let entry = spinner(&mut k);
    let parked = k.create_thread(entry, USTACK + 0x4000, user_map()).unwrap();
    let tte = k.threads[&parked].tte;
    k.m.mem.poke(tte + off::SIG_HANDLER, L, handler);
    k.start(parked).unwrap();
    k.run(20_000);
    k.stop(parked).unwrap();
    k.signal(parked, 1).unwrap();
    let frame = k.m.mem.peek(tte + off::SSP, L);

    let prog = create_loop(&mut k, 4);
    let creator = k.create_thread(prog, USTACK, user_map()).unwrap();
    k.start(creator).unwrap();
    assert_eq!(run_checking_fills(&mut k, 100_000), 4);
    assert!(
        (0..4).all(|i| k.m.mem.peek(DATA + 4 + 4 * i, L) > creator),
        "a create failed"
    );
    assert_eq!(k.m.mem.peek(tte + off::SSP, L), frame);
    assert_eq!(
        k.m.mem.peek(frame + 2, L),
        handler,
        "the frame was overwritten"
    );

    k.start(parked).unwrap();
    k.run(100_000);
    assert_eq!(k.m.mem.peek(DATA + 0x100, L), 1, "the handler ran once");
}

//! The channel registry and its specialization cache: hit/miss
//! semantics, refcounted teardown, shared-offset aliasing, long-path
//! rejection, and stream endpoints through the same cached pipeline.

use quamachine::asm::Asm;
use quamachine::isa::{Operand::*, Size::*};
use quamachine::mem::AddressMap;
use synthesis_core::io::stream::standard;
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::monitor;
use synthesis_core::syscall::{errno, general, traps};
use synthesis_core::thread::Tid;

fn user_map() -> AddressMap {
    AddressMap::single(
        1,
        synthesis_core::layout::USER_BASE,
        synthesis_core::layout::USER_LEN,
    )
}

const USTACK: u32 = synthesis_core::layout::USER_BASE + 0x1_0000;
const UBUF: u32 = synthesis_core::layout::USER_BASE + 0x2_0000;
const UPATH: u32 = synthesis_core::layout::USER_BASE + 0x3_0000;

fn boot() -> Kernel {
    Kernel::boot(KernelConfig::default()).expect("kernel boots")
}

/// Boot plus one parked thread for host-side fd operations.
fn boot_with_thread() -> (Kernel, Tid) {
    let mut k = boot();
    let mut a = Asm::new("parked");
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    (k, tid)
}

#[test]
fn second_open_of_same_file_hits_the_cache() {
    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/f", 4096).unwrap();

    let fd1 = k.open_for(tid, "/tmp/f").unwrap();
    let (hits0, misses0) = (k.creator.stats.cache_hits, k.creator.stats.cache_misses);
    assert_eq!(hits0, 0, "first open is all cold misses");
    assert!(misses0 >= 2, "read and write ends synthesized");
    let resident = k.m.code.resident_bytes();

    let fd2 = k.open_for(tid, "/tmp/f").unwrap();
    assert_ne!(fd1, fd2);
    assert_eq!(
        k.creator.stats.cache_hits,
        hits0 + 2,
        "both ends of the second open are hits"
    );
    assert_eq!(
        k.creator.stats.cache_misses, misses0,
        "nothing new synthesized"
    );
    assert_eq!(
        k.m.code.resident_bytes(),
        resident,
        "the second open installed zero bytes"
    );

    // Both fds share one offset slot (dup-like aliasing) and one ref-
    // counted channel state.
    let fid = k.fs.lookup("/tmp/f").0.unwrap();
    assert_eq!(k.file_chans[&(tid, fid)].refs, 2);

    let report = monitor::size_report(&k);
    assert!(
        report.code_shared_bytes > 0,
        "sharing shows up in Section 6.4 accounting"
    );
    assert_eq!(report.cache_hits, 2);
}

#[test]
fn cross_cpu_open_hits_the_shared_tier() {
    // An open on CPU 1 of a channel whose code was synthesized by CPU 0
    // reuses the block — and the accounting tells the cross-CPU hit
    // apart from a same-CPU one.
    let mut k = Kernel::boot(KernelConfig {
        cpus: 2,
        ..KernelConfig::default()
    })
    .unwrap();
    let mut a = Asm::new("parked");
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/f", 4096).unwrap();

    k.open_for(tid, "/tmp/f").unwrap();
    assert_eq!(k.creator.stats.cache_hits, 0);
    assert_eq!(k.creator.cache.shared_tier_bytes(), 0, "all local so far");
    let local_before = k.creator.cache.local_tier_bytes(0);
    assert!(local_before > 0, "cold open populated CPU 0's tier");

    // Same-CPU warm open: local hits only.
    k.open_for(tid, "/tmp/f").unwrap();
    assert_eq!(k.creator.stats.cache_hits, 2);
    assert_eq!(k.creator.stats.cache_hits_local, 2);
    assert_eq!(k.creator.stats.cache_hits_cross, 0);

    // Warm open issued from CPU 1: cross hits, and the blocks promote
    // to the shared read-mostly tier.
    k.m.switch_cpu(1);
    k.open_for(tid, "/tmp/f").unwrap();
    assert_eq!(k.creator.stats.cache_hits, 4);
    assert_eq!(k.creator.stats.cache_hits_local, 2);
    assert_eq!(k.creator.stats.cache_hits_cross, 2);
    assert!(k.creator.stats.bytes_shared_cross > 0);
    assert!(
        k.creator.cache.shared_tier_bytes() > 0,
        "cross-CPU reuse promoted the entries"
    );
    assert!(k.creator.cache.local_tier_bytes(0) < local_before);
    k.m.switch_cpu(0);
}

#[test]
fn second_open_charges_link_cost_not_synthesis_cost() {
    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/f", 4096).unwrap();

    let (_, cold) = monitor::measure(&mut k, |k| k.open_for(tid, "/tmp/f").unwrap());
    let (_, warm) = monitor::measure(&mut k, |k| k.open_for(tid, "/tmp/f").unwrap());
    assert!(
        warm.cycles * 2 < cold.cycles,
        "cached open ({} cycles) must be far cheaper than cold ({} cycles)",
        warm.cycles,
        cold.cycles
    );
}

#[test]
fn different_gauge_binding_misses() {
    // The same file opened from two threads specializes on different
    // gauges — different invariants, different code.
    let (mut k, tid1) = boot_with_thread();
    let mut a = Asm::new("parked2");
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let tid2 = k.create_thread(entry, USTACK - 0x1000, user_map()).unwrap();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/f", 4096).unwrap();

    k.open_for(tid1, "/tmp/f").unwrap();
    let misses = k.creator.stats.cache_misses;
    k.open_for(tid2, "/tmp/f").unwrap();
    assert_eq!(k.creator.stats.cache_hits, 0, "no cross-gauge sharing");
    assert!(k.creator.stats.cache_misses > misses);
}

#[test]
fn eviction_at_zero_refcount_returns_code_space() {
    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/f", 4096).unwrap();
    let code_base = k.creator.codebuf.in_use;
    let heap_base = k.heap.in_use;

    let fd1 = k.open_for(tid, "/tmp/f").unwrap();
    let fd2 = k.open_for(tid, "/tmp/f").unwrap();
    let one_copy = k.creator.codebuf.in_use;

    // Closing one fd drops references but keeps the shared code.
    k.close_for(tid, fd1).unwrap();
    assert_eq!(k.creator.codebuf.in_use, one_copy, "still referenced");

    // Closing the last drops the refcount to zero: the offset slot
    // returns at once, the code stays warm for a reopen, and evicting
    // the warm entries returns the code space to the byte.
    k.close_for(tid, fd2).unwrap();
    assert_eq!(k.creator.codebuf.in_use, one_copy, "kept warm");
    assert_eq!(
        k.creator.cache.resident_bytes(),
        k.creator.cache.warm_bytes(),
        "no reference outlives the last fd"
    );
    k.creator.flush_cache(&mut k.m);
    assert_eq!(k.creator.codebuf.in_use, code_base, "code space restored");
    assert_eq!(k.heap.in_use, heap_base, "offset slot restored");
    let fid = k.fs.lookup("/tmp/f").0.unwrap();
    assert!(!k.file_chans.contains_key(&(tid, fid)));
    assert_eq!(k.fs.file(fid).unwrap().opens, 0);
}

#[test]
fn shared_offset_slot_aliases_seeks_like_dup() {
    // Two opens of the same file in one thread share the seek offset —
    // the aliasing that makes their invariants (and code) identical.
    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/f", 4096).unwrap();
    let fid = k.fs.lookup("/tmp/f").0.unwrap();
    k.open_for(tid, "/tmp/f").unwrap();
    k.open_for(tid, "/tmp/f").unwrap();
    let slot = k.file_chans[&(tid, fid)].offset_slot;
    k.m.mem.poke(slot, L, 123);
    // Either fd's synthesized code reads the same slot; the host-side
    // state confirms a single slot serves both.
    assert_eq!(k.file_chans[&(tid, fid)].refs, 2);
    assert_eq!(k.m.mem.peek(slot, L), 123);
}

#[test]
fn overlong_path_is_rejected_with_enametoolong() {
    let mut k = boot();
    let mut a = Asm::new("longpath");
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UPATH), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Abs(UBUF));
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    // 400 bytes of 'a' with no NUL in the kernel's 256-byte window: the
    // old reader silently truncated this into a valid-looking path.
    k.m.mem.poke_bytes(UPATH, &[b'a'; 400]);
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 100_000_000));
    assert_eq!(
        k.m.mem.peek(UBUF, L) as i32,
        -errno::ENAMETOOLONG,
        "open must fail with ENAMETOOLONG, not ENOENT on a truncated name"
    );
}

#[test]
fn path_of_exactly_255_bytes_still_opens() {
    let mut k = boot();
    let name: String = std::iter::once('/')
        .chain(std::iter::repeat_n('x', 254))
        .collect();
    assert_eq!(name.len(), 255);
    k.fs.create(&mut k.m, &mut k.heap, &name, 256).unwrap();
    let mut a = Asm::new("maxpath");
    a.move_i(L, general::OPEN, Dr(0));
    a.lea(Abs(UPATH), 0);
    a.trap(traps::GENERAL);
    a.move_(L, Dr(0), Abs(UBUF));
    a.move_i(L, general::EXIT, Dr(0));
    a.trap(traps::GENERAL);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    let mut blob = name.into_bytes();
    blob.push(0);
    k.m.mem.poke_bytes(UPATH, &blob);
    let tid = k.create_thread(entry, USTACK, user_map()).unwrap();
    k.start(tid).unwrap();
    assert!(k.run_until_exit(tid, 100_000_000));
    assert_eq!(k.m.mem.peek(UBUF, L) as i32, 0, "opened as fd 0");
}

#[test]
fn stream_endpoints_share_through_the_cache() {
    let mut k = boot();
    let heap_base = k.heap.in_use;
    let code_base = k.creator.codebuf.in_use;

    let chan = k.open_stream(standard::output_to_screen(), 256).unwrap();
    let misses = k.creator.stats.cache_misses;

    // A second producer on the same ring shares the installed put code.
    let put2 = k.stream_attach_producer(&chan).unwrap();
    assert_eq!(put2.base, chan.put.base, "same installed block");
    assert_eq!(k.creator.stats.cache_misses, misses, "no new synthesis");
    assert!(k.creator.stats.cache_hits >= 1);

    k.stream_release_endpoint(&put2);
    k.close_stream(chan);
    assert_eq!(k.heap.in_use, heap_base, "ring storage returned");
    assert_eq!(
        k.creator.cache.resident_bytes(),
        k.creator.cache.warm_bytes(),
        "every endpoint reference released"
    );
    k.creator.flush_cache(&mut k.m);
    assert_eq!(
        k.creator.codebuf.in_use, code_base,
        "endpoint code returned"
    );
}

#[test]
fn spsc_stream_round_trips_data_through_synthesized_code() {
    let mut k = boot();
    let chan = k.open_stream(standard::device_to_cooked(), 64).unwrap();

    // Drive the synthesized put/get as supervisor subroutines with
    // interrupts masked (no thread is running; rts returns to a halt).
    let halt = synthesis_core::layout::USER_BASE + 0xF000;
    let mut h = Asm::new("ret");
    h.halt();
    k.m.load_block(halt, h.assemble().unwrap()).unwrap();
    k.m.cpu.sr |= quamachine::cpu::sr_bits::S;
    k.m.cpu.set_int_mask(7);
    let sp = synthesis_core::layout::USER_BASE + 0x8000;
    let call = |k: &mut Kernel, entry: u32, d1: u32| {
        k.m.cpu.d[1] = d1;
        k.m.mem.poke(sp - 4, L, halt);
        k.m.cpu.a[7] = sp - 4;
        k.m.cpu.pc = entry;
        assert_eq!(k.m.run(100_000), quamachine::machine::RunExit::Halted);
    };

    call(&mut k, chan.put.base, 0xBEEF);
    assert_eq!(k.m.cpu.d[0], 1, "put succeeded");
    call(&mut k, chan.get.base, 0);
    assert_eq!(k.m.cpu.d[1], 1, "get succeeded");
    assert_eq!(k.m.cpu.d[0], 0xBEEF, "the item round-tripped");
    k.close_stream(chan);
}

#[test]
fn size_report_names_kept_plans_in_text_and_json_alike() {
    let (mut k, tid) = boot_with_thread();
    k.fs.create(&mut k.m, &mut k.heap, "/tmp/f", 4096).unwrap();
    k.open_for(tid, "/tmp/f").unwrap();
    let report = monitor::size_report(&k);

    // Every synthesis either compiled a plan or filled a kept one. The
    // thread's switch and dispatchers reuse the plans the per-CPU idle
    // thread compiled at boot.
    let stats = k.creator.stats;
    assert_eq!(stats.plans_compiled + stats.plan_hits, stats.synthesized);
    assert_eq!(
        (report.plans_compiled, report.plan_hits),
        (stats.plans_compiled, stats.plan_hits)
    );
    assert!(report.plan_hits >= 4, "{report:?}");
    let names: Vec<&str> = report.plans.iter().map(|p| p.template.as_str()).collect();
    for want in ["sw_basic", "dispatch_trap1", "read_file", "write_file"] {
        assert!(names.contains(&want), "{names:?}");
    }
    // None of these looked at a binding: one plan serves every thread
    // and every open.
    assert!(report
        .plans
        .iter()
        .all(|p| p.plans == 1 && p.logged.is_empty()));

    // Text and JSON carry the same rows.
    let (text, json) = (report.render(), report.to_json());
    assert!(text.contains(&format!(
        "plans: {} compiled, {} hits",
        stats.plans_compiled, stats.plan_hits
    )));
    assert!(json.contains(&format!("\"plans_compiled\": {}", stats.plans_compiled)));
    assert!(json.contains(&format!("\"plan_hits\": {}", stats.plan_hits)));
    for p in &report.plans {
        assert!(text.contains(&format!("plan {:<20} x1  logged: -", p.template)));
        assert!(json.contains(&format!(
            "{{\"template\": {:?}, \"plans\": 1, \"logged\": []}}",
            p.template
        )));
    }
}

//! Shared soak plumbing: the `SOAK_SEED` override and the failure
//! post-mortem that prints an exact replay command.
//!
//! Every soak suite (`fault_soak`, `scale_soak`, `open_close_leak`)
//! derives its randomized inputs from [`soak_base`]: 0 by default so CI
//! is deterministic run over run, overridable with `SOAK_SEED=<n>` to
//! reproduce a failure or soak a different window of the seed space.
//! Wrapping each case in [`soak_case`] makes any panic end with
//! `reproduce with: SOAK_SEED=<seed> cargo test --test <suite> <test>`
//! — the exact command that replays the failing seed in isolation.

#![allow(dead_code)] // each test binary uses a subset of these helpers

use synthesis::kernel::kernel::Kernel;

/// The base seed: 0 unless `SOAK_SEED=<n>` overrides it.
pub fn soak_base() -> u64 {
    std::env::var("SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The seeds a soak loop iterates: `base`, `base + 1`, ...
pub fn soak_seeds(n: u64) -> impl Iterator<Item = u64> {
    let base = soak_base();
    (0..n).map(move |i| base.wrapping_add(i))
}

/// Run one seeded case of `test` in `suite`; if it panics, re-panic
/// with a post-mortem — the last trace records of every thread in the
/// kernel the scenario parked in the provided slot — plus the exact
/// `SOAK_SEED=<seed> cargo test --test <suite> <test>` replay command
/// (the override makes the failing seed the first — and reported —
/// iteration).
pub fn soak_case<T>(
    suite: &str,
    test: &str,
    seed: u64,
    f: impl FnOnce(&mut Option<Kernel>) -> T,
) -> T {
    let mut slot: Option<Kernel> = None;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut slot))) {
        Ok(v) => v,
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            let tail = slot.as_mut().map(|k| trace_tail(k, 64)).unwrap_or_default();
            panic!(
                "{msg}\n{tail}  reproduce with: SOAK_SEED={seed} cargo test --test {suite} {test}"
            );
        }
    }
}

/// The last `n` trace records of every thread ring, rendered for a
/// failure message. Reaped threads' rings are still here — exactly the
/// history a soak post-mortem needs. On a multiprocessor kernel the
/// records are grouped by the CPU that recorded them (the record's
/// `flags` field), so a cross-CPU failure reads as per-CPU timelines;
/// the uniprocessor rendering is unchanged.
pub fn trace_tail(k: &mut Kernel, n: usize) -> String {
    use std::fmt::Write;
    k.pump_trace();
    let mut out = String::new();
    let cpus = u16::try_from(k.m.num_cpus()).unwrap_or(1);
    if cpus <= 1 {
        for tid in k.trace.tids() {
            let recs = k.trace.last(tid, n);
            if recs.is_empty() {
                continue;
            }
            let _ = writeln!(out, "  last {} trace records of tid {}:", recs.len(), tid);
            for r in recs {
                let _ = writeln!(out, "    {r}");
            }
        }
    } else {
        for cpu in 0..cpus {
            let mut section = String::new();
            for tid in k.trace.tids() {
                let recs: Vec<_> = k
                    .trace
                    .last(tid, n)
                    .into_iter()
                    .filter(|r| r.flags == cpu)
                    .collect();
                if recs.is_empty() {
                    continue;
                }
                let _ = writeln!(section, "    tid {} ({} records):", tid, recs.len());
                for r in recs {
                    let _ = writeln!(section, "      {r}");
                }
            }
            if !section.is_empty() {
                let _ = writeln!(out, "  cpu {cpu}:");
                out.push_str(&section);
            }
        }
    }
    if out.is_empty() {
        out.push_str("  (no trace records; was `trace.enabled` switched off?)\n");
    }
    out
}

/// The target installed in the `jmp` at `jmp_at`, decoded from code
/// memory.
pub fn installed_jmp(k: &Kernel, jmp_at: u32) -> u32 {
    use quamachine::isa::{Instr, Operand};
    let loc =
        k.m.code
            .locate(jmp_at)
            .unwrap_or_else(|| panic!("chain jmp {jmp_at:#x} is not in loaded code"));
    match k.m.code.instr(loc) {
        Some(Instr::Jmp(Operand::Abs(t))) => *t,
        other => panic!("chain jmp {jmp_at:#x} holds {other:?}"),
    }
}

/// The ready queues' invariants, checked against code memory. Call it
/// between host operations (every CPU parked at a safe point or at a
/// switch-in the kernel pointed it at):
///
/// - every chain node is a live thread on its home CPU, and every link's
///   *installed* target — in the `jmp` its switch block's plan marks — is
///   the successor's `sw_in` when the two address maps are equal and its
///   `sw_in_mmu` when they differ;
/// - a healthy CPU's chain is never empty and holds its idle thread
///   exactly when it holds no other; a quarantined CPU's holds nothing
///   else; a thread a CPU is executing off-chain leaves through a `jmp`
///   aimed at the head;
/// - every `Ready` thread is on exactly one chain, and no `Blocked` or
///   `Stopped` thread is on any;
/// - a quarantined thread is `Stopped`; a quarantined CPU's context names
///   no thread (`vbr == 0`), no thread but its idle is homed on it, and
///   device interrupts are not routed to it;
/// - nothing outlives a thread: the VBR index has exactly one entry per
///   live thread, naming its `vt`; every fault counter the machine keeps
///   is keyed by a live thread's `vt`, and every `(tid, file)` channel by
///   a live tid;
/// - the wait lists name exactly the live `Blocked` threads, each once
///   under the object it is blocked on, and a pipe's or the tty's wait
///   flag is up exactly when its list is non-empty;
/// - no specialization-cache event is waiting for a thread to be
///   charged to: whoever called the creator attributed them on the spot.
pub fn assert_chains_consistent(k: &Kernel) {
    use quamachine::isa::Size;
    use std::collections::BTreeMap;
    use synthesis::kernel::thread::{ThreadState, WaitObject};

    // Entries by the plan's mark names, not the kernel's offset table.
    let mark = |tid: u32, name| k.threads[&tid].sw.entry(name).expect("switch mark");
    let target = |from: u32, to: u32| {
        let same_map = k.threads[&from].map == k.threads[&to].map;
        mark(to, if same_map { "sw_in" } else { "sw_in_mmu" })
    };
    let jmp_at = |tid: u32| mark(tid, "chain");
    assert_eq!(
        k.creator.cache_events,
        [],
        "cache events left for a later caller to be stamped with"
    );
    let mut on_chain: BTreeMap<u32, usize> = BTreeMap::new();
    for (c, cpu) in k.cpus.iter().enumerate() {
        let nodes = cpu.ready.nodes();
        assert_eq!(
            nodes.len(),
            cpu.ready.len(),
            "cpu {c}: walk and index agree"
        );
        let others = nodes.iter().filter(|&&n| n != cpu.idle_tid).count();
        if cpu.quarantined {
            assert_eq!(others, 0, "quarantined cpu {c} still holds real threads");
        } else {
            assert_eq!(
                cpu.ready.contains(cpu.idle_tid),
                others == 0,
                "cpu {c}: idle is a member exactly when nothing else is ({others} others)"
            );
        }
        for (i, &n) in nodes.iter().enumerate() {
            let t = k
                .threads
                .get(&n)
                .unwrap_or_else(|| panic!("cpu {c}: dead tid {n} on the chain"));
            assert_eq!(
                t.cpu, c,
                "tid {n} is on cpu {c}'s chain but homed elsewhere"
            );
            let next = nodes[(i + 1) % nodes.len()];
            assert_eq!(
                installed_jmp(k, jmp_at(n)),
                target(n, next),
                "cpu {c}: link {n} -> {next} holds the wrong entry"
            );
            *on_chain.entry(n).or_insert(0) += 1;
        }
        if let (Some(cur), Some(head)) = (k.current_tid_on(c), cpu.ready.head()) {
            if !cpu.ready.contains(cur) {
                assert_eq!(
                    installed_jmp(k, jmp_at(cur)),
                    target(cur, head),
                    "cpu {c}: off-chain current {cur} does not leave through the head"
                );
            }
        }
    }
    for (&tid, t) in &k.threads {
        let n = on_chain.get(&tid).copied().unwrap_or(0);
        let want = usize::from(t.state == ThreadState::Ready);
        assert_eq!(n, want, "tid {tid} ({:?}) is on {n} chain(s)", t.state);
        if k.is_quarantined(tid) {
            assert_eq!(
                t.state,
                ThreadState::Stopped,
                "quarantined tid {tid} is not stopped"
            );
        }
    }
    for (c, cpu) in k.cpus.iter().enumerate().filter(|(_, cpu)| cpu.quarantined) {
        let vbr = k.m.cpu_ref(c).vbr;
        assert_eq!(vbr, 0, "quarantined cpu {c}'s context names a thread");
        let homed = k.threads.values().filter(|t| t.cpu == c).map(|t| t.tid);
        assert_eq!(
            homed.collect::<Vec<_>>(),
            [cpu.idle_tid],
            "threads homed on quarantined cpu {c}"
        );
        assert_ne!(k.m.irq.route(), c, "devices interrupt quarantined cpu {c}");
    }

    let by_vt: BTreeMap<u32, u32> = k.threads.values().map(|t| (t.vt(), t.tid)).collect();
    assert_eq!(
        k.vbr_index().collect::<BTreeMap<_, _>>(),
        by_vt,
        "the VBR index and the live threads' vector tables"
    );
    for vt in k.m.meter.error_faults.keys() {
        assert!(
            by_vt.contains_key(vt),
            "fault count kept for dead vt {vt:#x}"
        );
    }
    for (tid, fid) in k.file_chans.keys() {
        assert!(
            k.threads.contains_key(tid),
            "file {fid}'s channel outlives tid {tid}"
        );
    }

    let mut waiting: BTreeMap<u32, usize> = BTreeMap::new();
    for (wait, tids) in k.wait_lists() {
        for &tid in tids {
            let state = k.threads.get(&tid).map(|t| &t.state);
            assert_eq!(
                state,
                Some(&ThreadState::Blocked(wait)),
                "{wait:?} lists tid {tid}, which is not blocked on it"
            );
            *waiting.entry(tid).or_insert(0) += 1;
        }
    }
    for (&tid, t) in &k.threads {
        let want = usize::from(matches!(t.state, ThreadState::Blocked(_)));
        assert_eq!(
            waiting.get(&tid).copied().unwrap_or(0),
            want,
            "tid {tid} ({:?}) appears on the wrong number of wait lists",
            t.state
        );
    }
    let listed = |w: WaitObject| k.wait_lists().any(|(o, _)| o == w);
    let flag_up = |slot: u32| k.m.mem.peek(slot, Size::L) != 0;
    assert_eq!(
        flag_up(k.tty_srv.waiters_slot),
        listed(WaitObject::TtyInput),
        "tty wait flag"
    );
    for (p, pipe) in (0u32..).zip(&k.pipes) {
        if pipe.readers == 0 && pipe.writers == 0 {
            continue; // ring freed, slots with it
        }
        assert_eq!(
            flag_up(pipe.r_wait_slot),
            listed(WaitObject::PipeData(p)),
            "pipe {p} reader wait flag"
        );
        assert_eq!(
            flag_up(pipe.w_wait_slot),
            listed(WaitObject::PipeSpace(p)),
            "pipe {p} writer wait flag"
        );
    }
}

/// The channel table's invariants, checked against guest and code
/// memory — the sibling of [`assert_chains_consistent`], callable at the
/// same points. Every fd table is walked once and everything else is
/// recomputed from that walk:
///
/// - a thread's open fds are listed in fd order, once each, below
///   `FD_MAX`; a closed fd's slot pair in guest memory names the shared
///   `ebadf` routine, and an open one's names `ebadf` or one of the fd's
///   own `code` entries, each `code` entry named by a slot;
/// - every `code` and `bound` wrapper base is a resident block;
/// - a live bound site's installed `jsr` operand is its wrapper's base,
///   a retired one's is not;
/// - a cached block's reference count is the number of fd `code` and
///   `bound` entries naming it, and the bytes of all such blocks are
///   exactly the cache's referenced (resident minus warm) bytes — so no
///   reference lives anywhere else. (A kernel with an open stream
///   channel holds references outside the fd tables; do not call this
///   on one.)
/// - `File::opens`, `FileChan::refs` and `Pipe::readers`/`writers` equal
///   the counts of fds naming them;
/// - a pipe with a live bound wrapper names its holder in `fused_by`,
///   and every open end of it is the holder's.
pub fn assert_code_consistent(k: &Kernel) {
    use quamachine::isa::{Instr, Operand, Size};
    use std::collections::BTreeMap;
    use synthesis::kernel::channel::ChannelClass;
    use synthesis::kernel::thread::tte::FD_MAX;

    let (ebadf, _) =
        k.m.code
            .iter()
            .find(|(_, b)| &*b.name == "ebadf")
            .expect("the shared ebadf routine is resident");
    let jsr_operand = |site: u32| {
        let loc = k.m.code.locate(site)?;
        match k.m.code.instr(loc)? {
            Instr::Jsr(Operand::Abs(t)) => Some(*t),
            _ => None,
        }
    };
    // base -> (references counted, block size)
    let mut refs: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    let mut opens: BTreeMap<u32, u32> = BTreeMap::new();
    let mut chan_refs: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    // (pid, read_end) -> owning tids, one entry per fd
    let mut ends: BTreeMap<(u32, bool), Vec<u32>> = BTreeMap::new();
    let mut fused: Vec<(u32, u32)> = Vec::new(); // (pid, holder)
    for (&tid, t) in &k.threads {
        assert!(
            t.fds.windows(2).all(|w| w[0].fd < w[1].fd) && t.fds.iter().all(|f| f.fd < FD_MAX),
            "tid {tid}: open fds {:?} out of order or range",
            t.fds.iter().map(|f| f.fd).collect::<Vec<_>>()
        );
        for fd in 0..FD_MAX {
            let slots = [t.fd_read_slot(fd), t.fd_write_slot(fd)].map(|s| k.m.mem.peek(s, Size::L));
            let Some(open) = t.fd(fd) else {
                assert_eq!(slots, [ebadf; 2], "tid {tid} fd {fd}: a free slot");
                continue;
            };
            let (class, code, bound) = (&open.class, &open.code, &open.bound);
            let at = format!("tid {tid} fd {fd} ({class:?})");
            for s in slots {
                assert!(
                    s == ebadf || code.iter().any(|c| c.base == s),
                    "{at}: slot names {s:#x}, not its code"
                );
            }
            let mut hold = |s: &synthesis::codegen::creator::Synthesized, what: &str| {
                assert!(
                    k.m.code.block(s.base).is_some(),
                    "{at}: {what} {:#x} is not resident",
                    s.base
                );
                refs.entry(s.base).or_insert((0, s.size)).0 += 1;
            };
            for c in code {
                assert!(slots.contains(&c.base), "{at}: {:#x} is not linked", c.base);
                hold(c, "code");
            }
            for b in bound {
                hold(&b.wrapper, "wrapper");
                assert_eq!(
                    jsr_operand(b.site) == Some(b.wrapper.base),
                    !b.retired,
                    "{at}: site {:#x} (retired: {}) holds {:x?}, wrapper at {:#x}",
                    b.site,
                    b.retired,
                    jsr_operand(b.site),
                    b.wrapper.base
                );
            }
            match *class {
                ChannelClass::Null | ChannelClass::Tty { .. } => {}
                ChannelClass::File { fid, .. } => {
                    *opens.entry(fid).or_insert(0) += 1;
                    *chan_refs.entry((tid, fid)).or_insert(0) += 1;
                }
                ChannelClass::Pipe { pid, read_end } => {
                    ends.entry((pid, read_end)).or_default().push(tid);
                    if bound.iter().any(|b| !b.retired) {
                        fused.push((pid, tid));
                    }
                }
            }
        }
    }

    let cache = &k.creator.cache;
    for (&base, &(n, _)) in &refs {
        assert_eq!(cache.refs(base), Some(n), "references on block {base:#x}");
    }
    assert_eq!(
        cache.resident_bytes() - cache.warm_bytes(),
        refs.values().map(|&(_, size)| u64::from(size)).sum::<u64>(),
        "a cache reference is held by something other than an fd"
    );

    for fid in 0..k.fs.len() as u32 {
        let want = opens.get(&fid).copied().unwrap_or(0);
        assert_eq!(
            k.fs.file(fid).map(|f| f.opens),
            Some(want),
            "file {fid} opens"
        );
    }
    let held: BTreeMap<(u32, u32), u32> = k.file_chans.iter().map(|(&k, c)| (k, c.refs)).collect();
    assert_eq!(held, chan_refs, "(tid, fid) offset-slot references");
    for (pid, p) in (0u32..).zip(&k.pipes) {
        let count = |read_end| ends.get(&(pid, read_end)).map_or(0, Vec::len) as u32;
        assert_eq!(
            (p.readers, p.writers),
            (count(true), count(false)),
            "pipe {pid} end counts"
        );
    }
    for (pid, holder) in fused {
        assert_eq!(
            k.pipes[pid as usize].fused_by,
            Some(holder),
            "pipe {pid} has live bound sites in tid {holder}"
        );
        for read_end in [true, false] {
            let owners = ends.get(&(pid, read_end)).map_or(&[][..], Vec::as_slice);
            assert!(
                owners.iter().all(|&t| t == holder),
                "pipe {pid} is fused by tid {holder} but tids {owners:?} hold an end"
            );
        }
    }
}

//! The ready queue as one owned structure: what a membership change
//! writes, and that no sequence of changes leaves a link wrong.
//!
//! - **Write counts.** A `start` or `stop` writes each disturbed `jmp`
//!   link once — counted through `JumpChain::patch_count`, with the
//!   links that actually changed read back from code memory.
//! - **Churn.** A seeded random walk over everything that moves a
//!   thread on or off a chain — start, stop, destroy (half of them with
//!   a signal just delivered), blocking on a pipe and being woken
//!   through it, thread and CPU quarantine, work stealing, a thread's
//!   first FP instruction — on 1, 2 and 4 CPUs with
//!   threads under two address maps, holding
//!   `common::assert_chains_consistent` after every step. The same walk
//!   opens, closes, pipes, attaches and binds call sites on fds the
//!   guest programs never use, holding `common::assert_code_consistent`
//!   beside it. Replays under `SOAK_SEED` via the shared soak plumbing.

mod common;

use std::collections::BTreeMap;

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Operand::*, Size::*};
use quamachine::machine::RunExit;
use quamachine::mem::AddressMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use synthesis::kernel::kernel::{Kernel, KernelConfig};
use synthesis::kernel::layout;
use synthesis::kernel::syscall::traps;
use synthesis::kernel::thread::tte::off;
use synthesis::kernel::thread::{ThreadState, Tid};

const USTACK: u32 = layout::USER_BASE + 0x1_0000;
const UBUF: u32 = layout::USER_BASE + 0x2_0000;

/// The two address maps the threads run under: the user window, and a
/// flat map over the whole quaspace. Links between threads of different
/// maps go through `sw_in_mmu`.
fn maps(k: &Kernel) -> [AddressMap; 2] {
    [
        AddressMap::single(1, layout::USER_BASE, layout::USER_LEN),
        AddressMap::single(1, 0, k.m.mem.size()),
    ]
}

/// The installed target of every live thread's chain `jmp`.
fn installed_links(k: &Kernel) -> BTreeMap<Tid, u32> {
    k.threads
        .iter()
        .map(|(&tid, t)| (tid, common::installed_jmp(k, k.switch_entries(t).chain)))
        .collect()
}

/// Run `op`, returning `(jmp writes it made, links whose target changed)`.
/// Equal numbers mean every write landed on a different `jmp` and changed
/// it: nothing was written twice, nothing provisionally.
fn writes_and_changes(k: &mut Kernel, op: impl FnOnce(&mut Kernel)) -> (u64, usize) {
    let count = |k: &Kernel| k.cpus.iter().map(|c| c.ready.patch_count).sum::<u64>();
    let (writes0, links0) = (count(k), installed_links(k));
    op(k);
    let links1 = installed_links(k);
    let changed = links1
        .iter()
        .filter(|(tid, target)| links0.get(tid) != Some(target))
        .count();
    common::assert_chains_consistent(k);
    (count(k) - writes0, changed)
}

#[test]
fn a_membership_change_writes_each_disturbed_link_once() {
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        ..KernelConfig::default()
    })
    .unwrap();
    let mut spin = Asm::new("spin");
    let top = spin.here();
    spin.bcc(Cond::T, top);
    let entry = k.load_user_program(spin.assemble().unwrap()).unwrap();
    let maps = maps(&k);
    let tids: Vec<Tid> = (0..4u32)
        .map(|i| {
            k.create_thread(entry, USTACK + 0x100 * i, maps[i as usize % 2].clone())
                .unwrap()
        })
        .collect();

    // Into the idle-only chain, idle current: the newcomer's self-link
    // and idle's exit, which now leaves the chain it used to be.
    assert_eq!(
        writes_and_changes(&mut k, |k| k.start(tids[0]).unwrap()),
        (2, 2)
    );
    k.start(tids[1]).unwrap();
    k.run(50_000);
    let cur = k.current_tid().expect("a thread is running");
    assert!(k.cpus[0].ready.contains(cur), "a real thread is current");
    assert_eq!(k.cpus[0].ready.len(), 2);

    // Steady state, into a 2-thread chain: the two disturbed links.
    let (writes, changed) = writes_and_changes(&mut k, |k| k.start(tids[2]).unwrap());
    assert!(writes <= 3, "start made {writes} jmp writes");
    assert_eq!((writes, changed), (2, 2));
    // ...and out of it again: the predecessor's link.
    let (writes, changed) = writes_and_changes(&mut k, |k| k.stop(tids[2]).unwrap());
    assert!(writes <= 2, "stop made {writes} jmp writes");
    assert_eq!((writes, changed), (1, 1));
    // Stopping the running thread also re-aims its own exit at the head.
    let (writes, _) = writes_and_changes(&mut k, |k| k.stop(cur).unwrap());
    assert!(writes <= 2, "stop made {writes} jmp writes");
    // With the CPU idling off-chain, a start re-aims idle's exit too.
    let other = if cur == tids[0] { tids[1] } else { tids[0] };
    k.stop(other).unwrap();
    k.start(tids[3]).unwrap();
    let (writes, _) = writes_and_changes(&mut k, |k| k.start(cur).unwrap());
    assert!(writes <= 3, "start made {writes} jmp writes");
}

/// The guest side of the churn: four programs over one pipe end each.
/// Readers block when their pipe is empty and writers when it is full,
/// and each wakes the other side through the pipe's wait flag; the FP
/// variants take the lazy-FP trap on their first instruction and have
/// their switch code resynthesized while on the chain.
fn load_programs(k: &mut Kernel) -> Vec<u32> {
    let mut entries = Vec::new();
    for (write, fp) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut a = Asm::new("churn");
        if fp {
            a.fmove_load(Abs(UBUF), 0);
        }
        let top = a.here();
        a.move_i(L, u32::from(write), Dr(0)); // fd 0 reads, fd 1 writes
        a.lea(Abs(UBUF), 0);
        a.move_i(L, 1, Dr(1));
        a.trap(if write { traps::WRITE } else { traps::READ });
        a.bcc(Cond::T, top);
        entries.push(k.load_user_program(a.assemble().unwrap()).unwrap());
    }
    entries
}

const PIPES: u32 = 3;
const MAX_LIVE: usize = 10;
const STEPS: usize = 400;

/// Call sites for the churn to bind: a block of `jsr thunk` nobody
/// executes. Returns the thunk (every site's re-arm and layered target)
/// and the sites, each handed out once.
fn load_sites(k: &mut Kernel) -> (u32, Vec<u32>) {
    let mut thunk = Asm::new("thunk");
    thunk.rts();
    let thunk = k.load_user_program(thunk.assemble().unwrap()).unwrap();
    let mut a = Asm::new("sites");
    for _ in 0..STEPS {
        a.jsr(Abs(thunk));
    }
    let base = k.load_user_program(a.assemble().unwrap()).unwrap();
    let sites = (0..STEPS).map(|i| k.m.code.addr_of(base, i).unwrap());
    (thunk, sites.collect())
}

/// One random change to the channel table of `tid`, on fds past the two
/// its program reads and writes: open, close, a pipe of its own, one more
/// attach to a live pipe, or a call site bound to one of its fds.
fn channel_op(k: &mut Kernel, rng: &mut SmallRng, tid: Tid, thunk: u32, sites: &mut Vec<u32>) {
    let spare: Vec<u32> = k.threads[&tid]
        .fds
        .iter()
        .map(|f| f.fd)
        .filter(|&fd| fd >= 2)
        .collect();
    let some_fd = |rng: &mut SmallRng| spare.get(rng.random_range(0..spare.len().max(1)));
    // Out of fds (EMFILE) is a legal answer to the three that open.
    match rng.random_range(0..6u32) {
        0 => {
            let paths = ["/dev/null", "/dev/tty", "/dev/tty-raw"];
            let _ = k.open_for(tid, paths[rng.random_range(0..paths.len())]);
        }
        1 => {
            if let Some(&fd) = some_fd(rng) {
                k.close_for(tid, fd).unwrap();
            }
        }
        2 => {
            let _ = k.pipe_for(tid);
        }
        3 => {
            // A pipe some thread has fused, when there is one.
            let fused = (0..k.pipes.len() as u32).find(|&p| k.pipe_holder(p).is_some());
            let pid = fused.unwrap_or(rng.random_range(0..PIPES));
            let _ = k.pipe_attach(tid, pid);
        }
        _ => {
            if let (Some(&fd), Some(site)) = (some_fd(rng), sites.pop()) {
                let write = rng.random::<bool>();
                let at = k.bind_site(tid, fd, write, site, thunk, thunk);
                let bound = k.fused_rw_spec(tid, fd, write).is_some();
                assert_eq!(at != thunk, bound, "tid {tid} fd {fd} write {write}");
            }
        }
    }
}

/// Returns whether the walk ever had a call site bound, and one retired.
fn churn(k: &mut Kernel, seed: u64) -> (bool, bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let programs = load_programs(k);
    let (thunk, mut sites) = load_sites(k);
    let maps = maps(k);
    // A never-started thread holds both ends of every pipe open, so the
    // rings outlive whichever workers come and go.
    let holder = k
        .create_thread(programs[0], USTACK, maps[0].clone())
        .unwrap();
    for _ in 0..PIPES {
        k.pipe_for(holder).unwrap();
    }
    let mut live: Vec<Tid> = Vec::new();
    let mut spawned = 0u32;
    let mut fp_resynthesized = false;
    let mut sites_seen = (false, false);
    for step in 0..STEPS {
        let pick = |rng: &mut SmallRng, live: &[Tid]| live[rng.random_range(0..live.len())];
        let roll = rng.random_range(0..100u32);
        match roll {
            _ if live.is_empty() || (roll < 15 && live.len() < MAX_LIVE) => {
                let program = programs[rng.random_range(0..programs.len())];
                let map = maps[rng.random_range(0..maps.len())].clone();
                spawned += 1;
                let tid = k
                    .create_thread(program, USTACK + 0x100 * spawned, map)
                    .unwrap();
                k.pipe_attach(tid, rng.random_range(0..PIPES)).unwrap();
                k.start(tid).unwrap();
                live.push(tid);
            }
            0..=39 => match k.run(rng.random_range(500..30_000u64)) {
                RunExit::CycleLimit | RunExit::Halted => {}
                other => panic!("step {step}: run returned {other:?}"),
            },
            40..=54 => {
                let tid = pick(&mut rng, &live);
                channel_op(k, &mut rng, tid, thunk, &mut sites);
            }
            55..=69 => {
                // Whatever state it is in: stopped, blocked (it re-tests
                // its pipe and blocks again), running, quarantined.
                let tid = pick(&mut rng, &live);
                let refused = k.start(tid).is_err();
                assert_eq!(refused, k.is_quarantined(tid), "step {step}: start({tid})");
            }
            70..=81 => k.stop(pick(&mut rng, &live)).unwrap(),
            82..=93 => {
                let tid = live.swap_remove(rng.random_range(0..live.len()));
                if roll >= 88 {
                    // Destroyed with a delivered signal's saved registers
                    // still waiting for a `SIG_RETURN`.
                    let handler = k.threads[&tid].tte + off::SIG_HANDLER;
                    k.m.mem.poke(handler, L, programs[0]);
                    k.signal(tid, 1).unwrap();
                    common::assert_chains_consistent(k);
                }
                k.destroy(tid).unwrap();
            }
            94..=96 => k.quarantine(pick(&mut rng, &live), "churn"),
            _ => {
                let cpu = rng.random_range(0..k.cpus.len());
                k.quarantine_cpu(cpu, "churn");
            }
        }
        // Threads reaped by the kernel itself (none expected) would show
        // up here rather than as a stale tid in a later step.
        live.retain(|t| k.threads.contains_key(t));
        fp_resynthesized |= live.iter().any(|t| k.uses_fp(&k.threads[t]));
        common::assert_chains_consistent(k);
        common::assert_code_consistent(k);
        for f in k.threads.values().flat_map(|t| &t.fds) {
            sites_seen.0 |= f.bound.iter().any(|b| !b.retired);
            sites_seen.1 |= f.bound.iter().any(|b| b.retired);
        }
    }
    assert!(
        fp_resynthesized,
        "no FP thread ever ran its first instruction"
    );
    assert_eq!(k.threads[&holder].state, ThreadState::Stopped);
    assert!(
        k.trace.frame_tids().all(|t| k.threads.contains_key(&t)),
        "a destroyed thread's exception-frame stack is still tracked"
    );
    sites_seen
}

#[test]
fn seeded_churn_keeps_every_chain_and_wait_list_consistent() {
    let mut sites_seen = (false, false);
    for seed in common::soak_seeds(6) {
        for cpus in [1usize, 2, 4] {
            common::soak_case(
                "ready_queue",
                "seeded_churn_keeps_every_chain_and_wait_list_consistent",
                seed,
                |slot| {
                    let k = slot.insert(
                        Kernel::boot(KernelConfig {
                            cpus,
                            default_quantum_us: 100,
                            ..KernelConfig::default()
                        })
                        .unwrap(),
                    );
                    let seen = churn(k, seed);
                    sites_seen = (sites_seen.0 | seen.0, sites_seen.1 | seen.1);
                },
            );
        }
    }
    assert_eq!(
        sites_seen,
        (true, true),
        "the walks bound a call site, and retired one"
    );
}

/// Whether the active CPU's PC lies in a block made from a switch
/// template, as code memory names the block.
fn pc_in_switch_template(k: &Kernel) -> bool {
    use synthesis::kernel::templates::ctxsw::SWITCH_TEMPLATES;
    let code = &k.m.code;
    code.locate(k.m.cpu.pc)
        .and_then(|l| code.block(l.block_base))
        .is_some_and(|b| SWITCH_TEMPLATES.contains(&&*b.name))
}

/// One step of the active CPU, which must execute no kernel call.
fn step_plain(k: &mut Kernel) {
    match k.m.step() {
        Ok(None) => {}
        other => panic!("a switch between same-map threads stepped to {other:?}"),
    }
}

/// The safe-point test asks code memory which block holds the PC. A CPU
/// stopped at each instruction boundary of a switch — the outgoing
/// thread's switch-out through its chain `jmp`, then the incoming one's
/// switch-in — is stepped by `ensure_safe_point` out of every thread's
/// switch block, and leaves every chain consistent: through `sw_basic`,
/// and through `sw_fp` once the lazy-FP trap has resynthesized every
/// thread's switch, on 1 and 2 CPUs.
#[test]
fn a_cpu_stopped_anywhere_in_a_switch_steps_to_a_safe_point() {
    for cpus in [1usize, 2] {
        for fp in [false, true] {
            let mut k = Kernel::boot(KernelConfig {
                cpus,
                ..KernelConfig::default()
            })
            .unwrap();
            let mut a = Asm::new("spin");
            if fp {
                a.fmove_load(Abs(UBUF), 0);
            }
            let top = a.here();
            a.add(L, Imm(1), Dr(0));
            a.bcc(Cond::T, top);
            let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
            let map = maps(&k)[0].clone();
            let tids: Vec<Tid> = (0..2 * cpus as u32)
                .map(|i| {
                    let tid = k
                        .create_thread(entry, USTACK + 0x100 * i, map.clone())
                        .unwrap();
                    k.start(tid).unwrap();
                    tid
                })
                .collect();
            // Spread over the CPUs, every thread past its first
            // instruction (and its FP trap).
            k.run(400_000);
            for tid in &tids {
                assert_eq!(k.uses_fp(&k.threads[tid]), fp, "tid {tid} fp {fp}");
            }
            let at = format!("{cpus} cpu(s), fp {fp}");
            let mut boundary = 0;
            loop {
                // Up to the next switch, then `boundary` instructions in.
                let mut budget = 100_000;
                while !pc_in_switch_template(&k) {
                    step_plain(&mut k);
                    budget -= 1;
                    assert!(budget > 0, "{at}: no switch within 100,000 steps");
                }
                for _ in 0..boundary {
                    step_plain(&mut k);
                    if !pc_in_switch_template(&k) {
                        break;
                    }
                }
                if !pc_in_switch_template(&k) {
                    break; // past the last boundary of the switch
                }
                let pc = k.m.cpu.pc;
                k.ensure_safe_point();
                let pc_after = k.m.cpu.pc;
                for (tid, t) in &k.threads {
                    assert!(
                        !(t.sw.base..t.sw.base + t.sw.size).contains(&pc_after),
                        "{at}: stopped at {pc:#x} (boundary {boundary}), left at \
                         {pc_after:#x}, inside tid {tid}'s switch code"
                    );
                }
                common::assert_chains_consistent(&k);
                boundary += 1;
            }
            assert!(
                boundary > 10,
                "{at}: a switch of only {boundary} instruction boundaries"
            );
        }
    }
}

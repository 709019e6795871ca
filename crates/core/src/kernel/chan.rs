//! The channel table's one owner: which code serves a `(tid, fd)`, and
//! when that stops being valid.
//!
//! An open fd is served by the endpoint routines linked into the thread's
//! fd table (`code`) and — for a caller the kernel can
//! [fuse](Kernel::fusable) — by trap-elided wrappers patched straight into
//! the caller's `jsr` sites (`bound`); both hang off its
//! [`OpenFd`]. This module is the only code that writes an fd slot (the
//! guest table's, and the thread's list of open fds) or a user `jsr`
//! operand, and it keeps one invariant: **a cached block's reference
//! count is the number of fd `code` and `bound` entries naming it**
//! (stream channels aside), and a live bound site's installed operand is
//! its wrapper's entry. A bound site has three transitions:
//!
//! - **bind** ([`Kernel::bind_site`]), at the site's first execution:
//!   specialize the wrapper, patch the site, record both on the fd — or,
//!   refused, patch the caller's layered entry instead;
//! - **attach** ([`Kernel::pipe_attach`]), the only operation that can
//!   falsify *solo* after a bind: the pipe's sites are *retired* —
//!   re-armed, so the next call is refused into the layered path (for
//!   good), with the wrapper's reference kept on the fd. Only a wrapper's
//!   fast path, entry through publish, relies on solo: a caller already
//!   in it is stepped out first, and one parked in it makes the attach
//!   answer `EAGAIN` with nothing changed. A caller further on — blocked
//!   in the general body on this very pipe, say — resumes in code that
//!   wakes its peer like any other, which is why the wrapper stays;
//! - **teardown** (`release_bound`, ahead of `release_channel`), where
//!   `close` and every way a thread dies end: live sites are re-armed
//!   and every wrapper released, so no caller has to remember to.
//!
//! The fd lists are also the one record of what is open. A thread's fds
//! on one file share the offset slot the first of them took; a pipe's
//! ends, and its fused holder, are the fds that name it
//! ([`Kernel::pipe_ends`], [`Kernel::pipe_holder`]); and teardown frees
//! a slot or a ring once no listed fd names it. Those scans run at open,
//! close, bind and attach, never on a call.
//!
//! Limit: the in-flight check is the attach's alone. A host-side
//! [`close_for`](Kernel::close_for) or `destroy` of a thread preempted
//! inside one of the fd's wrappers releases the block under it, as it
//! always has under a thread preempted inside the fd's `code`.

use std::ops::RangeInclusive;

use quamachine::isa::{Instr, Operand, Size};
use quamachine::mem::AddressMap;
use synthesis_codegen::creator::Synthesized;
use synthesis_codegen::template::Bindings;

use super::Kernel;
use crate::channel::{ChannelClass, ChannelSpec};
use crate::charges;
use crate::io::pipe::{Pipe, DEFAULT_PIPE_SIZE};
use crate::layout;
use crate::syscall::errno;
use crate::thread::tte::{off, Bound, OpenFd};
use crate::thread::{Thread, Tid};

/// Whether `f` is an end of pipe `pid`.
fn on_pipe(f: &OpenFd, pid: u32) -> bool {
    matches!(f.class, ChannelClass::Pipe { pid: p, .. } if p == pid)
}

/// `t`'s live (not retired) bound sites on pipe `pid`, either end.
fn live_pipe_sites(t: &mut Thread, pid: u32) -> impl Iterator<Item = &mut Bound> {
    t.fds
        .iter_mut()
        .filter(move |f| on_pipe(f, pid))
        .flat_map(|f| &mut f.bound)
        .filter(|b| !b.retired)
}

impl Kernel {
    // --- open ---------------------------------------------------------------

    /// Open `path` for the current thread: find the object, synthesize
    /// its `read`/`write`, dynamic-link them into the fd table.
    ///
    /// # Errors
    ///
    /// Returns an errno.
    pub fn open(&mut self, path: &str) -> Result<u32, u32> {
        let tid = self.current_tid().ok_or(errno::EINVAL as u32)?;
        self.open_for(tid, path)
    }

    /// Open on behalf of a specific thread (host API).
    ///
    /// # Errors
    ///
    /// Returns an errno.
    pub fn open_for(&mut self, tid: Tid, path: &str) -> Result<u32, u32> {
        let spec = self.lookup_channel(tid, path)?;
        self.open_channel(tid, spec)
    }

    /// Maximum path length accepted by [`Kernel::read_user_string`]
    /// (bytes, excluding the terminating NUL).
    pub const PATH_MAX: u32 = 255;

    /// Read a NUL-terminated string (the path given to `open`) from the
    /// caller's space.
    ///
    /// # Errors
    ///
    /// `ENAMETOOLONG` when no NUL appears within [`Kernel::PATH_MAX`]
    /// bytes — a longer buffer must not be silently truncated into a
    /// valid-looking path.
    pub fn read_user_string(&self, addr: u32) -> Result<String, i32> {
        let mut s = Vec::new();
        for i in 0..=Kernel::PATH_MAX {
            let b = self.m.mem.peek(addr + i, Size::B) as u8;
            if b == 0 {
                return Ok(String::from_utf8_lossy(&s).into_owned());
            }
            s.push(b);
        }
        Err(errno::ENAMETOOLONG)
    }

    /// The name-lookup stage of `open`: map a path to its [`ChannelSpec`]
    /// and acquire the class state (a file's offset slot).
    fn lookup_channel(&mut self, tid: Tid, path: &str) -> Result<ChannelSpec, u32> {
        let t = self.threads.get(&tid).ok_or(errno::EINVAL as u32)?;
        let gauge = t.tte + off::GAUGE;
        match path {
            "/dev/null" => Ok(ChannelSpec::null(gauge)),
            "/dev/tty" | "/dev/tty-raw" => {
                Ok(ChannelSpec::tty(&self.tty_srv, path == "/dev/tty", gauge))
            }
            _ => {
                // The name lookup: charge per character actually scanned
                // (Section 6.3: ~60% of open's cost).
                let (found, scanned) = self.fs.lookup(path);
                let c = charges::name_scan(&self.m.cost, scanned as u32);
                self.m.charge(c);
                let fid = found.ok_or(errno::ENOENT as u32)?;
                // One offset slot per (thread, file): every open of the
                // same file in the same thread shares it, so the bindings
                // — and therefore the synthesized code — are identical
                // and the specialization cache hits.
                let offset_slot = match self.file_slot(tid, fid) {
                    Some(slot) => slot,
                    None => {
                        let slot = self.heap_alloc(4).map_err(|_| errno::ENOMEM as u32)?;
                        self.m.mem.poke(slot, Size::L, 0);
                        slot
                    }
                };
                let f = self.fs.file(fid).expect("fid valid");
                Ok(ChannelSpec::file(f, offset_slot, gauge))
            }
        }
    }

    /// The offset slot `tid`'s open fds on file `fid` share, if it has
    /// any open.
    fn file_slot(&self, tid: Tid, fid: u32) -> Option<u32> {
        let fds = &self.threads.get(&tid)?.fds;
        fds.iter().find_map(|f| match f.class {
            ChannelClass::File {
                fid: g,
                offset_slot,
            } if g == fid => Some(offset_slot),
            _ => None,
        })
    }

    /// The generic open pipeline: allocate an fd, specialize each
    /// endpoint through the creator's cache, dynamic-link the entries
    /// into the fd table. All failures funnel through the one
    /// `release_channel` rollback — the same teardown `close` uses.
    fn open_channel(&mut self, tid: Tid, spec: ChannelSpec) -> Result<u32, u32> {
        let rollback = |k: &mut Kernel, code: &[Synthesized], e: i32| -> u32 {
            k.release_channel(tid, spec.class, code);
            e as u32
        };
        let Some(t) = self.threads.get(&tid) else {
            return Err(rollback(self, &[], errno::EINVAL));
        };
        let Some(fd) = t.free_fd() else {
            return Err(rollback(self, &[], errno::EMFILE));
        };
        let ebadf = self.ebadf;
        let mut code: Vec<Synthesized> = Vec::with_capacity(2);
        let mut entries = [ebadf, ebadf];
        for (i, end) in [&spec.read, &spec.write].into_iter().enumerate() {
            let Some(end) = end else { continue };
            match self.synthesize_cached_for(tid, end.template, &end.bindings) {
                Ok(s) => {
                    entries[i] = s.base;
                    code.push(s);
                }
                Err(_) => return Err(rollback(self, &code, errno::ENOMEM)),
            }
        }
        self.link_fd(tid, fd, entries[0], entries[1]);
        let fds = &mut self.threads.get_mut(&tid).expect("exists").fds;
        let at = fds.partition_point(|f| f.fd < fd);
        fds.insert(
            at,
            OpenFd {
                fd,
                class: spec.class,
                code,
                bound: Vec::new(),
            },
        );
        Ok(fd)
    }

    /// The dynamic-link stage: store the synthesized entry points into
    /// the thread's fd table.
    fn link_fd(&mut self, tid: Tid, fd: u32, read_entry: u32, write_entry: u32) {
        let t = &self.threads[&tid];
        let (rs, ws) = (t.fd_read_slot(fd), t.fd_write_slot(fd));
        self.m.mem.poke(rs, Size::L, read_entry);
        self.m.mem.poke(ws, Size::L, write_entry);
        let c = 2 * charges::code_patch(&self.m.cost);
        self.m.charge(c);
    }

    // --- call-site fusion ---------------------------------------------------

    /// Whether a caller running under `map` can be fused with the
    /// kernel: its map covers the kernel's whole flat space — so the
    /// trap protects nothing a `jsr` would expose.
    #[must_use]
    pub fn fusable(&self, map: &AddressMap) -> bool {
        map.allows(0, self.m.mem.size(), true)
    }

    /// Whether pipe `pid` is *solo* for `tid`: exactly one read fd and
    /// one write fd exist, and both are `tid`'s (the counts alone also
    /// describe an ordinary two-thread producer/consumer pipe).
    fn solo(&self, tid: Tid, pid: u32) -> bool {
        self.pipe_ends(pid) == (1, 1) && self.pipe_fds(pid).all(|(owner, _)| owner == tid)
    }

    /// The fused (trap-elided) wrapper spec for `(tid, fd)`: the template
    /// name plus complete bindings, ready for
    /// [`Kernel::synthesize_cached_for`]. `write` selects the end (the
    /// fd class alone decides for pipe ends, which only have one).
    ///
    /// `None` when the thread's map does not cover kernel space (see
    /// [`fusable`](Kernel::fusable)), the fd is not an open channel, the
    /// end has no fused form, or — for pipes — the pipe is not *solo*:
    /// one read fd and one write fd, both in `tid`'s own table. Solo is
    /// what lets the fused 1-byte path elide the peer-wake check: no
    /// other thread holds an end, and a thread cannot be blocked on the
    /// pipe it is currently calling into. Closing an end keeps that true;
    /// only [`pipe_attach`](Kernel::pipe_attach) can end it, and it
    /// retires the pipe's bound sites before it does.
    #[must_use]
    pub fn fused_rw_spec(&self, tid: Tid, fd: u32, write: bool) -> Option<(String, Bindings)> {
        let t = self.threads.get(&tid)?;
        if !self.fusable(&t.map) {
            return None;
        }
        let class = &t.fd(fd)?.class;
        let gauge = t.tte + off::GAUGE;
        // Reconstruct the open-time spec read-only (no refcounts move;
        // the fd already holds them).
        let spec = match *class {
            ChannelClass::Null => ChannelSpec::null(gauge),
            ChannelClass::Tty { cooked } => ChannelSpec::tty(&self.tty_srv, cooked, gauge),
            ChannelClass::File { fid, offset_slot } => {
                ChannelSpec::file(self.fs.file(fid)?, offset_slot, gauge)
            }
            ChannelClass::Pipe { pid, read_end } => {
                if read_end == write || !self.solo(tid, pid) {
                    return None; // wrong direction for this end, or shared
                }
                ChannelSpec::pipe(self.live_pipe(pid)?, read_end, gauge)
            }
        };
        spec.fused_end(!write, fd)
    }

    /// Bind the call site at `site` — an absolute `jsr` in `tid`'s image,
    /// executing its bind thunk right now — to the fused wrapper of
    /// `(tid, fd)`: specialize the wrapper, patch the `jsr` to enter it,
    /// and record both on the fd, whose teardown re-arms the site to
    /// `rearm` (the thunk that leads back here) and releases the wrapper.
    /// When there is no wrapper to be had (see
    /// [`fused_rw_spec`](Kernel::fused_rw_spec); or code space is out, or
    /// `site` is no such `jsr`) the site is patched to `layered` for
    /// good. Returns the address the call in progress continues at.
    pub fn bind_site(
        &mut self,
        tid: Tid,
        fd: u32,
        write: bool,
        site: u32,
        rearm: u32,
        layered: u32,
    ) -> u32 {
        self.try_bind(tid, fd, write, site, rearm)
            .unwrap_or_else(|| {
                // Fails only on a non-`jsr`, which goes layered unpatched.
                let _ = self.m.code.patch_jsr_target(site, layered);
                layered
            })
    }

    fn try_bind(&mut self, tid: Tid, fd: u32, write: bool, site: u32, rearm: u32) -> Option<u32> {
        let (name, bindings) = self.fused_rw_spec(tid, fd, write)?;
        // A site an attach retired stays layered, solo again or not: its
        // entry holds the old wrapper until the fd's teardown.
        let open = self.threads[&tid].fd(fd)?;
        if open.bound.iter().any(|b| b.site == site) {
            return None;
        }
        let wrapper = self.synthesize_cached_for(tid, &name, &bindings).ok()?;
        let entry = wrapper.base;
        if self.m.code.patch_jsr_target(site, entry).is_err() {
            self.release_code_for(tid, &wrapper); // no absolute `jsr` there
            return None;
        }
        let t = self.threads.get_mut(&tid)?;
        let open = t.fds.iter_mut().find(|f| f.fd == fd);
        let open = open.expect("(tid, fd) has a fused spec, so it is open");
        open.bound.push(Bound {
            site,
            rearm,
            wrapper,
            retired: false,
        });
        Some(entry)
    }

    /// The stretch of the fused pipe wrapper at `base` that relies on
    /// *solo*: entry through the fast path's publish — its first store to
    /// the ring's head or tail, which no peer-wake check follows. Past it
    /// lie the epilogue, the collapsed general body and the re-trap, which
    /// block and wake like any layered caller.
    fn solo_only(&self, base: u32, pid: u32) -> RangeInclusive<u32> {
        let p = self.live_pipe(pid).expect("a bound site's fd names it");
        let slots = [p.head_slot, p.tail_slot];
        let publish =
            |i: &Instr| matches!(i, Instr::Move(_, _, Operand::Abs(a)) if slots.contains(a));
        let block = self.m.code.block(base).expect("a bound site pins it");
        let at = block.instrs.iter().position(publish);
        let at = at.expect("a fused pipe wrapper publishes");
        base..=self.m.code.addr_of(base, at).expect("in the block")
    }

    /// Step every CPU executing the [solo-only](Kernel::solo_only) part of
    /// one of `holder`'s wrappers on pipe `pid` out of it, and answer
    /// `EAGAIN` if `holder` would still resume inside one: that part makes
    /// no calls, so the only ways back in are a CPU's PC and the exception
    /// frames on `holder`'s kernel stack (scanned conservatively — any
    /// long that looks like such an address counts). A holder blocked or
    /// preempted further on — in the general body, say, waiting on this
    /// very pipe for the peer the attach brings — is no obstacle. Changes
    /// nothing but where the CPUs stand.
    fn vacate_pipe_wrappers(&mut self, holder: Tid, pid: u32) -> Result<(), u32> {
        let Some(t) = self.threads.get_mut(&holder) else {
            return Ok(());
        };
        let (tte, kstack) = (t.tte, t.kstack());
        let bases: Vec<u32> = live_pipe_sites(t, pid).map(|b| b.wrapper.base).collect();
        let extents: Vec<_> = bases.iter().map(|&b| self.solo_only(b, pid)).collect();
        let inside = |pc: u32| extents.iter().any(|x| x.contains(&pc));
        let cpus = 0..self.cpus.len();
        for cpu in cpus.clone() {
            if inside(self.m.cpu_ref(cpu).pc) {
                self.m.switch_cpu(cpu);
                self.step_while(|k, pc| inside(pc) || k.in_switch_code());
            }
        }
        // A parked thread's stack starts with the frame it resumes through.
        let ssp = match cpus
            .clone()
            .find(|&c| self.current_tid_on(c) == Some(holder))
        {
            Some(cpu) => self.m.cpu_ref(cpu).ssp(),
            None => self.m.mem.peek(tte + off::SSP, Size::L),
        };
        let mut frames = (ssp.max(kstack)..kstack + layout::KSTACK_LEN - 3).step_by(2);
        if cpus.into_iter().any(|c| inside(self.m.cpu_ref(c).pc))
            || frames.any(|a| inside(self.m.mem.peek(a, Size::L)))
        {
            return Err(errno::EAGAIN as u32);
        }
        Ok(())
    }

    /// Retire `holder`'s bound sites on pipe `pid`: each is re-armed, so
    /// its next call re-enters the bind thunk and is refused; its wrapper
    /// stays referenced by the fd until the fd's teardown.
    fn retire_pipe_sites(&mut self, holder: Tid, pid: u32) {
        let Some(t) = self.threads.get_mut(&holder) else {
            return;
        };
        for b in live_pipe_sites(t, pid) {
            // Fails only when the embedder unloaded the image, which then
            // has no site to re-arm.
            let _ = self.m.code.patch_jsr_target(b.site, b.rearm);
            b.retired = true;
        }
    }

    // --- close --------------------------------------------------------------

    /// Close fd `fd` of the current thread.
    ///
    /// # Errors
    ///
    /// Returns an errno.
    pub fn close(&mut self, fd: u32) -> Result<(), u32> {
        let tid = self.current_tid().ok_or(errno::EINVAL as u32)?;
        self.close_for(tid, fd)
    }

    /// Close on behalf of a thread (host API).
    ///
    /// # Errors
    ///
    /// Returns an errno.
    pub fn close_for(&mut self, tid: Tid, fd: u32) -> Result<(), u32> {
        let t = self.threads.get_mut(&tid).ok_or(errno::EINVAL as u32)?;
        let at = t.fds.iter().position(|f| f.fd == fd);
        let open = t.fds.remove(at.ok_or(errno::EBADF as u32)?);
        // Call sites first: nothing may enter the fd's code through a
        // `jsr` once its slots stop naming it.
        self.release_bound(tid, open.bound);
        let ebadf = self.ebadf;
        self.link_fd(tid, fd, ebadf, ebadf);
        self.release_channel(tid, open.class, &open.code);
        Ok(())
    }

    /// Everything an fd holds, given back: its call sites, then its code
    /// and class state.
    pub(super) fn release_fd(&mut self, tid: Tid, open: OpenFd) {
        self.release_bound(tid, open.bound);
        self.release_channel(tid, open.class, &open.code);
    }

    /// Re-arm every live site in `bound` and release the wrappers.
    fn release_bound(&mut self, tid: Tid, bound: Vec<Bound>) {
        for b in &bound {
            if !b.retired {
                // See `retire_pipe_sites` for the ignored error.
                let _ = self.m.code.patch_jsr_target(b.site, b.rearm);
            }
            self.release_code_for(tid, &b.wrapper);
        }
    }

    /// THE teardown path, once the fd's call sites are released: destroy
    /// the endpoint code (dropping cache references) and release the
    /// class state — a file's offset slot, a pipe's ring — once no listed
    /// fd names it, so the fd must already be off its thread's list. Used
    /// by `close`, thread destruction, and the open pipeline's rollback —
    /// there is exactly one unwind.
    fn release_channel(&mut self, tid: Tid, class: ChannelClass, code: &[Synthesized]) {
        for s in code {
            self.release_code_for(tid, s);
        }
        match class {
            ChannelClass::Null | ChannelClass::Tty { .. } => {}
            ChannelClass::File { fid, offset_slot } => {
                if self.file_slot(tid, fid).is_none() {
                    self.heap.free(offset_slot, 4);
                }
            }
            ChannelClass::Pipe { pid, .. } => {
                if self.pipe_fds(pid).next().is_some() {
                    return;
                }
                // Free the ring; keep the table slot (ids are stable).
                if let Some(p) = self.pipes.get_mut(pid as usize).and_then(Option::take) {
                    p.release(&mut self.heap);
                    self.forget_pipe_waits(pid);
                }
            }
        }
    }

    // --- pipes --------------------------------------------------------------

    /// Pipe `pid`, while its ring is allocated: from its creation until
    /// the last fd naming it closes.
    #[must_use]
    pub fn live_pipe(&self, pid: u32) -> Option<&Pipe> {
        self.pipes.get(pid as usize)?.as_ref()
    }

    /// Every open fd on pipe `pid`, either end, with its thread.
    fn pipe_fds(&self, pid: u32) -> impl Iterator<Item = (Tid, &OpenFd)> {
        self.threads.iter().flat_map(move |(&tid, t)| {
            t.fds
                .iter()
                .filter(move |f| on_pipe(f, pid))
                .map(move |f| (tid, f))
        })
    }

    /// The open read-end and write-end fds on pipe `pid`, over every
    /// thread.
    #[must_use]
    pub fn pipe_ends(&self, pid: u32) -> (u32, u32) {
        self.pipe_fds(pid)
            .fold((0, 0), |(r, w), (_, f)| match f.class {
                ChannelClass::Pipe { read_end: true, .. } => (r + 1, w),
                _ => (r, w + 1),
            })
    }

    /// Pipe `pid`'s fused holder: the thread with a live (not retired)
    /// site bound to one of the pipe's wrappers. There is at most one,
    /// since a site binds only while its thread holds every open end, and
    /// [`pipe_attach`](Kernel::pipe_attach) retires the holder's sites
    /// before another end opens.
    #[must_use]
    pub fn pipe_holder(&self, pid: u32) -> Option<Tid> {
        self.pipe_fds(pid)
            .find(|(_, f)| f.bound.iter().any(|b| !b.retired))
            .map(|(tid, _)| tid)
    }

    /// Create a pipe for the current thread; returns `(read_fd, write_fd)`.
    ///
    /// # Errors
    ///
    /// Returns an errno.
    pub fn pipe(&mut self) -> Result<(u32, u32), u32> {
        let tid = self.current_tid().ok_or(errno::EINVAL as u32)?;
        self.pipe_for(tid)
    }

    /// Create a pipe on behalf of a thread (host API). It takes the
    /// lowest id no live pipe holds, so the table is as long as the most
    /// pipes ever live at once.
    ///
    /// # Errors
    ///
    /// Returns an errno.
    pub fn pipe_for(&mut self, tid: Tid) -> Result<(u32, u32), u32> {
        let slot = self.pipes.iter().position(Option::is_none);
        let slot = slot.unwrap_or(self.pipes.len());
        let pid = slot as u32;
        let p = self
            .heap_retry(|k| Pipe::allocate(&mut k.m, &mut k.heap, pid, DEFAULT_PIPE_SIZE))
            .map_err(|_| errno::ENOMEM as u32)?;
        // Register before attaching so the endpoints go through the
        // ordinary registry path.
        if slot == self.pipes.len() {
            self.pipes.push(None);
        }
        self.pipes[slot] = Some(p);
        self.pipe_attach_inner(tid, pid).inspect_err(|_| {
            // An end that opened went through the one teardown, which
            // freed the ring when its fd closed; free it here if none
            // opened, and drop a never-exposed table slot at the end.
            if let Some(p) = self.pipes[slot].take() {
                p.release(&mut self.heap);
            }
            if slot + 1 == self.pipes.len() {
                self.pipes.pop();
            }
        })
    }

    /// Attach an existing pipe to another thread (cross-thread pipes);
    /// returns `(read_fd, write_fd)` in that thread.
    ///
    /// This is the one operation that opens another end of a pipe, so it
    /// is where a *solo* pipe stops being one: the sites bound on it are
    /// retired (see the module docs) — after this returns `Ok`, no
    /// thread's next instruction lies on a fast path that elides the
    /// peer wake for this pipe, and no site leads into one.
    ///
    /// # Errors
    ///
    /// Returns an errno: `EINVAL` for a pipe never made, `EBADF` for one
    /// whose every end has closed (its ring is freed), and `EAGAIN` — with
    /// nothing changed — when the pipe's fused holder is parked on such a
    /// fast path, a dozen instructions that never block (the attach
    /// succeeds once the holder has run past them).
    pub fn pipe_attach(&mut self, tid: Tid, pid: u32) -> Result<(u32, u32), u32> {
        let p = self.pipes.get(pid as usize).ok_or(errno::EINVAL as u32)?;
        p.as_ref().ok_or(errno::EBADF as u32)?;
        let holder = self.pipe_holder(pid);
        if let Some(h) = holder {
            self.vacate_pipe_wrappers(h, pid)?;
        }
        let fds = self.pipe_attach_inner(tid, pid)?;
        if let Some(h) = holder {
            self.retire_pipe_sites(h, pid);
        }
        Ok(fds)
    }

    /// Open both ends of live pipe `pid` in `tid` through the channel
    /// registry. A write-end failure closes the read end through the
    /// normal `close` teardown — so a failure at either step leaves the
    /// pipe's ends as found.
    fn pipe_attach_inner(&mut self, tid: Tid, pid: u32) -> Result<(u32, u32), u32> {
        let t = self.threads.get(&tid).ok_or(errno::EINVAL as u32)?;
        let gauge = t.tte + off::GAUGE;
        let p = self.live_pipe(pid).ok_or(errno::EBADF as u32)?;
        let (rspec, wspec) = (
            ChannelSpec::pipe(p, true, gauge),
            ChannelSpec::pipe(p, false, gauge),
        );
        let rfd = self.open_channel(tid, rspec)?;
        match self.open_channel(tid, wspec) {
            Ok(wfd) => Ok((rfd, wfd)),
            Err(e) => {
                let _ = self.close_for(tid, rfd);
                Err(e)
            }
        }
    }

    // --- seek ---------------------------------------------------------------

    /// Set the seek offset of the current thread's file fd `fd` to `pos`
    /// (absolute); returns `pos`, `-EBADF` for anything but an open file,
    /// or `-EINVAL` — offset unchanged — for a `pos` past the file's
    /// current length: the synthesized `read`/`write` compute `len −
    /// offset` and `cap − offset` unsigned, and there are no file holes.
    pub fn seek(&mut self, fd: u32, pos: u32) -> i64 {
        let Some(tid) = self.current_tid() else {
            return -i64::from(errno::EBADF);
        };
        let t = &self.threads[&tid];
        let Some(ChannelClass::File { fid, offset_slot }) = t.fd(fd).map(|f| f.class) else {
            return -i64::from(errno::EBADF);
        };
        let f = self.fs.file(fid).expect("files are never removed");
        if pos > self.m.mem.peek(f.len_slot, Size::L) {
            return -i64::from(errno::EINVAL);
        }
        self.m.mem.poke(offset_slot, Size::L, pos);
        i64::from(pos)
    }
}

//! The quaject channel registry: declarative `open` specs.
//!
//! Every openable kernel object — `/dev/null`, the tty, cached files,
//! pipe ends — describes itself as a [`ChannelSpec`]: which templates to
//! specialize for the `read` and `write` ends, the bindings (the
//! invariants the creator factors in), and the class-specific state to
//! release at teardown. `Kernel::open_for` is then one generic pipeline
//! — lookup → specialize (cached) → dynamic-link — with a single
//! rollback path, instead of a per-device match with hand-cloned error
//! unwinds. Adding a device class means writing a new spec constructor,
//! not another match arm.

use synthesis_codegen::template::Bindings;

use crate::fs::File;
use crate::io::pipe::Pipe;
use crate::io::tty::TtyServer;

/// The kernel object behind an open fd ([`OpenFd::class`]), with the state
/// its teardown must release. The guest fd table holds only entry points;
/// this is the one record of what they serve, and the fd lists are the
/// one record of what is open: a file's offset slot and a pipe's ends
/// are whatever the open fds' classes name.
///
/// [`OpenFd::class`]: crate::thread::tte::OpenFd::class
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelClass {
    /// `/dev/null`.
    Null,
    /// The tty (`/dev/tty` cooked, `/dev/tty-raw` raw).
    Tty {
        /// Whether this is the cooked (line-editing) discipline.
        cooked: bool,
    },
    /// A cached file.
    File {
        /// File identifier in the [`crate::fs::Fs`].
        fid: u32,
        /// The seek-offset slot, shared by every open of this file in
        /// this thread (so identical invariants mean identical code):
        /// taken by the thread's first open of the file, freed when its
        /// last such fd closes.
        offset_slot: u32,
    },
    /// One end of a pipe.
    Pipe {
        /// Pipe identifier.
        pid: u32,
        /// Whether this is the read end.
        read_end: bool,
    },
}

/// One endpoint to specialize: a template name plus its bindings.
#[derive(Debug, Clone)]
pub struct EndSpec {
    /// Template name in the creator's library.
    pub template: &'static str,
    /// The invariants to factor in.
    pub bindings: Bindings,
}

/// Everything the generic open pipeline needs: the class (teardown
/// state) and the endpoint specs. An absent end links the shared
/// `EBADF` routine.
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// The object class.
    pub class: ChannelClass,
    /// The `read` endpoint, if the channel is readable.
    pub read: Option<EndSpec>,
    /// The `write` endpoint, if the channel is writable.
    pub write: Option<EndSpec>,
}

impl ChannelSpec {
    /// `/dev/null`.
    #[must_use]
    pub fn null(gauge: u32) -> ChannelSpec {
        ChannelSpec {
            class: ChannelClass::Null,
            read: Some(EndSpec {
                template: "read_null",
                bindings: Bindings::new().with("gauge", gauge),
            }),
            write: Some(EndSpec {
                template: "write_null",
                bindings: Bindings::new().with("gauge", gauge),
            }),
        }
    }

    /// The tty, cooked or raw.
    #[must_use]
    pub fn tty(srv: &TtyServer, cooked: bool, gauge: u32) -> ChannelSpec {
        let mut rb = Bindings::new();
        rb.bind("qhead", srv.qhead_slot)
            .bind("qtail", srv.qtail_slot)
            .bind("qbuf", srv.qbuf)
            .bind("qmask", srv.qmask)
            .bind("gauge", gauge);
        if cooked {
            rb.bind("tty_data", srv.data_reg);
        }
        ChannelSpec {
            class: ChannelClass::Tty { cooked },
            read: Some(EndSpec {
                template: if cooked { "cooked_read" } else { "read_tty" },
                bindings: rb,
            }),
            write: Some(EndSpec {
                template: "write_tty",
                bindings: Bindings::new()
                    .with("tty_data", srv.data_reg)
                    .with("gauge", gauge),
            }),
        }
    }

    /// A cached file, reading and writing through `offset_slot`.
    #[must_use]
    pub fn file(f: &File, offset_slot: u32, gauge: u32) -> ChannelSpec {
        ChannelSpec {
            class: ChannelClass::File {
                fid: f.fid,
                offset_slot,
            },
            read: Some(EndSpec {
                template: "read_file",
                bindings: Bindings::new()
                    .with("offset_slot", offset_slot)
                    .with("len_slot", f.len_slot)
                    .with("buf", f.buf)
                    .with("gauge", gauge),
            }),
            write: Some(EndSpec {
                template: "write_file",
                bindings: Bindings::new()
                    .with("offset_slot", offset_slot)
                    .with("len_slot", f.len_slot)
                    .with("buf", f.buf)
                    .with("cap", f.cap)
                    .with("gauge", gauge),
            }),
        }
    }

    /// One end of a pipe (`read_end` selects which).
    #[must_use]
    pub fn pipe(p: &Pipe, read_end: bool, gauge: u32) -> ChannelSpec {
        let b = Self::pipe_bindings(p, gauge);
        let end = |template| {
            Some(EndSpec {
                template,
                bindings: b.clone(),
            })
        };
        ChannelSpec {
            class: ChannelClass::Pipe {
                pid: p.pid,
                read_end,
            },
            read: if read_end { end("pipe_read") } else { None },
            write: if read_end { None } else { end("pipe_write") },
        }
    }

    /// The trap-elided fused wrapper for one end of this channel: the
    /// template name and the full binding set (wrapper holes plus the
    /// collapsed callee's holes, namespaced `"<callee>~rts.<hole>"` the
    /// way Collapsing Layers renames them).
    ///
    /// `None` when the end does not exist or has no fused form: the
    /// cooked tty's line-editing read, and the tty write, whose store to
    /// the device's data register user mode cannot make (a fused wrapper
    /// runs in its caller's user mode). Pipe-end eligibility (solo
    /// pipes only) is the *kernel's* call — see
    /// [`Kernel::fused_rw_spec`](crate::kernel::Kernel::fused_rw_spec)
    /// — because it needs every thread's open fds.
    #[must_use]
    pub fn fused_end(&self, read_end: bool, fd: u32) -> Option<(String, Bindings)> {
        let end = if read_end {
            self.read.as_ref()
        } else {
            self.write.as_ref()
        }?;
        if !matches!(
            end.template,
            "pipe_read"
                | "pipe_write"
                | "read_null"
                | "write_null"
                | "read_tty"
                | "read_file"
                | "write_file"
        ) {
            return None;
        }
        let fused = format!("fused_{}", end.template);
        let callee = format!("{}~rts", end.template);
        let mut b = Bindings::new();
        b.bind("fd", fd);
        // The pipe wrappers carry their own copy of the ring invariants
        // for the 1-byte fast path.
        if end.template == "pipe_write" || end.template == "pipe_read" {
            for name in ["head_slot", "tail_slot", "buf", "mask", "gauge"] {
                b.bind(name, end.bindings.get(name)?);
            }
            if end.template == "pipe_write" {
                b.bind("size", end.bindings.get("size")?);
            }
        }
        // The collapsed callee's holes, namespaced by Collapsing Layers.
        for (name, val) in end.bindings.sorted_pairs() {
            b.bind(format!("{callee}.{name}"), val);
        }
        Some((fused, b))
    }

    fn pipe_bindings(p: &Pipe, gauge: u32) -> Bindings {
        Bindings::new()
            .with("head_slot", p.head_slot)
            .with("tail_slot", p.tail_slot)
            .with("buf", p.buf)
            .with("size", p.size)
            .with("mask", p.size - 1)
            .with("gauge", gauge)
            .with("pid", p.pid)
            .with("r_wait", p.r_wait_slot)
            .with("w_wait", p.w_wait_slot)
    }
}

//! Streams: the producer/consumer composition model (Section 5.2).
//!
//! "Data move along logical channels we call streams, which connect the
//! source and the destination of data flow." A stream is described by its
//! two parties; the quaject interfacer picks the connecting mechanism
//! (procedure call, monitor, queue, or pump) and synthesizes the
//! connecting code.

use quamachine::isa::Size;
use synthesis_codegen::creator::Synthesized;
use synthesis_codegen::interfacer::{choose_connector, Connector, Party};
use synthesis_codegen::template::Bindings;

use crate::kernel::{Kernel, KernelError};

/// A stream description: who produces, who consumes.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// The producing side.
    pub producer: Party,
    /// The consuming side.
    pub consumer: Party,
}

impl StreamSpec {
    /// The connector the combination stage selects.
    #[must_use]
    pub fn connector(&self) -> Connector {
        choose_connector(self.producer, self.consumer)
    }
}

/// An instantiated in-kernel stream: the connector's queue storage plus
/// the synthesized endpoint routines, built through the same cached
/// specialization pipeline as `open` (Collapsing Layers applies
/// uniformly to channels and streams).
#[derive(Debug)]
pub struct StreamChannel {
    /// The connector the combination stage selected.
    pub connector: Connector,
    /// The producer's `put` routine.
    pub put: Synthesized,
    /// The consumer's `get` routine.
    pub get: Synthesized,
    /// Head/tail counter pair (8 bytes in kernel memory).
    slots: u32,
    /// Ring storage (`size` longs).
    buf: u32,
    /// Flag array (`size` bytes; MP-SC only, else 0).
    flags: u32,
    /// Ring capacity in items (a power of two).
    size: u32,
}

impl Kernel {
    /// Instantiate `spec` as an in-kernel stream with a ring of `size`
    /// items: allocate the connector's storage and specialize its
    /// endpoint templates through the creator's cache. Attaching further
    /// producers to the same ring ([`Kernel::stream_attach_producer`])
    /// shares the installed code.
    ///
    /// # Errors
    ///
    /// `Invalid` for connectors with no kernel queue (direct calls and
    /// pumps synthesize at their call sites), `NoMem`/`Synth` on
    /// resource exhaustion.
    pub fn open_stream(
        &mut self,
        spec: StreamSpec,
        size: u32,
    ) -> Result<StreamChannel, KernelError> {
        let connector = spec.connector();
        let (put_t, get_t, flagged) = match connector {
            Connector::SpscQueue => ("q_spsc_put", "q_spsc_get", false),
            Connector::MpscQueue => ("q_mpsc_put", "q_mpsc_get", true),
            _ => {
                return Err(KernelError::Invalid(
                    "connector has no kernel queue to instantiate",
                ))
            }
        };
        assert!(
            size.is_power_of_two(),
            "stream ring size must be a power of two"
        );

        // Storage first, so the rollback below is pure arithmetic.
        let slots = self.heap_alloc(8).map_err(|_| KernelError::NoMem)?;
        let buf = match self.heap_alloc(size * 4) {
            Ok(b) => b,
            Err(_) => {
                self.heap.free(slots, 8);
                return Err(KernelError::NoMem);
            }
        };
        let flags = if flagged {
            match self.heap_alloc(size) {
                Ok(f) => f,
                Err(_) => {
                    self.heap.free(slots, 8);
                    self.heap.free(buf, size * 4);
                    return Err(KernelError::NoMem);
                }
            }
        } else {
            0
        };
        self.m.mem.poke(slots, Size::L, 0);
        self.m.mem.poke(slots + 4, Size::L, 0);
        for i in 0..size {
            if flagged {
                self.m.mem.poke(flags + i, Size::B, 0);
            }
        }

        let b = stream_bindings(slots, buf, flags, size, flagged);
        let tid = self.trace_tid();
        let rollback = |k: &mut Kernel, code: &[Synthesized], e| {
            for s in code {
                k.release_code_for(tid, s);
            }
            k.heap.free(slots, 8);
            k.heap.free(buf, size * 4);
            if flagged {
                k.heap.free(flags, size);
            }
            KernelError::Synth(e)
        };
        let put = match self.synthesize_cached_for(tid, put_t, &b) {
            Ok(p) => p,
            Err(e) => return Err(rollback(self, &[], e)),
        };
        let get = match self.synthesize_cached_for(tid, get_t, &b) {
            Ok(g) => g,
            Err(e) => return Err(rollback(self, &[put], e)),
        };
        Ok(StreamChannel {
            connector,
            put,
            get,
            slots,
            buf,
            flags,
            size,
        })
    }

    /// Specialize another producer endpoint onto `chan`'s ring. The
    /// bindings are identical, so this is a specialization-cache hit —
    /// N producers share one installed `put`.
    ///
    /// # Errors
    ///
    /// Propagates synthesis failure.
    pub fn stream_attach_producer(
        &mut self,
        chan: &StreamChannel,
    ) -> Result<Synthesized, KernelError> {
        let name = match chan.connector {
            Connector::SpscQueue => "q_spsc_put",
            Connector::MpscQueue => "q_mpsc_put",
            _ => unreachable!("open_stream only builds queue connectors"),
        };
        let b = chan.bindings(matches!(chan.connector, Connector::MpscQueue));
        self.synthesize_cached_for(self.trace_tid(), name, &b)
            .map_err(KernelError::Synth)
    }

    /// Release an endpoint obtained from [`Kernel::stream_attach_producer`].
    pub fn stream_release_endpoint(&mut self, s: &Synthesized) {
        self.release_code_for(self.trace_tid(), s);
    }

    /// Tear the stream down: drop the endpoint references (the code
    /// unloads when the last ring's reference goes) and free the storage.
    pub fn close_stream(&mut self, chan: StreamChannel) {
        let tid = self.trace_tid();
        self.release_code_for(tid, &chan.put);
        self.release_code_for(tid, &chan.get);
        self.release_stream_storage(&chan);
    }

    fn release_stream_storage(&mut self, chan: &StreamChannel) {
        self.heap.free(chan.slots, 8);
        self.heap.free(chan.buf, chan.size * 4);
        if chan.flags != 0 {
            self.heap.free(chan.flags, chan.size);
        }
    }
}

impl StreamChannel {
    fn bindings(&self, flagged: bool) -> Bindings {
        stream_bindings(self.slots, self.buf, self.flags, self.size, flagged)
    }
}

fn stream_bindings(slots: u32, buf: u32, flags: u32, size: u32, flagged: bool) -> Bindings {
    let mut b = Bindings::new();
    b.bind("head_slot", slots)
        .bind("tail_slot", slots + 4)
        .bind("buf", buf)
        .bind("mask", size - 1)
        .bind("size", size);
    if flagged {
        b.bind("flags", flags);
    }
    b
}

/// The standard streams of the Synthesis I/O system, as the paper
/// describes them.
pub mod standard {
    use super::*;

    /// Cooked tty → raw tty: "the cooked tty makes a procedure call to
    /// the raw tty to get the next character" (Section 5.4) —
    /// active-passive, single-single.
    #[must_use]
    pub fn cooked_to_raw() -> StreamSpec {
        StreamSpec {
            producer: Party::passive_single(),
            consumer: Party::active_single(),
        }
    }

    /// Tty device → cooked filter: "the cooked tty actively reads and the
    /// tty device itself actively writes, forming an active-active pair
    /// connected by an SP-SC optimistic queue" (Section 5.4).
    #[must_use]
    pub fn device_to_cooked() -> StreamSpec {
        StreamSpec {
            producer: Party::active_single(),
            consumer: Party::active_single(),
        }
    }

    /// Programs and echo → screen: "the filter writes to an optimistic
    /// queue, since output can come from both a user program or the
    /// echoing of input characters" (Section 5.1) — multiple producers.
    #[must_use]
    pub fn output_to_screen() -> StreamSpec {
        StreamSpec {
            producer: Party::active_multiple(),
            consumer: Party::active_single(),
        }
    }

    /// The xclock pair: passive clock, passive display — a pump
    /// (Section 5.2).
    #[must_use]
    pub fn clock_to_display() -> StreamSpec {
        StreamSpec {
            producer: Party::passive_single(),
            consumer: Party::passive_single(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_streams_pick_the_papers_connectors() {
        assert_eq!(standard::cooked_to_raw().connector(), Connector::DirectCall);
        assert_eq!(
            standard::device_to_cooked().connector(),
            Connector::SpscQueue
        );
        assert_eq!(
            standard::output_to_screen().connector(),
            Connector::MpscQueue
        );
        assert_eq!(standard::clock_to_display().connector(), Connector::Pump);
    }
}

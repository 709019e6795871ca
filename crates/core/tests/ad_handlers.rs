//! The eight specialized A/D slot handlers of Section 5.4, run on the
//! machine: seven synthesized from `irq_ad_slot` and the eighth from
//! `irq_ad_last`, each specialized for its own slot. Each audio interrupt
//! enters the handler the vector names, which stores the sample into its
//! own slot of the queue element and repoints the vector at the next
//! handler; the eighth asks the kernel to advance to the next element.

use quamachine::asm::Asm;
use quamachine::devices::{audio, dev_reg_addr};
use quamachine::isa::{Cond, Size::L};
use quamachine::machine::RunExit;
use quamachine::mem::AddressMap;
use synthesis_codegen::template::Bindings;
use synthesis_core::kernel::{irq_levels, Kernel, KernelConfig};
use synthesis_core::layout;
use synthesis_core::syscall::kcalls;

/// The queue element's eight slots.
const SLOTS: u32 = layout::USER_BASE + 0x8000;
/// What a slot holds before its handler has run.
const UNWRITTEN: u32 = 0xDEAD_BEEF;

#[test]
fn eight_audio_interrupts_walk_the_slot_handlers_to_the_advance_call() {
    // A quantum far longer than the test, so only audio interrupts come.
    let mut k = Kernel::boot(KernelConfig {
        cpus: 1,
        default_quantum_us: 50_000,
        ..KernelConfig::default()
    })
    .expect("boots");
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bcc(Cond::T, top);
    let block = a.assemble().unwrap();
    let size = block.size_bytes();
    let spin = k.load_user_program(block).unwrap();
    let in_user = |k: &Kernel| (spin..spin + size).contains(&k.m.cpu.pc);
    let map = AddressMap::single(1, layout::USER_BASE, layout::USER_LEN);
    let tid = k
        .create_thread(spin, layout::USER_BASE + 0x1000, map)
        .unwrap();
    k.start(tid).unwrap();
    while !in_user(&k) {
        k.run(1_000);
    }

    // Handler i stores into slot i and names handler i + 1 in the vector;
    // built last to first, so each knows its successor's address.
    let ad_data = dev_reg_addr(k.dev.audio, audio::REG_DATA);
    let vector = 24 + u32::from(irq_levels::AUDIO);
    let vec_slot = k.threads[&tid].vt() + 4 * vector;
    let mut handlers = [0u32; 8];
    for i in (0..8).rev() {
        let mut b = Bindings::new();
        b.bind("ad_data", ad_data)
            .bind("slot", SLOTS + 4 * i as u32);
        let template = if i < 7 {
            b.bind("vec", vec_slot).bind("next", handlers[i + 1]);
            "irq_ad_slot"
        } else {
            "irq_ad_last"
        };
        let opts = k.opts;
        handlers[i] = k
            .creator
            .synthesize(&mut k.m, template, &b, opts)
            .expect("synthesizes")
            .base;
    }
    for i in 0..8 {
        k.m.mem.poke(SLOTS + 4 * i, L, UNWRITTEN);
    }
    k.set_vector(tid, vector, handlers[0]).unwrap();
    let ctrl = dev_reg_addr(k.dev.audio, audio::REG_CTRL);
    k.m.host_reg_write(ctrl, audio::CTRL_RUN | audio::CTRL_IRQ);

    let accepted = |k: &Kernel| k.m.irq.accepted[usize::from(irq_levels::AUDIO)];
    for (i, &handler) in handlers.iter().enumerate() {
        let slot = SLOTS + 4 * i as u32;
        let before = accepted(&k);
        while accepted(&k) == before {
            assert_eq!(k.m.step().expect("steps"), None);
        }
        assert_eq!(k.m.cpu.pc, handler, "interrupt {i} enters handler {i}");
        if i < 7 {
            while !in_user(&k) {
                assert_eq!(k.m.step().expect("steps"), None);
            }
            assert_eq!(
                k.m.mem.peek(vec_slot, L),
                handlers[i + 1],
                "handler {i} names its successor"
            );
            assert_eq!(k.m.mem.peek(slot + 4, L), UNWRITTEN);
        } else {
            let exit = loop {
                if let Some(exit) = k.m.step().expect("steps") {
                    break exit;
                }
            };
            assert_eq!(exit, RunExit::KCall(kcalls::AD_ADVANCE));
        }
        // The device still presents the sample the handler read.
        let sample = k.m.host_reg_read(ad_data);
        assert_eq!(k.m.mem.peek(slot, L), sample, "handler {i} fills slot {i}");
    }
}

//! The fused `read`/`write` wrappers against the differential oracle.
//!
//! The creator installs what collapse → factor → peephole produce and
//! nothing checks that at run time. This test does it for all seven
//! `fused_*` templates: take each one's `(name, bindings)` from a live
//! kernel, run the same three stages through the public codegen
//! functions, and require that the peephole's output is observably
//! equal to its input. A peephole rule made unsound (a dropped
//! flags-dead precondition, say) fails here by template name.

use quamachine::asm::Asm;
use quamachine::isa::{Cond, Instr};
use quamachine::mem::AddressMap;
use synthesis_codegen::equiv::{diff_check, DiffConfig};
use synthesis_codegen::{collapse, factor, peephole};
use synthesis_core::kernel::{Kernel, KernelConfig};
use synthesis_core::layout;

/// Post-factor and post-peephole instruction streams of one template.
fn pipeline(k: &Kernel, name: &str, bindings: &synthesis_codegen::Bindings) -> [Vec<Instr>; 2] {
    let lib = &k.creator.lib;
    let t = lib
        .get(name)
        .unwrap_or_else(|| panic!("{name} in the library"));
    let collapsed = collapse::collapse(t, lib).unwrap_or_else(|e| panic!("{name}: {e}"));
    let factored = factor::factor(&collapsed, bindings).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut marks = factored.marks.clone();
    let optimized = peephole::optimize(factored.instrs.clone(), &mut marks);
    [factored.instrs, optimized]
}

#[test]
fn peephole_preserves_every_fused_wrapper() {
    let mut k = Kernel::boot(KernelConfig::default()).unwrap();
    let mut a = Asm::new("spin");
    let top = a.here();
    a.bcc(Cond::T, top);
    let entry = k.load_user_program(a.assemble().unwrap()).unwrap();
    // A flat-space caller: the only kind the kernel fuses.
    let flat = AddressMap::single(1, 0, k.m.mem.size());
    let tid = k
        .create_thread(entry, layout::USER_BASE + 0x1_0000, flat)
        .unwrap();

    k.fs.create(&mut k.m, &mut k.heap, "/tmp/oracle", 4096)
        .unwrap();
    // The file first, so it is fd 0 as in Table 1's program 5: the fd
    // guard folds to `tst`, the wrapper re-encodes shorter, and a trial
    // whose random seek offset sends the copy off the end of memory
    // faults at a different code offset than the reference does.
    let file = k.open_for(tid, "/tmp/oracle").unwrap();
    let null = k.open_for(tid, "/dev/null").unwrap();
    // The raw tty: the cooked read end (line editing) has no fused form,
    // and neither has the write end, whose store to the device's data
    // register the caller's user mode cannot make.
    let tty = k.open_for(tid, "/dev/tty-raw").unwrap();
    assert!(k.fused_rw_spec(tid, tty, true).is_none());
    let (pipe_r, pipe_w) = k.pipe_for(tid).unwrap();

    let ends = [
        (null, false),
        (null, true),
        (tty, false),
        (file, false),
        (file, true),
        (pipe_r, false),
        (pipe_w, true),
    ];
    let mut seen = Vec::new();
    for (fd, write) in ends {
        let (name, bindings) = k
            .fused_rw_spec(tid, fd, write)
            .unwrap_or_else(|| panic!("fd {fd} (write={write}) has a fused spec"));
        let [factored, optimized] = pipeline(&k, &name, &bindings);
        // Steer the odd trials down both guarded paths of the wrapper:
        // the 1-byte fast path (d1 = this fd, d2 = 1) and the inlined
        // general body (same fd, a count small enough that a trial's
        // copy finishes well inside the cycle budget). The even trials
        // stay random, so the fd guard's fallback is covered too.
        let cfg = DiffConfig {
            trials: 10,
            preset_sets: vec![
                vec![(true, 1, fd), (true, 2, 1)],
                vec![(true, 1, fd), (true, 2, 5)],
            ],
            ..DiffConfig::default()
        };
        diff_check(&factored, &optimized, &cfg)
            .unwrap_or_else(|e| panic!("{name}: peephole changed behavior: {e}"));
        seen.push(name);
    }
    seen.sort();
    assert_eq!(
        seen,
        [
            "fused_pipe_read",
            "fused_pipe_write",
            "fused_read_file",
            "fused_read_null",
            "fused_read_tty",
            "fused_write_file",
            "fused_write_null",
        ]
    );
}

//! Figure 3: the executable ready queue — insertion/removal patch costs
//! and end-to-end dispatch rate on the simulated machine.

use criterion::{criterion_group, criterion_main, Criterion};
use quamachine::asm::Asm;
use quamachine::isa::{Operand::*, Size::L};
use quamachine::machine::{Machine, MachineConfig};
use synthesis_codegen::execds::{ChainNode, JumpChain};

/// Where node `id`'s code is loaded — its entry, and so what the
/// benches' link-target function answers for any link into it.
fn entry_of(id: u32) -> u32 {
    0x1000 + id * 0x100
}

fn make_node(m: &mut Machine, id: u32) -> ChainNode {
    let base = entry_of(id);
    let mut a = Asm::new(format!("node{id}"));
    a.move_i(L, id, Dr(0));
    a.add(L, Imm(1), Dr(1));
    let jmp_idx = a.len();
    a.jmp(Abs(0));
    m.load_block(base, a.assemble().unwrap()).unwrap();
    let jmp_at = m.code.addr_of(base, jmp_idx).unwrap();
    ChainNode { id, jmp_at }
}

fn bench_readyq(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_ready_queue");
    g.bench_function("insert_remove_patch_pair", |b| {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut chain = JumpChain::new();
        for i in 0..8u32 {
            let n = make_node(&mut m, i);
            chain
                .insert_next(&mut m, None, n, |_, to| entry_of(to))
                .unwrap();
        }
        let extra = make_node(&mut m, 99);
        b.iter(|| {
            chain
                .insert_next(&mut m, Some(5), extra, |_, to| entry_of(to))
                .unwrap();
            chain.remove(&mut m, 99, |_, to| entry_of(to)).unwrap();
        });
    });
    g.bench_function("traverse_8_threads_simulated", |b| {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut chain = JumpChain::new();
        for i in 0..8u32 {
            let n = make_node(&mut m, i);
            chain
                .insert_next(&mut m, None, n, |_, to| entry_of(to))
                .unwrap();
        }
        m.cpu.pc = entry_of(chain.nodes()[0].id);
        m.cpu.a[7] = 0x8000;
        b.iter(|| {
            // One full lap: 8 nodes × 3 instructions.
            for _ in 0..24 {
                m.step().unwrap();
            }
            std::hint::black_box(m.cpu.d[0]);
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_readyq
}
criterion_main!(benches);

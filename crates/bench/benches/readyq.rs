//! Figure 3: the executable ready queue — insertion/removal patch costs
//! and end-to-end dispatch rate on the simulated machine.

use criterion::{criterion_group, criterion_main, Criterion};
use quamachine::asm::Asm;
use quamachine::isa::{Operand::*, Size::L};
use quamachine::machine::{Machine, MachineConfig};
use synthesis_codegen::execds::{ChainNode, JumpChain};

fn make_node(m: &mut Machine, base: u32, id: u32) -> ChainNode {
    let mut a = Asm::new(format!("node{id}"));
    a.move_i(L, id, Dr(0));
    a.add(L, Imm(1), Dr(1));
    let jmp_idx = a.len();
    a.jmp(Abs(0));
    let entry = m.load_block(base, a.assemble().unwrap()).unwrap();
    let jmp_at = m.code.addr_of(base, jmp_idx).unwrap();
    ChainNode { id, entry, jmp_at }
}

fn bench_readyq(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_ready_queue");
    g.bench_function("insert_remove_patch_pair", |b| {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut chain = JumpChain::new();
        for i in 0..8u32 {
            let n = make_node(&mut m, 0x1000 + i * 0x100, i);
            chain.insert_next(&mut m, None, n).unwrap();
        }
        let extra = make_node(&mut m, 0x9000, 99);
        b.iter(|| {
            chain.insert_next(&mut m, Some(5), extra).unwrap();
            chain.remove(&mut m, 99).unwrap();
        });
    });
    g.bench_function("traverse_8_threads_simulated", |b| {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut chain = JumpChain::new();
        for i in 0..8u32 {
            let n = make_node(&mut m, 0x1000 + i * 0x100, i);
            chain.insert_next(&mut m, None, n).unwrap();
        }
        m.cpu.pc = chain.nodes()[0].entry;
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

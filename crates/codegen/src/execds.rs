//! Executable data structures.
//!
//! "The Executable Data Structures method shortens data structure traversal
//! time when the data structure is always traversed the same way" (paper
//! Section 2.2). The canonical instance is the ready queue (Figure 3):
//! each thread's context-switch-out code ends in a `jmp` directly to the
//! next thread's context-switch-in code, so dispatching *is* executing the
//! queue. Inserting or removing a thread patches the `jmp` targets.
//!
//! [`JumpChain`] maintains such a circular chain of code nodes: each node
//! exposes the address of its patchable `jmp` and its entry point, and the
//! chain rewires targets through the machine's code-patching interface.
//!
//! The chain is stored as a hash-linked circular list so that membership
//! tests, neighbour lookups, insertion, and removal are all O(1) in the
//! number of nodes — the host-side bookkeeping must stay as constant-cost
//! as the guest-side dispatch it mirrors, or a 10k-thread ready queue
//! would pay O(n) host work per scheduling operation. The one
//! order-dependent view, [`JumpChain::nodes`], walks the links from the
//! head and remains O(n); it serves monitors, evacuation sweeps, and
//! tests, never the per-dispatch hot path.

use quamachine::error::MachineError;
use quamachine::machine::Machine;
use std::collections::HashMap;

/// One node of an executable chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainNode {
    /// Stable identifier chosen by the embedder (e.g. thread id).
    pub id: u32,
    /// Entry address control should arrive at (e.g. `sw_in`).
    pub entry: u32,
    /// Address of this node's patchable `jmp (abs).l` instruction.
    pub jmp_at: u32,
}

/// A node plus its circular-list neighbours (by id).
#[derive(Debug, Clone, Copy)]
struct Link {
    node: ChainNode,
    prev: u32,
    next: u32,
}

/// A circular chain of code nodes traversed by executing it.
#[derive(Debug, Default)]
pub struct JumpChain {
    links: HashMap<u32, Link>,
    head: Option<u32>,
    /// Patches applied over the chain's lifetime (for the monitor).
    pub patch_count: u64,
}

impl JumpChain {
    /// An empty chain.
    #[must_use]
    pub fn new() -> JumpChain {
        JumpChain::default()
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the chain is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Whether a node with `id` is in the chain. O(1).
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.links.contains_key(&id)
    }

    /// The first node in traversal order. O(1).
    #[must_use]
    pub fn head(&self) -> Option<ChainNode> {
        self.head.map(|h| self.links[&h].node)
    }

    /// The node following `id` (circularly), if `id` is in the chain.
    /// O(1).
    #[must_use]
    pub fn next_of_id(&self, id: u32) -> Option<ChainNode> {
        let l = self.links.get(&id)?;
        Some(self.links[&l.next].node)
    }

    /// The node preceding `id` (circularly), if `id` is in the chain.
    /// O(1).
    #[must_use]
    pub fn prev_of_id(&self, id: u32) -> Option<ChainNode> {
        let l = self.links.get(&id)?;
        Some(self.links[&l.prev].node)
    }

    /// The nodes in traversal order, starting at the head. O(n) — the
    /// order is defined by the links themselves, never by hash-map
    /// iteration, so it is deterministic.
    #[must_use]
    pub fn nodes(&self) -> Vec<ChainNode> {
        let mut out = Vec::with_capacity(self.links.len());
        let Some(h) = self.head else {
            return out;
        };
        let mut cur = h;
        loop {
            let l = &self.links[&cur];
            out.push(l.node);
            cur = l.next;
            if cur == h {
                break;
            }
        }
        out
    }

    fn patch(&mut self, m: &mut Machine, jmp_at: u32, target: u32) -> Result<(), MachineError> {
        self.patch_count += 1;
        m.code.patch_jmp_target(jmp_at, target)
    }

    /// Insert `node` after the node with id `after`, patching the
    /// predecessor's `jmp` to enter it and its `jmp` to continue the
    /// chain. O(1).
    fn insert_after_id(
        &mut self,
        m: &mut Machine,
        after: u32,
        node: ChainNode,
    ) -> Result<(), MachineError> {
        debug_assert!(!self.contains(node.id), "duplicate chain id");
        let next_id = self.links[&after].next;
        let next_entry = self.links[&next_id].node.entry;
        let pred_jmp = self.links[&after].node.jmp_at;
        self.patch(m, node.jmp_at, next_entry)?;
        self.patch(m, pred_jmp, node.entry)?;
        self.links.insert(
            node.id,
            Link {
                node,
                prev: after,
                next: next_id,
            },
        );
        self.links.get_mut(&after).expect("pred exists").next = node.id;
        self.links.get_mut(&next_id).expect("succ exists").prev = node.id;
        Ok(())
    }

    /// Insert `node` as the chain's only member, chained to itself.
    fn insert_sole(&mut self, m: &mut Machine, node: ChainNode) -> Result<(), MachineError> {
        debug_assert!(self.links.is_empty());
        self.patch(m, node.jmp_at, node.entry)?;
        self.links.insert(
            node.id,
            Link {
                node,
                prev: node.id,
                next: node.id,
            },
        );
        self.head = Some(node.id);
        Ok(())
    }

    /// Insert `node` so it runs next after `after` — the Synthesis
    /// unblocking rule: "As an event unblocks a thread, its TTE is placed
    /// at the front of the ready queue, giving it immediate access to the
    /// CPU" (paper Section 4.4). With `after` absent (or not in the
    /// chain) the node goes right after the head; on an empty chain it
    /// becomes the sole, self-chained node. O(1).
    ///
    /// # Errors
    ///
    /// Fails if a `jmp` address does not hold a patchable jump.
    pub fn insert_next(
        &mut self,
        m: &mut Machine,
        after: Option<u32>,
        node: ChainNode,
    ) -> Result<(), MachineError> {
        match (after.filter(|a| self.contains(*a)), self.head) {
            (_, None) => self.insert_sole(m, node),
            (Some(a), _) => self.insert_after_id(m, a, node),
            (None, Some(h)) => self.insert_after_id(m, h, node),
        }
    }

    /// Remove the node with `id`, patching its predecessor to skip it.
    /// Returns the removed node. O(1).
    ///
    /// # Errors
    ///
    /// Fails if a `jmp` address does not hold a patchable jump.
    pub fn remove(&mut self, m: &mut Machine, id: u32) -> Result<Option<ChainNode>, MachineError> {
        let Some(link) = self.links.get(&id).copied() else {
            return Ok(None);
        };
        if self.links.len() == 1 {
            self.links.remove(&id);
            self.head = None;
            return Ok(Some(link.node));
        }
        let next_entry = self.links[&link.next].node.entry;
        let pred_jmp = self.links[&link.prev].node.jmp_at;
        self.patch(m, pred_jmp, next_entry)?;
        self.links.get_mut(&link.prev).expect("pred exists").next = link.next;
        self.links.get_mut(&link.next).expect("succ exists").prev = link.prev;
        self.links.remove(&id);
        if self.head == Some(id) {
            self.head = Some(link.next);
        }
        Ok(Some(link.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::asm::Asm;
    use quamachine::isa::{Operand::*, Size::L};
    use quamachine::machine::{Machine, MachineConfig};

    /// Build a node whose code is `move #id,d0 ; jmp <self>` — executing
    /// the chain records each visited node in d0; we intercept with
    /// breakpoints... simpler: each node increments d1 and moves its id to
    /// d0, and node 0 halts when d1 gets large.
    fn make_node(m: &mut Machine, base: u32, id: u32) -> ChainNode {
        let mut a = Asm::new(format!("node{id}"));
        a.move_i(L, id, Dr(0));
        a.add(L, Imm(1), Dr(1));
        let jmp_idx = a.len();
        a.jmp(Abs(0)); // patched by the chain
        let blk = a.assemble().unwrap();
        let entry = m.load_block(base, blk).unwrap();
        let jmp_at = m.code.addr_of(base, jmp_idx).unwrap();
        ChainNode { id, entry, jmp_at }
    }

    fn run_chain(m: &mut Machine, entry: u32, steps: u64) -> Vec<u32> {
        // Execute the chain and record d0 at each node visit by stepping.
        m.cpu.pc = entry;
        m.cpu.a[7] = 0x8000;
        let mut visits = Vec::new();
        let mut budget = steps;
        while budget > 0 {
            let before = m.cpu.d[1];
            match m.step() {
                Ok(None) => {}
                other => panic!("unexpected exit {other:?}"),
            }
            if m.cpu.d[1] != before {
                visits.push(m.cpu.d[0]);
                budget -= 1;
            }
        }
        visits
    }

    #[test]
    fn single_node_chains_to_itself() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let n0 = make_node(&mut m, 0x1000, 10);
        let mut chain = JumpChain::new();
        chain.insert_next(&mut m, None, n0).unwrap();
        let visits = run_chain(&mut m, n0.entry, 3);
        assert_eq!(visits, vec![10, 10, 10]);
    }

    #[test]
    fn insertion_and_traversal_order() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let n0 = make_node(&mut m, 0x1000, 10);
        let n1 = make_node(&mut m, 0x1100, 11);
        let n2 = make_node(&mut m, 0x1200, 12);
        let mut chain = JumpChain::new();
        chain.insert_next(&mut m, None, n0).unwrap();
        chain.insert_next(&mut m, Some(10), n1).unwrap();
        chain.insert_next(&mut m, Some(11), n2).unwrap();
        let visits = run_chain(&mut m, n0.entry, 6);
        assert_eq!(visits, vec![10, 11, 12, 10, 11, 12]);
    }

    #[test]
    fn removal_patches_predecessor() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let n0 = make_node(&mut m, 0x1000, 10);
        let n1 = make_node(&mut m, 0x1100, 11);
        let n2 = make_node(&mut m, 0x1200, 12);
        let mut chain = JumpChain::new();
        chain.insert_next(&mut m, None, n0).unwrap();
        chain.insert_next(&mut m, Some(10), n1).unwrap();
        chain.insert_next(&mut m, Some(11), n2).unwrap();
        chain.remove(&mut m, 11).unwrap().unwrap();
        let visits = run_chain(&mut m, n0.entry, 4);
        assert_eq!(visits, vec![10, 12, 10, 12]);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn remove_unknown_id_is_none() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut chain = JumpChain::new();
        assert_eq!(chain.remove(&mut m, 42).unwrap(), None);
    }

    #[test]
    fn removing_last_node_empties_chain() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let n0 = make_node(&mut m, 0x1000, 10);
        let mut chain = JumpChain::new();
        chain.insert_next(&mut m, None, n0).unwrap();
        let removed = chain.remove(&mut m, 10).unwrap().unwrap();
        assert_eq!(removed.id, 10);
        assert!(chain.is_empty());
        assert_eq!(chain.head(), None);
    }

    #[test]
    fn halted_machine_not_required_for_patching() {
        // Patching works while the "machine" is mid-run (between steps):
        // insert a node while executing and observe it on the next lap.
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let n0 = make_node(&mut m, 0x1000, 10);
        let n1 = make_node(&mut m, 0x1100, 11);
        let mut chain = JumpChain::new();
        chain.insert_next(&mut m, None, n0).unwrap();
        m.cpu.pc = n0.entry;
        m.cpu.a[7] = 0x8000;
        // Take a lap, then splice in n1.
        for _ in 0..3 {
            m.step().unwrap();
        }
        chain.insert_next(&mut m, Some(10), n1).unwrap();
        let pc = m.cpu.pc;
        let visits = run_chain(&mut m, pc, 4);
        assert!(visits.windows(2).any(|w| w == [10, 11] || w == [11, 10]));
    }

    #[test]
    fn patch_count_accumulates() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let n0 = make_node(&mut m, 0x1000, 1);
        let n1 = make_node(&mut m, 0x1100, 2);
        let mut chain = JumpChain::new();
        chain.insert_next(&mut m, None, n0).unwrap();
        chain.insert_next(&mut m, Some(1), n1).unwrap();
        chain.remove(&mut m, 2).unwrap();
        assert_eq!(chain.patch_count, 4); // 1 + 2 + 1
    }

    #[test]
    fn insert_next_without_an_anchor_goes_after_the_head() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let n0 = make_node(&mut m, 0x1000, 10);
        let n1 = make_node(&mut m, 0x1100, 11);
        let n2 = make_node(&mut m, 0x1200, 12);
        let mut chain = JumpChain::new();
        chain.insert_next(&mut m, None, n0).unwrap();
        chain.insert_next(&mut m, None, n1).unwrap();
        chain.insert_next(&mut m, Some(11), n2).unwrap();
        assert_eq!(
            chain.nodes().iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        let visits = run_chain(&mut m, n0.entry, 6);
        assert_eq!(visits, vec![10, 11, 12, 10, 11, 12]);
    }

    #[test]
    fn neighbour_lookups_are_consistent_with_order() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut chain = JumpChain::new();
        for i in 0..5u32 {
            let n = make_node(&mut m, 0x1000 + i * 0x100, i);
            chain.insert_next(&mut m, i.checked_sub(1), n).unwrap();
        }
        let order: Vec<u32> = chain.nodes().iter().map(|n| n.id).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        for (i, &id) in order.iter().enumerate() {
            assert!(chain.contains(id));
            assert_eq!(
                chain.next_of_id(id).unwrap().id,
                order[(i + 1) % order.len()]
            );
            assert_eq!(
                chain.prev_of_id(id).unwrap().id,
                order[(i + order.len() - 1) % order.len()]
            );
        }
        assert_eq!(chain.head().unwrap().id, 0);
    }

    #[test]
    fn head_advances_when_head_is_removed() {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let n0 = make_node(&mut m, 0x1000, 10);
        let n1 = make_node(&mut m, 0x1100, 11);
        let n2 = make_node(&mut m, 0x1200, 12);
        let mut chain = JumpChain::new();
        chain.insert_next(&mut m, None, n0).unwrap();
        chain.insert_next(&mut m, Some(10), n1).unwrap();
        chain.insert_next(&mut m, Some(11), n2).unwrap();
        chain.remove(&mut m, 10).unwrap().unwrap();
        assert_eq!(chain.head().unwrap().id, 11);
        assert_eq!(
            chain.nodes().iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![11, 12]
        );
    }

    #[test]
    fn scale_membership_and_neighbours_without_walks() {
        // A large chain: every O(1) query agrees with the O(n) walk.
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let mut chain = JumpChain::new();
        for i in 0..500u32 {
            let n = make_node(&mut m, 0x1_0000 + i * 0x40, i);
            let after = if i == 0 { None } else { Some(i - 1) };
            chain.insert_next(&mut m, after, n).unwrap();
        }
        assert_eq!(chain.len(), 500);
        let order: Vec<u32> = chain.nodes().iter().map(|n| n.id).collect();
        for w in order.windows(2) {
            assert_eq!(chain.next_of_id(w[0]).unwrap().id, w[1]);
            assert_eq!(chain.prev_of_id(w[1]).unwrap().id, w[0]);
        }
        // Remove every third node; the remaining order survives.
        for i in (0..500u32).step_by(3) {
            chain.remove(&mut m, i).unwrap().unwrap();
        }
        let left: Vec<u32> = chain.nodes().iter().map(|n| n.id).collect();
        assert_eq!(left.len(), chain.len());
        assert!(left.iter().all(|&i| i % 3 != 0));
    }
}

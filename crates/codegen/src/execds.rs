//! Executable data structures.
//!
//! "The Executable Data Structures method shortens data structure traversal
//! time when the data structure is always traversed the same way" (paper
//! Section 2.2). The canonical instance is the ready queue (Figure 3):
//! each thread's context-switch-out code ends in a `jmp` directly to the
//! next thread's context-switch-in code, so dispatching *is* executing the
//! queue. Inserting or removing a thread patches the `jmp` targets.
//!
//! [`JumpChain`] maintains such a circular chain of code nodes, each
//! named by an id the embedder chose, and rewires targets through the
//! machine's code-patching interface.
//!
//! The chain owns *which* links a membership change disturbs and writes
//! each of them exactly once; it knows nothing of the nodes' code. That is
//! the embedder's, asked through [`NodeCode`] for every link it writes:
//! where `from`'s `jmp` is, and the address it must hold for control to
//! arrive in `to` (the kernel answers `sw_in` or `sw_in_mmu` depending on
//! the two threads' address maps). So no node can name a stale `jmp`, and
//! no `jmp` is ever written first with a provisional target and then
//! corrected.
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

use crate::hash::FoldMap;

/// The embedder's answer about the code of the nodes it names by id.
pub trait NodeCode {
    /// The link `from -> to`: the address of `from`'s patchable
    /// `jmp (abs).l`, and the target it must hold for control to arrive
    /// in `to`.
    fn link(&self, from: u32, to: u32) -> (u32, u32);
}

/// A node's circular-list neighbours (by id).
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// A circular chain of code nodes traversed by executing it.
#[derive(Debug, Default)]
pub struct JumpChain {
    links: FoldMap<u32, Link>,
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

    /// Whether node `id` is in the chain. O(1).
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.links.contains_key(&id)
    }

    /// The first node in traversal order. O(1).
    #[must_use]
    pub fn head(&self) -> Option<u32> {
        self.head
    }

    /// The node following `id` (circularly), if `id` is in the chain.
    /// O(1).
    #[must_use]
    pub fn next_of_id(&self, id: u32) -> Option<u32> {
        self.links.get(&id).map(|l| l.next)
    }

    /// The nodes in traversal order, starting at the head. O(n) — the
    /// order is defined by the links themselves, never by hash-map
    /// iteration, so it is deterministic.
    #[must_use]
    pub fn nodes(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.links.len());
        let Some(h) = self.head else {
            return out;
        };
        let mut cur = h;
        loop {
            out.push(cur);
            cur = self.links[&cur].next;
            if cur == h {
                break;
            }
        }
        out
    }

    /// Write the link `from -> to`: `from`'s `jmp` gets the target the
    /// embedder answers.
    fn patch(
        &mut self,
        m: &mut Machine,
        code: &impl NodeCode,
        from: u32,
        to: u32,
    ) -> Result<(), MachineError> {
        self.patch_count += 1;
        let (jmp_at, target) = code.link(from, to);
        m.code.patch_jmp_target(jmp_at, target)
    }

    /// Insert node `id` so it runs next after `after` — the Synthesis
    /// unblocking rule: "As an event unblocks a thread, its TTE is placed
    /// at the front of the ready queue, giving it immediate access to the
    /// CPU" (paper Section 4.4). With `after` absent (or not in the
    /// chain) the node goes right after the head; on an empty chain it
    /// becomes the sole, self-chained node. Writes the two disturbed
    /// links (one on an empty chain), each once. O(1).
    ///
    /// # Errors
    ///
    /// Fails if a `jmp` address does not hold a patchable jump.
    pub fn insert_next(
        &mut self,
        m: &mut Machine,
        after: Option<u32>,
        id: u32,
        code: &impl NodeCode,
    ) -> Result<(), MachineError> {
        debug_assert!(!self.contains(id), "duplicate chain id");
        let Some(head) = self.head else {
            self.patch(m, code, id, id)?;
            self.links.insert(id, Link { prev: id, next: id });
            self.head = Some(id);
            return Ok(());
        };
        let after = after.filter(|a| self.contains(*a)).unwrap_or(head);
        let next = self.links[&after].next;
        self.patch(m, code, id, next)?;
        self.patch(m, code, after, id)?;
        self.links.insert(id, Link { prev: after, next });
        self.links.get_mut(&after).expect("pred exists").next = id;
        self.links.get_mut(&next).expect("succ exists").prev = id;
        Ok(())
    }

    /// Remove node `id`, writing its predecessor's `jmp` — the one
    /// disturbed link — to skip it. Returns whether it was a member. O(1).
    ///
    /// # Errors
    ///
    /// Fails if a `jmp` address does not hold a patchable jump.
    pub fn remove(
        &mut self,
        m: &mut Machine,
        id: u32,
        code: &impl NodeCode,
    ) -> Result<bool, MachineError> {
        let Some(link) = self.links.get(&id).copied() else {
            return Ok(false);
        };
        if self.links.len() == 1 {
            self.links.remove(&id);
            self.head = None;
            return Ok(true);
        }
        self.patch(m, code, link.prev, link.next)?;
        self.links.get_mut(&link.prev).expect("pred exists").next = link.next;
        self.links.get_mut(&link.next).expect("succ exists").prev = link.prev;
        self.links.remove(&id);
        if self.head == Some(id) {
            self.head = Some(link.next);
        }
        Ok(true)
    }

    /// Aim the `jmp` of `outsider` — a node that is executing but is not
    /// (or no longer) a member — at the chain's head, so control leaving
    /// it falls into the chain. No-op on an empty chain. O(1).
    ///
    /// # Errors
    ///
    /// Fails if the `jmp` address does not hold a patchable jump.
    pub fn aim_at_head(
        &mut self,
        m: &mut Machine,
        outsider: u32,
        code: &impl NodeCode,
    ) -> Result<(), MachineError> {
        debug_assert!(!self.contains(outsider), "a member's jmp is a link");
        match self.head {
            Some(head) => self.patch(m, code, outsider, head),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::asm::Asm;
    use quamachine::isa::{Instr, Operand, Operand::*, Size::L};
    use quamachine::machine::{Machine, MachineConfig};
    use std::collections::HashMap;

    /// The embedder's side of the contract for these tests: each node's
    /// `jmp` from `jmp`, and a link's target from `target`.
    struct Code<'a, F> {
        jmp: &'a HashMap<u32, u32>,
        target: F,
    }

    impl<F: Fn(u32, u32) -> u32> NodeCode for Code<'_, F> {
        fn link(&self, from: u32, to: u32) -> (u32, u32) {
            (self.jmp[&from], (self.target)(from, to))
        }
    }

    /// A machine plus the entry and `jmp` address of every node built on
    /// it; a link targets `to`'s entry whatever `from` is.
    struct Rig {
        m: Machine,
        entry: HashMap<u32, u32>,
        jmp: HashMap<u32, u32>,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                m: Machine::new(MachineConfig::sun3_emulation()),
                entry: HashMap::new(),
                jmp: HashMap::new(),
            }
        }

        /// Build a node whose code is `move #id,d0 ; add #1,d1 ; jmp <patched>`:
        /// executing the chain leaves the visited node's id in d0 and bumps
        /// d1 once per visit.
        fn node(&mut self, base: u32, id: u32) -> u32 {
            let mut a = Asm::new(format!("node{id}"));
            a.move_i(L, id, Dr(0));
            a.add(L, Imm(1), Dr(1));
            let jmp_idx = a.len();
            a.jmp(Abs(0)); // patched by the chain
            let blk = a.assemble().unwrap();
            let entry = self.m.load_block(base, blk).unwrap();
            self.entry.insert(id, entry);
            let jmp_at = self.m.code.addr_of(base, jmp_idx).unwrap();
            self.jmp.insert(id, jmp_at);
            id
        }

        /// Split the rig into its machine and the chain's answers, with
        /// `target` as the link rule.
        fn with<F: Fn(u32, u32) -> u32>(&mut self, target: F) -> (&mut Machine, Code<'_, F>) {
            let code = Code {
                jmp: &self.jmp,
                target,
            };
            (&mut self.m, code)
        }

        fn insert(&mut self, chain: &mut JumpChain, after: Option<u32>, id: u32) {
            let Rig { m, entry, jmp } = self;
            let code = Code {
                jmp,
                target: |_, to| entry[&to],
            };
            chain.insert_next(m, after, id, &code).unwrap();
        }

        fn remove(&mut self, chain: &mut JumpChain, id: u32) -> bool {
            let Rig { m, entry, jmp } = self;
            let code = Code {
                jmp,
                target: |_, to| entry[&to],
            };
            chain.remove(m, id, &code).unwrap()
        }

        /// The target installed in node `id`'s `jmp`.
        fn installed(&self, id: u32) -> u32 {
            let loc = self.m.code.locate(self.jmp[&id]).unwrap();
            match self.m.code.instr(loc) {
                Some(Instr::Jmp(Operand::Abs(t))) => *t,
                other => panic!("not a patched jmp: {other:?}"),
            }
        }

        /// Execute the chain from node `id`, recording d0 at each visit.
        fn run_from(&mut self, id: u32, steps: u64) -> Vec<u32> {
            self.m.cpu.pc = self.entry[&id];
            self.m.cpu.a[7] = 0x8000;
            self.run_on(steps)
        }

        fn run_on(&mut self, steps: u64) -> Vec<u32> {
            let mut visits = Vec::new();
            let mut budget = steps;
            while budget > 0 {
                let before = self.m.cpu.d[1];
                match self.m.step() {
                    Ok(None) => {}
                    other => panic!("unexpected exit {other:?}"),
                }
                if self.m.cpu.d[1] != before {
                    visits.push(self.m.cpu.d[0]);
                    budget -= 1;
                }
            }
            visits
        }
    }

    #[test]
    fn single_node_chains_to_itself() {
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 10);
        let mut chain = JumpChain::new();
        r.insert(&mut chain, None, n0);
        assert_eq!(r.run_from(10, 3), vec![10, 10, 10]);
    }

    #[test]
    fn insertion_and_traversal_order() {
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 10);
        let n1 = r.node(0x1100, 11);
        let n2 = r.node(0x1200, 12);
        let mut chain = JumpChain::new();
        r.insert(&mut chain, None, n0);
        r.insert(&mut chain, Some(10), n1);
        r.insert(&mut chain, Some(11), n2);
        assert_eq!(r.run_from(10, 6), vec![10, 11, 12, 10, 11, 12]);
    }

    #[test]
    fn removal_patches_predecessor() {
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 10);
        let n1 = r.node(0x1100, 11);
        let n2 = r.node(0x1200, 12);
        let mut chain = JumpChain::new();
        r.insert(&mut chain, None, n0);
        r.insert(&mut chain, Some(10), n1);
        r.insert(&mut chain, Some(11), n2);
        assert!(r.remove(&mut chain, 11));
        assert_eq!(r.run_from(10, 4), vec![10, 12, 10, 12]);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn remove_unknown_id_is_false() {
        let mut r = Rig::new();
        let mut chain = JumpChain::new();
        assert!(!r.remove(&mut chain, 42));
    }

    #[test]
    fn removing_last_node_empties_chain() {
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 10);
        let mut chain = JumpChain::new();
        r.insert(&mut chain, None, n0);
        assert!(r.remove(&mut chain, 10));
        assert!(chain.is_empty());
        assert_eq!(chain.head(), None);
    }

    #[test]
    fn halted_machine_not_required_for_patching() {
        // Patching works while the "machine" is mid-run (between steps):
        // insert a node while executing and observe it on the next lap.
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 10);
        let n1 = r.node(0x1100, 11);
        let mut chain = JumpChain::new();
        r.insert(&mut chain, None, n0);
        r.m.cpu.pc = r.entry[&10];
        r.m.cpu.a[7] = 0x8000;
        // Take a lap, then splice in n1.
        for _ in 0..3 {
            r.m.step().unwrap();
        }
        r.insert(&mut chain, Some(10), n1);
        let visits = r.run_on(4);
        assert!(visits.windows(2).any(|w| w == [10, 11] || w == [11, 10]));
    }

    #[test]
    fn patch_count_accumulates() {
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 1);
        let n1 = r.node(0x1100, 2);
        let mut chain = JumpChain::new();
        r.insert(&mut chain, None, n0);
        r.insert(&mut chain, Some(1), n1);
        r.remove(&mut chain, 2);
        assert_eq!(chain.patch_count, 4); // 1 + 2 + 1
    }

    /// The chain never decides a target: every link it writes holds
    /// exactly what `target(from, to)` answered for that pair, in the
    /// `jmp` the embedder names, and each disturbed link is written once.
    #[test]
    fn every_link_holds_what_the_target_function_answered() {
        let mut r = Rig::new();
        let nodes: Vec<u32> = (0..4).map(|i| r.node(0x1000 + i * 0x100, i)).collect();
        // A target that depends on *both* ends, like the kernel's
        // same-map/other-map choice.
        let target = |from: u32, to: u32| 0x1000 + to * 0x100 + 2 * ((from + to) % 2);
        let mut chain = JumpChain::new();
        let check = |chain: &JumpChain, r: &Rig| {
            for n in chain.nodes() {
                let next = chain.next_of_id(n).unwrap();
                assert_eq!(r.installed(n), target(n, next));
            }
        };
        for (i, &n) in nodes.iter().enumerate() {
            let before = chain.patch_count;
            let (m, code) = r.with(target);
            chain.insert_next(m, Some(0), n, &code).unwrap();
            assert_eq!(chain.patch_count - before, if i == 0 { 1 } else { 2 });
            check(&chain, &r);
        }
        let before = chain.patch_count;
        let (m, code) = r.with(target);
        assert!(chain.remove(m, 2, &code).unwrap());
        assert_eq!(chain.patch_count - before, 1);
        check(&chain, &r);
        // The removed node is an outsider now; aiming it at the head is
        // one more write and the same question.
        let (m, code) = r.with(target);
        chain.aim_at_head(m, nodes[2], &code).unwrap();
        assert_eq!(chain.patch_count - before, 2);
        assert_eq!(r.installed(nodes[2]), target(2, chain.head().unwrap()));
    }

    #[test]
    fn aim_at_head_of_an_empty_chain_writes_nothing() {
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 10);
        let mut chain = JumpChain::new();
        let (m, code) = r.with(|_, _| 0);
        chain.aim_at_head(m, n0, &code).unwrap();
        assert_eq!(chain.patch_count, 0);
    }

    #[test]
    fn insert_next_without_an_anchor_goes_after_the_head() {
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 10);
        let n1 = r.node(0x1100, 11);
        let n2 = r.node(0x1200, 12);
        let mut chain = JumpChain::new();
        r.insert(&mut chain, None, n0);
        r.insert(&mut chain, None, n1);
        r.insert(&mut chain, Some(11), n2);
        assert_eq!(chain.nodes(), vec![10, 11, 12]);
        assert_eq!(r.run_from(10, 6), vec![10, 11, 12, 10, 11, 12]);
    }

    #[test]
    fn neighbour_lookups_are_consistent_with_order() {
        let mut r = Rig::new();
        let mut chain = JumpChain::new();
        for i in 0..5u32 {
            let n = r.node(0x1000 + i * 0x100, i);
            r.insert(&mut chain, i.checked_sub(1), n);
        }
        let order = chain.nodes();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        for (i, &id) in order.iter().enumerate() {
            assert!(chain.contains(id));
            assert_eq!(chain.next_of_id(id).unwrap(), order[(i + 1) % order.len()]);
            assert_eq!(
                chain.links[&id].prev,
                order[(i + order.len() - 1) % order.len()]
            );
        }
        assert_eq!(chain.head().unwrap(), 0);
    }

    #[test]
    fn head_advances_when_head_is_removed() {
        let mut r = Rig::new();
        let n0 = r.node(0x1000, 10);
        let n1 = r.node(0x1100, 11);
        let n2 = r.node(0x1200, 12);
        let mut chain = JumpChain::new();
        r.insert(&mut chain, None, n0);
        r.insert(&mut chain, Some(10), n1);
        r.insert(&mut chain, Some(11), n2);
        assert!(r.remove(&mut chain, 10));
        assert_eq!(chain.head().unwrap(), 11);
        assert_eq!(chain.nodes(), vec![11, 12]);
    }

    #[test]
    fn scale_membership_and_neighbours_without_walks() {
        // A large chain: every O(1) query agrees with the O(n) walk.
        let mut r = Rig::new();
        let mut chain = JumpChain::new();
        for i in 0..500u32 {
            let n = r.node(0x1_0000 + i * 0x40, i);
            r.insert(&mut chain, i.checked_sub(1), n);
        }
        assert_eq!(chain.len(), 500);
        let order = chain.nodes();
        for w in order.windows(2) {
            assert_eq!(chain.next_of_id(w[0]).unwrap(), w[1]);
            assert_eq!(chain.links[&w[1]].prev, w[0]);
        }
        // Remove every third node; the remaining order survives.
        for i in (0..500u32).step_by(3) {
            assert!(r.remove(&mut chain, i));
        }
        let left = chain.nodes();
        assert_eq!(left.len(), chain.len());
        assert!(left.iter().all(|&i| i % 3 != 0));
    }
}

//! Model-based property tests: every queue flavour, driven by a random
//! sequence of put/get operations from a single thread, must behave
//! exactly like a bounded `VecDeque`.

use std::collections::VecDeque;

use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u32),
    PutMany(Vec<u32>),
    Get,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u32>().prop_map(Op::Put),
        1 => proptest::collection::vec(any::<u32>(), 0..6).prop_map(Op::PutMany),
        4 => Just(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn spsc_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200), cap in 1usize..16) {
        let (mut p, mut c) = synthesis_blocks::spsc::channel::<u32>(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Put(v) => {
                    let r = p.put(v);
                    if model.len() < cap {
                        prop_assert!(r.is_ok());
                        model.push_back(v);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Op::Get => {
                    prop_assert_eq!(c.get(), model.pop_front());
                }
                Op::PutMany(vs) => {
                    let fits = model.len() + vs.len() <= cap;
                    let r = p.put_many(vs.clone());
                    if vs.is_empty() || fits {
                        prop_assert!(r.is_ok());
                        model.extend(vs);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
            }
        }
        // Drain and compare the remainder.
        while let Some(v) = c.get() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn mpsc_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200), cap in 1usize..16) {
        let (p, mut c) = synthesis_blocks::mpsc::channel::<u32>(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Put(v) => {
                    let r = p.put(v);
                    if model.len() < cap {
                        prop_assert!(r.is_ok());
                        model.push_back(v);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Op::PutMany(vs) => {
                    let fits = vs.len() <= cap && model.len() + vs.len() <= cap;
                    let r = p.put_many(vs.clone());
                    if vs.is_empty() {
                        prop_assert!(r.is_ok());
                    } else if fits {
                        prop_assert!(r.is_ok());
                        model.extend(vs);
                    } else {
                        prop_assert!(r.is_err(), "batch of {} into {} free", vs.len(), cap - model.len());
                    }
                }
                Op::Get => {
                    prop_assert_eq!(c.get(), model.pop_front());
                }
            }
        }
        while let Some(v) = c.get() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn mpmc_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200), cap in 2usize..16) {
        let q = synthesis_blocks::mpmc::channel::<u32>(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Put(v) => {
                    let r = q.put(v);
                    if model.len() < cap {
                        prop_assert!(r.is_ok());
                        model.push_back(v);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Op::Get => {
                    prop_assert_eq!(q.get(), model.pop_front());
                }
                Op::PutMany(vs) => {
                    let fits = model.len() + vs.len() <= cap;
                    let r = q.put_many(vs.clone());
                    if vs.is_empty() || fits {
                        prop_assert!(r.is_ok());
                        model.extend(vs);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
            }
        }
        while let Some(v) = q.get() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    #[test]
    fn spmc_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200), cap in 2usize..16) {
        let (mut p, c) = synthesis_blocks::spmc::channel::<u32>(cap);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                Op::Put(v) => {
                    let r = p.put(v);
                    if model.len() < cap {
                        prop_assert!(r.is_ok());
                        model.push_back(v);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
                Op::Get => {
                    prop_assert_eq!(c.get(), model.pop_front());
                }
                Op::PutMany(vs) => {
                    let fits = model.len() + vs.len() <= cap;
                    let r = p.put_many(vs.clone());
                    if vs.is_empty() || fits {
                        prop_assert!(r.is_ok());
                        model.extend(vs);
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
            }
        }
        while let Some(v) = c.get() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }

    /// The Figure 2 multi-item insert is all-or-nothing: a batch that
    /// does not fit is refused *before* any slot is claimed, so the
    /// queue's contents, order, and head position are untouched and the
    /// whole batch comes back to the caller.
    #[test]
    fn mpsc_batchfull_rolls_back_cleanly(
        prefill in proptest::collection::vec(any::<u32>(), 0..8),
        batch in proptest::collection::vec(any::<u32>(), 1..12),
        cap in 1usize..8,
    ) {
        let (p, mut c) = synthesis_blocks::mpsc::channel::<u32>(cap);
        let accepted: Vec<u32> = prefill.into_iter().take(cap).collect();
        for &v in &accepted {
            prop_assert!(p.put(v).is_ok());
        }
        let free = cap - accepted.len();
        if batch.len() > free {
            // Refused mid-claim: the batch is handed back intact...
            let synthesis_blocks::BatchFull(back) = p.put_many(batch.clone()).unwrap_err();
            prop_assert_eq!(&back, &batch, "the refused batch comes back in order");
            // ...and the queue still holds exactly the prefill, in order.
            let mut drained = Vec::new();
            while let Some(v) = c.get() {
                drained.push(v);
            }
            prop_assert_eq!(&drained, &accepted, "a refused batch leaves no trace");
            // The rollback did not corrupt the head: a fitting batch
            // still lands in the fully drained queue.
            let fitting: Vec<u32> = back.into_iter().take(cap).collect();
            let n = fitting.len();
            prop_assert!(p.put_many(fitting.clone()).is_ok());
            let mut after = Vec::new();
            while let Some(v) = c.get() {
                after.push(v);
            }
            prop_assert_eq!(after, fitting);
            prop_assert!(n <= cap);
        } else {
            prop_assert!(p.put_many(batch.clone()).is_ok());
            let mut drained = Vec::new();
            while let Some(v) = c.get() {
                drained.push(v);
            }
            let mut want = accepted;
            want.extend(batch);
            prop_assert_eq!(drained, want, "an accepted batch appends in order");
        }
        // Single-threaded there is no CAS contention: every insert took
        // the 11-instruction fast path.
        prop_assert_eq!(p.stats().retries, 0);
    }

    /// Same all-or-nothing contract for the SP-SC flavour, where the
    /// batch publishes via a single head store instead of per-slot
    /// flags: a refused batch must leave the cached head untouched.
    #[test]
    fn spsc_batchfull_rolls_back_cleanly(
        prefill in proptest::collection::vec(any::<u32>(), 0..8),
        batch in proptest::collection::vec(any::<u32>(), 1..12),
        cap in 1usize..8,
    ) {
        let (mut p, mut c) = synthesis_blocks::spsc::channel::<u32>(cap);
        let accepted: Vec<u32> = prefill.into_iter().take(cap).collect();
        for &v in &accepted {
            prop_assert!(p.put(v).is_ok());
        }
        let free = cap - accepted.len();
        if batch.len() > free {
            let synthesis_blocks::BatchFull(back) = p.put_many(batch.clone()).unwrap_err();
            prop_assert_eq!(&back, &batch, "the refused batch comes back in order");
            let mut drained = Vec::new();
            while let Some(v) = c.get() {
                drained.push(v);
            }
            prop_assert_eq!(&drained, &accepted, "a refused batch leaves no trace");
            let fitting: Vec<u32> = back.into_iter().take(cap).collect();
            prop_assert!(p.put_many(fitting.clone()).is_ok());
            let mut after = Vec::new();
            while let Some(v) = c.get() {
                after.push(v);
            }
            prop_assert_eq!(after, fitting, "the head survives a refusal");
        } else {
            prop_assert!(p.put_many(batch.clone()).is_ok());
            let mut drained = Vec::new();
            while let Some(v) = c.get() {
                drained.push(v);
            }
            let mut want = accepted;
            want.extend(batch);
            prop_assert_eq!(drained, want, "an accepted batch appends in order");
        }
    }

    /// SP-MC: the batch publishes per-slot through the Figure 2 flag
    /// array (sequence stamps), in slot order — so after a refusal the
    /// stamps must all still read "free" and a retry lands cleanly.
    #[test]
    fn spmc_batchfull_rolls_back_cleanly(
        prefill in proptest::collection::vec(any::<u32>(), 0..8),
        batch in proptest::collection::vec(any::<u32>(), 1..12),
        cap in 2usize..8,
    ) {
        let (mut p, c) = synthesis_blocks::spmc::channel::<u32>(cap);
        let accepted: Vec<u32> = prefill.into_iter().take(cap).collect();
        for &v in &accepted {
            prop_assert!(p.put(v).is_ok());
        }
        let free = cap - accepted.len();
        if batch.len() > free {
            let synthesis_blocks::BatchFull(back) = p.put_many(batch.clone()).unwrap_err();
            prop_assert_eq!(&back, &batch, "the refused batch comes back in order");
            let mut drained = Vec::new();
            while let Some(v) = c.get() {
                drained.push(v);
            }
            prop_assert_eq!(&drained, &accepted, "a refused batch leaves no trace");
            let fitting: Vec<u32> = back.into_iter().take(cap).collect();
            prop_assert!(p.put_many(fitting.clone()).is_ok());
            let mut after = Vec::new();
            while let Some(v) = c.get() {
                after.push(v);
            }
            prop_assert_eq!(after, fitting, "no slot stamp was disturbed by the refusal");
        } else {
            prop_assert!(p.put_many(batch.clone()).is_ok());
            let mut drained = Vec::new();
            while let Some(v) = c.get() {
                drained.push(v);
            }
            let mut want = accepted;
            want.extend(batch);
            prop_assert_eq!(drained, want, "an accepted batch appends in order");
        }
    }

    /// MP-MC: the claim is a single multi-slot CAS; a refusal happens
    /// before the CAS, so neither the head nor any sequence stamp moves.
    #[test]
    fn mpmc_batchfull_rolls_back_cleanly(
        prefill in proptest::collection::vec(any::<u32>(), 0..8),
        batch in proptest::collection::vec(any::<u32>(), 1..12),
        cap in 2usize..8,
    ) {
        let q = synthesis_blocks::mpmc::channel::<u32>(cap);
        let accepted: Vec<u32> = prefill.into_iter().take(cap).collect();
        for &v in &accepted {
            prop_assert!(q.put(v).is_ok());
        }
        let free = cap - accepted.len();
        if batch.len() > free {
            let synthesis_blocks::BatchFull(back) = q.put_many(batch.clone()).unwrap_err();
            prop_assert_eq!(&back, &batch, "the refused batch comes back in order");
            let mut drained = Vec::new();
            while let Some(v) = q.get() {
                drained.push(v);
            }
            prop_assert_eq!(&drained, &accepted, "a refused batch leaves no trace");
            let fitting: Vec<u32> = back.into_iter().take(cap).collect();
            prop_assert!(q.put_many(fitting.clone()).is_ok());
            let mut after = Vec::new();
            while let Some(v) = q.get() {
                after.push(v);
            }
            prop_assert_eq!(after, fitting, "the head claim counter survives a refusal");
        } else {
            prop_assert!(q.put_many(batch.clone()).is_ok());
            let mut drained = Vec::new();
            while let Some(v) = q.get() {
                drained.push(v);
            }
            let mut want = accepted;
            want.extend(batch);
            prop_assert_eq!(drained, want, "an accepted batch appends in order");
        }
        // Single-threaded: no contention, so the claim CAS never retried.
        prop_assert_eq!(q.retries(), 0);
    }

    #[test]
    fn buffered_preserves_order_and_amortizes(
        items in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let (mut p, mut c) = synthesis_blocks::buffered::channel::<u32, 4>(64);
        for &v in &items {
            prop_assert!(p.put(v).is_ok());
        }
        let complete = items.len() / 4 * 4;
        let mut got = Vec::new();
        while let Some(v) = c.get() {
            got.push(v);
        }
        prop_assert_eq!(&got[..], &items[..complete], "complete chunks drain in order");
        prop_assert_eq!(p.staged(), items.len() % 4);
    }
}

/// Four producers hammering a tiny queue with mixed single and batch
/// inserts: every item is delivered exactly once. Whether two claims
/// actually overlap here is up to the host scheduler; the CAS collision
/// itself ("the failing thread goes once around the retry loop") is
/// forced deterministically by `mpsc_overlapping_claims_count_cas_retries`
/// in `linearize.rs`.
#[test]
fn mpsc_contended_puts_count_cas_retries() {
    use synthesis_blocks::{BatchFull, Full};

    const PER_PRODUCER: u64 = 5_000;
    const PRODUCERS: u64 = 4;
    let (p, mut c) = synthesis_blocks::mpsc::channel::<u64>(4);
    let mut handles = Vec::new();
    for t in 0..PRODUCERS {
        let p = p.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_PRODUCER {
                let v = t * PER_PRODUCER + i;
                if i % 3 == 0 {
                    let mut b = vec![v];
                    loop {
                        match p.put_many(b) {
                            Ok(()) => break,
                            Err(BatchFull(back)) => {
                                b = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                } else {
                    let mut w = v;
                    loop {
                        match p.put(w) {
                            Ok(()) => break,
                            Err(Full(back)) => {
                                w = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }
        }));
    }
    let total = PRODUCERS * PER_PRODUCER;
    let mut sum: u64 = 0;
    let mut count: u64 = 0;
    while count < total {
        if let Some(v) = c.get() {
            sum = sum.wrapping_add(v);
            count += 1;
        } else {
            std::thread::yield_now();
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(c.get(), None, "nothing duplicated or left behind");
    let expect: u64 = (0..total).sum();
    assert_eq!(sum, expect, "every item delivered exactly once");
    assert_eq!(
        p.stats().retries,
        p.clone().stats().retries,
        "clones report the shared counter"
    );
}

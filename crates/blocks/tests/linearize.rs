//! Linearizability suite for the optimistic queues, driven by the
//! deterministic schedule-exploration executor (`--features sim`).
//!
//! Each scenario runs 2–4 model threads doing `put` / `put_many` / `get`
//! against a queue, recording a per-thread history of operations with
//! logical-clock intervals ([`sim::now`]). After the
//! threads finish, the main thread drains the queue (with timestamps
//! after every recorded op) and a Wing & Gold-style checker searches for
//! a legal sequential witness against a reference `VecDeque` model. The
//! explorer then enumerates ≥ 10k distinct schedules per queue flavor;
//! any schedule without a witness fails with a replayable trace.
//!
//! ## Strict vs. relaxed emptiness
//!
//! The claim-based flavors are *not* strictly linearizable for transient
//! emptiness, and correctly so: in the paper's Figure 2 protocol a
//! producer stakes a claim (head CAS) before publishing (valid flag), so
//! a consumer can observe "empty" while a *completed* later put is hidden
//! behind an earlier claim still in flight. The spec therefore accepts a
//! `Get -> None` (or a refused put) on those flavors iff some explaining
//! operation's interval overlaps it. Drain-phase operations get
//! timestamps after everything, so nothing overlaps them: lost updates,
//! duplicated items, reordering, and partial batches are still caught.

#![cfg(feature = "sim")]

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use synthesis_blocks::sim::{self, Explorer, Scenario};
use synthesis_blocks::steal::WorkPool;
use synthesis_blocks::{mpmc, mpsc, spmc, spsc};

// ---------------------------------------------------------------------
// Histories
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Op {
    /// `Put(value, accepted)`; `accepted == false` means the queue
    /// refused it (Full).
    Put(u64, bool),
    /// All-or-nothing batch insert and whether it was accepted.
    PutMany(Vec<u64>, bool),
    Get(Option<u64>),
}

#[derive(Clone, Debug)]
struct OpRec {
    start: u64,
    end: u64,
    op: Op,
}

type Hist = Arc<Mutex<Vec<OpRec>>>;

/// Record one completed operation. The lock is only held between
/// preemption points (no shim atomic is touched while holding it), so
/// model threads never block each other here.
fn record(hist: &Hist, start: u64, op: Op) {
    let end = sim::now();
    hist.lock().unwrap().push(OpRec { start, end, op });
}

// ---------------------------------------------------------------------
// The checker: search for a sequential witness
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Spec {
    cap: usize,
    /// Claim-based flavor: transient empty/full verdicts are legal when
    /// an overlapping operation explains them (see module docs).
    relaxed: bool,
}

fn overlaps(a: &OpRec, b: &OpRec) -> bool {
    !(a.end < b.start || b.end < a.start)
}

struct Checker<'a> {
    hist: &'a [OpRec],
    spec: Spec,
    /// `must_before[i]`: bitmask of ops that finished strictly before op
    /// `i` started — they must all be linearized before `i`.
    must_before: Vec<u64>,
    /// `explained[i]`: an overlapping op exists that can explain a
    /// transient empty (for gets) or full (for refused puts) verdict.
    explained: Vec<bool>,
    memo: HashSet<(u64, Vec<u64>)>,
}

impl<'a> Checker<'a> {
    fn new(hist: &'a [OpRec], spec: Spec) -> Self {
        let n = hist.len();
        assert!(n <= 64, "history too long for the bitmask checker");
        let mut must_before = vec![0u64; n];
        let mut explained = vec![false; n];
        for i in 0..n {
            for j in 0..n {
                if i != j && hist[j].end < hist[i].start {
                    must_before[i] |= 1 << j;
                }
            }
            explained[i] = hist.iter().enumerate().any(|(j, r)| {
                j != i
                    && overlaps(r, &hist[i])
                    && matches!(
                        r.op,
                        Op::Put(_, true) | Op::PutMany(_, true) | Op::Get(Some(_))
                    )
            });
        }
        Checker {
            hist,
            spec,
            must_before,
            explained,
            memo: HashSet::new(),
        }
    }

    fn search(&mut self) -> bool {
        let mut q = VecDeque::new();
        self.dfs(0, &mut q)
    }

    fn dfs(&mut self, taken: u64, q: &mut VecDeque<u64>) -> bool {
        let n = self.hist.len();
        if taken == (1u64 << n) - 1 {
            return true;
        }
        if !self.memo.insert((taken, q.iter().copied().collect())) {
            return false;
        }
        let spec = self.spec;
        for i in 0..n {
            if taken & (1 << i) != 0 || self.must_before[i] & !taken != 0 {
                continue;
            }
            match &self.hist[i].op {
                Op::Put(v, true) => {
                    if q.len() < spec.cap {
                        q.push_back(*v);
                        if self.dfs(taken | 1 << i, q) {
                            return true;
                        }
                        q.pop_back();
                    }
                }
                Op::Put(_, false) => {
                    let legal = q.len() >= spec.cap || (spec.relaxed && self.explained[i]);
                    if legal && self.dfs(taken | 1 << i, q) {
                        return true;
                    }
                }
                Op::PutMany(vs, true) => {
                    if q.len() + vs.len() <= spec.cap {
                        for &v in vs {
                            q.push_back(v);
                        }
                        if self.dfs(taken | 1 << i, q) {
                            return true;
                        }
                        for _ in vs {
                            q.pop_back();
                        }
                    }
                }
                Op::PutMany(vs, false) => {
                    let legal =
                        q.len() + vs.len() > spec.cap || (spec.relaxed && self.explained[i]);
                    if legal && self.dfs(taken | 1 << i, q) {
                        return true;
                    }
                }
                Op::Get(Some(v)) => {
                    if q.front() == Some(v) {
                        q.pop_front();
                        if self.dfs(taken | 1 << i, q) {
                            return true;
                        }
                        q.push_front(*v);
                    }
                }
                Op::Get(None) => {
                    let legal = q.is_empty() || (spec.relaxed && self.explained[i]);
                    if legal && self.dfs(taken | 1 << i, q) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

fn fmt_hist(hist: &[OpRec]) -> String {
    hist.iter()
        .map(|r| format!("  [{:>4},{:>4}] {:?}", r.start, r.end, r.op))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Append the drain-phase gets (timestamps after every recorded op, so
/// they never overlap anything) and run the witness search.
fn check_history(hist: &Hist, drained: Vec<Option<u64>>, spec: Spec) -> Result<(), String> {
    let mut h = hist.lock().unwrap().clone();
    let mut ts = 1u64 << 60;
    for item in drained {
        h.push(OpRec {
            start: ts,
            end: ts + 1,
            op: Op::Get(item),
        });
        ts += 2;
    }
    if Checker::new(&h, spec).search() {
        Ok(())
    } else {
        Err(format!(
            "no sequential witness for history:\n{}",
            fmt_hist(&h)
        ))
    }
}

// ---------------------------------------------------------------------
// Exploration driver (the acceptance criterion lives here)
// ---------------------------------------------------------------------

fn explore_flavor(name: &str, budget: u32, make: impl FnMut() -> Scenario) {
    let t0 = Instant::now();
    let explorer = Explorer {
        preemption_budget: budget,
        max_schedules: 12_000,
        max_steps: 20_000,
    };
    let report = explorer.explore(make);
    report.assert_ok();
    assert!(
        report.schedules >= 10_000,
        "{name}: only {} schedules explored{} — raise the preemption budget",
        report.schedules,
        if report.exhausted {
            " (tree exhausted)"
        } else {
            ""
        }
    );
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "{name}: exploration took {:?}, over the 60 s budget",
        t0.elapsed()
    );
}

/// A shared slot holding a loaned-out queue endpoint.
type Loan<C> = Arc<Mutex<Option<C>>>;

/// Hand a non-cloneable consumer into its model thread and back out to
/// the drain phase. The mutex is only touched at thread entry/exit and in
/// the final check, never concurrently.
fn loan<C: Send>(c: C) -> (Loan<C>, Loan<C>) {
    let slot = Arc::new(Mutex::new(Some(c)));
    (slot.clone(), slot)
}

// ---------------------------------------------------------------------
// Scenarios, one per flavor
// ---------------------------------------------------------------------

fn spsc_scenario() -> Scenario {
    // Figure 1 is so synchronization-light (cached indices; one atomic
    // store per put on the fast path) that a small scenario has a tiny
    // schedule tree — so this one pushes past capacity to force the
    // full/empty boundary refreshes, the only places spsc synchronizes.
    let (mut p, c) = spsc::channel::<u64>(3);
    let hist: Hist = Arc::new(Mutex::new(Vec::new()));
    let (c_in, c_out) = loan(c);
    let (hp, hc, hk) = (hist.clone(), hist.clone(), hist);
    Scenario::new()
        .thread(move || {
            for v in [1, 2, 3, 4] {
                let s = sim::now();
                let ok = p.put(v).is_ok();
                record(&hp, s, Op::Put(v, ok));
            }
            for batch in [vec![5, 6], vec![7, 8]] {
                let s = sim::now();
                let ok = p.put_many(batch.clone()).is_ok();
                record(&hp, s, Op::PutMany(batch, ok));
            }
        })
        .thread(move || {
            let mut c = c_in.lock().unwrap().take().unwrap();
            for _ in 0..6 {
                let s = sim::now();
                let got = c.get();
                record(&hc, s, Op::Get(got));
            }
            *c_in.lock().unwrap() = Some(c);
        })
        .check(move || {
            let mut c = c_out.lock().unwrap().take().unwrap();
            let mut drained = Vec::new();
            loop {
                let got = c.get();
                let done = got.is_none();
                drained.push(got);
                if done {
                    break;
                }
            }
            check_history(
                &hk,
                drained,
                Spec {
                    cap: 3,
                    relaxed: false, // Figure 1 publishes with a single head store
                },
            )
        })
}

fn mpsc_scenario() -> Scenario {
    let (p, c) = mpsc::channel::<u64>(4);
    let p2 = p.clone();
    let hist: Hist = Arc::new(Mutex::new(Vec::new()));
    let (c_in, c_out) = loan(c);
    let (h1, h2, hc, hk) = (hist.clone(), hist.clone(), hist.clone(), hist);
    Scenario::new()
        .thread(move || {
            for v in [1, 2] {
                let s = sim::now();
                let ok = p.put(v).is_ok();
                record(&h1, s, Op::Put(v, ok));
            }
        })
        .thread(move || {
            let s = sim::now();
            let ok = p2.put(11).is_ok();
            record(&h2, s, Op::Put(11, ok));
            let s = sim::now();
            let ok = p2.put_many(vec![12, 13]).is_ok();
            record(&h2, s, Op::PutMany(vec![12, 13], ok));
        })
        .thread(move || {
            let mut c = c_in.lock().unwrap().take().unwrap();
            for _ in 0..3 {
                let s = sim::now();
                let got = c.get();
                record(&hc, s, Op::Get(got));
            }
            *c_in.lock().unwrap() = Some(c);
        })
        .check(move || {
            let mut c = c_out.lock().unwrap().take().unwrap();
            let mut drained = Vec::new();
            loop {
                let got = c.get();
                let done = got.is_none();
                drained.push(got);
                if done {
                    break;
                }
            }
            check_history(
                &hk,
                drained,
                Spec {
                    cap: 4,
                    relaxed: true, // Figure 2 claims: empty can hide an in-flight claim
                },
            )
        })
}

/// Put-only spmc traffic is strictly linearizable: the single producer
/// publishes one item per seq stamp.
fn spmc_strict_scenario() -> Scenario {
    let (mut p, c) = spmc::channel::<u64>(4);
    let c2 = c.clone();
    let drain_c = c.clone();
    let hist: Hist = Arc::new(Mutex::new(Vec::new()));
    let (hp, h1, h2, hk) = (hist.clone(), hist.clone(), hist.clone(), hist);
    Scenario::new()
        .thread(move || {
            for v in [1, 2, 3] {
                let s = sim::now();
                let ok = p.put(v).is_ok();
                record(&hp, s, Op::Put(v, ok));
            }
        })
        .thread(move || {
            for _ in 0..2 {
                let s = sim::now();
                let got = c.get();
                record(&h1, s, Op::Get(got));
            }
        })
        .thread(move || {
            let s = sim::now();
            let got = c2.get();
            record(&h2, s, Op::Get(got));
        })
        .check(move || {
            let mut drained = Vec::new();
            loop {
                let got = drain_c.get();
                let done = got.is_none();
                drained.push(got);
                if done {
                    break;
                }
            }
            check_history(
                &hk,
                drained,
                Spec {
                    cap: 4,
                    relaxed: false,
                },
            )
        })
}

/// `put_many` on spmc publishes item-by-item (per-slot stamps), so a
/// consumer overlapping the batch may see a prefix — relaxed spec.
fn spmc_batch_scenario() -> Scenario {
    let (mut p, c) = spmc::channel::<u64>(4);
    let c2 = c.clone();
    let drain_c = c.clone();
    let hist: Hist = Arc::new(Mutex::new(Vec::new()));
    let (hp, h1, h2, hk) = (hist.clone(), hist.clone(), hist.clone(), hist);
    Scenario::new()
        .thread(move || {
            let s = sim::now();
            let ok = p.put(1).is_ok();
            record(&hp, s, Op::Put(1, ok));
            let s = sim::now();
            let ok = p.put_many(vec![2, 3]).is_ok();
            record(&hp, s, Op::PutMany(vec![2, 3], ok));
        })
        .thread(move || {
            for _ in 0..2 {
                let s = sim::now();
                let got = c.get();
                record(&h1, s, Op::Get(got));
            }
        })
        .thread(move || {
            let s = sim::now();
            let got = c2.get();
            record(&h2, s, Op::Get(got));
        })
        .check(move || {
            let mut drained = Vec::new();
            loop {
                let got = drain_c.get();
                let done = got.is_none();
                drained.push(got);
                if done {
                    break;
                }
            }
            check_history(
                &hk,
                drained,
                Spec {
                    cap: 4,
                    relaxed: true,
                },
            )
        })
}

fn mpmc_scenario() -> Scenario {
    let q = mpmc::channel::<u64>(3);
    let (q1, q2, q3, qd) = (q.clone(), q.clone(), q.clone(), q);
    let hist: Hist = Arc::new(Mutex::new(Vec::new()));
    let (h1, h2, h3, hk) = (hist.clone(), hist.clone(), hist.clone(), hist);
    Scenario::new()
        .thread(move || {
            for v in [1, 2] {
                let s = sim::now();
                let ok = q1.put(v).is_ok();
                record(&h1, s, Op::Put(v, ok));
            }
        })
        .thread(move || {
            let s = sim::now();
            let ok = q2.put_many(vec![11, 12]).is_ok();
            record(&h2, s, Op::PutMany(vec![11, 12], ok));
        })
        .thread(move || {
            for _ in 0..3 {
                let s = sim::now();
                let got = q3.get();
                record(&h3, s, Op::Get(got));
            }
        })
        .check(move || {
            let mut drained = Vec::new();
            loop {
                let got = qd.get();
                let done = got.is_none();
                drained.push(got);
                if done {
                    break;
                }
            }
            check_history(
                &hk,
                drained,
                Spec {
                    cap: 3,
                    relaxed: true,
                },
            )
        })
}

/// The SMP scheduler's work-stealing pool: a victim CPU offers surplus
/// threads while two thief CPUs steal, every model thread pinned to its
/// own CPU so cross-CPU interleavings are explored budget-free (the
/// production concurrency pattern exactly). Offers are puts, steals are
/// gets; the pool rides the mpmc claim protocol, so the relaxed spec
/// applies.
fn steal_scenario() -> Scenario {
    let pool = WorkPool::<u64>::new(3);
    let (pv, p1, p2, pd) = (pool.clone(), pool.clone(), pool.clone(), pool);
    let hist: Hist = Arc::new(Mutex::new(Vec::new()));
    let (hv, h1, h2, hk) = (hist.clone(), hist.clone(), hist.clone(), hist);
    Scenario::new()
        .thread_on(0, move || {
            // The victim CPU offloads two surplus threads, then pulls one
            // back (a victim may reclaim its own offer).
            for v in [1, 2] {
                let s = sim::now();
                let ok = pv.offer(v).is_ok();
                record(&hv, s, Op::Put(v, ok));
            }
            let s = sim::now();
            let got = pv.steal();
            record(&hv, s, Op::Get(got));
        })
        .thread_on(1, move || {
            let s = sim::now();
            let got = p1.steal();
            record(&h1, s, Op::Get(got));
        })
        .thread_on(2, move || {
            let s = sim::now();
            let ok = p2.offer(11).is_ok();
            record(&h2, s, Op::Put(11, ok));
            let s = sim::now();
            let got = p2.steal();
            record(&h2, s, Op::Get(got));
        })
        .check(move || {
            let mut drained = Vec::new();
            loop {
                let got = pd.steal();
                let done = got.is_none();
                drained.push(got);
                if done {
                    break;
                }
            }
            // The counters must agree with the history before the
            // witness search: every accepted offer counted once, every
            // successful steal counted once.
            let h = hk.lock().unwrap().clone();
            let puts = h
                .iter()
                .filter(|r| matches!(r.op, Op::Put(_, true)))
                .count() as u64;
            let gets = h
                .iter()
                .filter(|r| matches!(r.op, Op::Get(Some(_))))
                .count() as u64
                + drained.iter().filter(|g| g.is_some()).count() as u64;
            if pd.offered() != puts {
                return Err(format!("offered() = {}, history has {puts}", pd.offered()));
            }
            if pd.stolen() != gets {
                return Err(format!("stolen() = {}, history has {gets}", pd.stolen()));
            }
            check_history(
                &hk,
                drained,
                Spec {
                    cap: 3,
                    relaxed: true, // mpmc claims underneath
                },
            )
        })
}

// ---------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------

#[test]
fn spsc_linearizable_under_bounded_dfs() {
    explore_flavor("spsc", 10, spsc_scenario);
}

#[test]
fn mpsc_linearizable_under_bounded_dfs() {
    explore_flavor("mpsc", 3, mpsc_scenario);
}

/// Two producers driven to overlapping claims collide at the CAS, and
/// [`PutStats::retries`](synthesis_blocks::mpsc::PutStats) counts it: the
/// executor enumerates every schedule with one preemption, so the
/// interleaving "A reads the head, B claims it, A's CAS fails" is
/// reached by construction, not by luck of the host scheduler.
#[test]
fn mpsc_overlapping_claims_count_cas_retries() {
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let seen_in = seen.clone();
    let report = Explorer {
        preemption_budget: 1,
        max_schedules: 12_000,
        max_steps: 20_000,
    }
    .explore(move || {
        let (p, mut c) = mpsc::channel::<u64>(4);
        let (p1, p2) = (p.clone(), p.clone());
        let seen = seen_in.clone();
        Scenario::new()
            .thread(move || p1.put(1).expect("room for two"))
            .thread(move || p2.put(2).expect("room for two"))
            .check(move || {
                let mut got = [c.get(), c.get(), c.get()];
                got.sort_unstable();
                if got != [None, Some(1), Some(2)] {
                    return Err(format!("delivery broke under contention: {got:?}"));
                }
                seen.lock().unwrap().push(p.stats().retries);
                Ok(())
            })
    });
    report.assert_ok();
    assert!(report.exhausted, "two puts: the 1-preemption tree is small");
    let seen = seen.lock().unwrap();
    assert!(
        seen.contains(&0),
        "claims that do not overlap never retry: {seen:?}"
    );
    assert!(
        seen.iter().any(|&r| r > 0),
        "no explored schedule collided at the CAS: {seen:?}"
    );
}

#[test]
fn spmc_put_only_strictly_linearizable() {
    explore_flavor("spmc", 4, spmc_strict_scenario);
}

#[test]
fn spmc_batched_linearizable_under_bounded_dfs() {
    explore_flavor("spmc-batch", 4, spmc_batch_scenario);
}

#[test]
fn mpmc_linearizable_under_bounded_dfs() {
    explore_flavor("mpmc", 3, mpmc_scenario);
}

#[test]
fn steal_pool_linearizable_across_cpus() {
    explore_flavor("steal", 2, steal_scenario);
}

/// Deeper-than-DFS probing with a fixed seed; same witness check.
#[test]
fn mpmc_random_walk_stays_linearizable() {
    let explorer = Explorer {
        preemption_budget: 8,
        max_schedules: u64::MAX,
        max_steps: 20_000,
    };
    explorer
        .random_walk(0x5EED, 2_000, mpmc_scenario)
        .assert_ok();
}

/// Satellite: `len_hint` must never exceed `capacity`, even while puts
/// and gets race around the ring's wraparound. The observer thread
/// asserts from inside the model, so a violation fails with a replayable
/// schedule.
#[test]
fn mpmc_len_hint_never_exceeds_capacity() {
    let explorer = Explorer {
        preemption_budget: 3,
        max_schedules: 30_000,
        max_steps: 20_000,
    };
    let report = explorer.explore(|| {
        let q = mpmc::channel::<u64>(2);
        let (qp, qc, qw) = (q.clone(), q.clone(), q);
        Scenario::new()
            .thread(move || {
                for v in [1, 2, 3] {
                    let _ = qp.put(v);
                }
            })
            .thread(move || {
                for _ in 0..2 {
                    let _ = qc.get();
                }
            })
            .thread(move || {
                for _ in 0..3 {
                    let len = qw.len_hint();
                    let cap = qw.capacity();
                    assert!(len <= cap, "len_hint {len} exceeds capacity {cap}");
                }
            })
    });
    report.assert_ok();
}

//! The disk path: raw disk server, disk scheduler, and cache manager.
//!
//! "Connected to the disk hardware we have a raw disk device server. The
//! next stage in the pipeline is the disk scheduler, which contains the
//! disk request queue, followed by the default file system cache manager,
//! which contains the queue of data transfer buffers" (Section 5.1).
//!
//! The scheduler also owns error recovery: a completion with
//! `STATUS_ERR` is retried with bounded exponential backoff (programmed
//! into the device's `EXTRA_DELAY` register so the wait is modelled disk
//! time, not host spinning); sectors that keep failing — or that the
//! device reports permanently bad — are *quarantined*, after which every
//! request touching them fails fast with an I/O error instead of
//! touching the hardware.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use quamachine::devices::dev_reg_addr;
use quamachine::devices::disk::{
    CMD_READ, CMD_WRITE, ERR_BAD_SECTOR, ERR_NONE, ERR_TRANSIENT, REG_ADDR, REG_CMD, REG_COUNT,
    REG_ERROR, REG_EXTRA_DELAY, REG_SECTOR,
};
use quamachine::machine::Machine;

/// A queued disk request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskRequest {
    /// First sector.
    pub sector: u32,
    /// Sectors to transfer.
    pub count: u32,
    /// DMA address.
    pub addr: u32,
    /// Read (`true`) or write.
    pub read: bool,
    /// Requester cookie (e.g. a thread id to wake).
    pub cookie: u32,
}

/// How one serviced request ended, as reported by
/// [`DiskScheduler::on_complete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOutcome {
    /// The transfer succeeded; data is where the request asked.
    Done(DiskRequest),
    /// The transfer failed transiently; the scheduler re-issued it with
    /// backoff and it is in flight again. No caller action needed.
    Retrying {
        /// The request being retried.
        req: DiskRequest,
        /// Which attempt is now in flight (first retry = 2).
        attempt: u32,
        /// Backoff programmed into the device, in µs.
        backoff_us: u32,
    },
    /// The transfer failed permanently (bad sector or retries
    /// exhausted); the failing sector is quarantined. The caller should
    /// surface an I/O error to the requester in `req.cookie`.
    Failed(DiskRequest),
}

/// Retries per request before the scheduler gives up and quarantines.
pub const MAX_RETRIES: u32 = 4;
/// First-retry backoff in µs; doubles each further attempt.
pub const BACKOFF_BASE_US: u32 = 500;
/// Backoff ceiling in µs.
pub const BACKOFF_CAP_US: u32 = 8_000;

/// The disk scheduler: an elevator over the request queue.
///
/// Requests are serviced in ascending-sector order from the current head
/// position, then the elevator reverses — the classic SCAN policy the
/// request queue exists to enable.
#[derive(Debug)]
pub struct DiskScheduler {
    device: usize,
    queue: BTreeMap<u32, VecDeque<DiskRequest>>,
    inflight: Option<DiskRequest>,
    /// Attempts made for the in-flight request (1 = first issue).
    attempts: u32,
    head_pos: u32,
    ascending: bool,
    quarantined: BTreeSet<u32>,
    /// Requests completed.
    pub completed: u64,
    /// Total sectors moved.
    pub sectors_moved: u64,
    /// Re-issues after transient errors.
    pub retries: u64,
    /// Requests that failed permanently.
    pub failed: u64,
    /// Total backoff programmed across retries, in µs.
    pub backoff_us_total: u64,
    /// Requests rejected at submit because a sector was quarantined.
    pub rejected_quarantined: u64,
}

impl DiskScheduler {
    /// A scheduler driving device index `device`.
    #[must_use]
    pub fn new(device: usize) -> DiskScheduler {
        DiskScheduler {
            device,
            queue: BTreeMap::new(),
            inflight: None,
            attempts: 0,
            head_pos: 0,
            ascending: true,
            quarantined: BTreeSet::new(),
            completed: 0,
            sectors_moved: 0,
            retries: 0,
            failed: 0,
            backoff_us_total: 0,
            rejected_quarantined: 0,
        }
    }

    /// Enqueue a request; starts the disk if it was idle.
    ///
    /// # Errors
    ///
    /// Fails fast (returning the request) when the range touches a
    /// quarantined sector — the hardware is known bad there and the
    /// caller should report an I/O error without waiting.
    pub fn submit(&mut self, m: &mut Machine, req: DiskRequest) -> Result<(), DiskRequest> {
        if self.is_quarantined_range(req.sector, req.count) {
            self.rejected_quarantined += 1;
            return Err(req);
        }
        self.queue.entry(req.sector).or_default().push_back(req);
        if self.inflight.is_none() {
            self.issue_next(m);
        }
        Ok(())
    }

    /// Whether `[sector, sector + count)` touches a quarantined sector.
    #[must_use]
    pub fn is_quarantined_range(&self, sector: u32, count: u32) -> bool {
        self.quarantined
            .range(sector..sector.saturating_add(count.max(1)))
            .next()
            .is_some()
    }

    /// Sectors currently quarantined, ascending.
    pub fn quarantined(&self) -> impl Iterator<Item = u32> + '_ {
        self.quarantined.iter().copied()
    }

    /// Number of quarantined sectors.
    #[must_use]
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }

    /// Pick the next request by the elevator and program the device.
    fn issue_next(&mut self, m: &mut Machine) {
        let next = if self.ascending {
            self.queue
                .range(self.head_pos..)
                .next()
                .map(|(&s, _)| s)
                .or_else(|| {
                    self.ascending = false;
                    self.queue
                        .range(..self.head_pos)
                        .next_back()
                        .map(|(&s, _)| s)
                })
        } else {
            self.queue
                .range(..=self.head_pos)
                .next_back()
                .map(|(&s, _)| s)
                .or_else(|| {
                    self.ascending = true;
                    self.queue.range(self.head_pos..).next().map(|(&s, _)| s)
                })
        };
        let Some(sector) = next else {
            return;
        };
        let q = self.queue.get_mut(&sector).expect("key exists");
        let req = q.pop_front().expect("non-empty");
        if q.is_empty() {
            self.queue.remove(&sector);
        }
        self.program_device(m, &req);
        self.inflight = Some(req);
        self.attempts = 1;
    }

    fn program_device(&self, m: &mut Machine, req: &DiskRequest) {
        let d = self.device;
        m.host_reg_write(dev_reg_addr(d, REG_SECTOR), req.sector);
        m.host_reg_write(dev_reg_addr(d, REG_ADDR), req.addr);
        m.host_reg_write(dev_reg_addr(d, REG_COUNT), req.count);
        m.host_reg_write(
            dev_reg_addr(d, REG_CMD),
            if req.read { CMD_READ } else { CMD_WRITE },
        );
    }

    /// The device finished the in-flight request (successfully or not);
    /// classifies the completion, retries or quarantines on error, and
    /// issues the next request when this one is finished for good.
    ///
    /// The caller must already have read (acked) `STATUS`; this reads the
    /// sticky `ERROR` register to tell success from failure.
    pub fn on_complete(&mut self, m: &mut Machine) -> Option<DiskOutcome> {
        let req = self.inflight.take()?;
        self.head_pos = req.sector + req.count;
        self.sectors_moved += u64::from(req.count);
        let err = m.host_reg_read(dev_reg_addr(self.device, REG_ERROR));
        match err {
            ERR_NONE => {
                self.completed += 1;
                self.issue_next(m);
                Some(DiskOutcome::Done(req))
            }
            ERR_TRANSIENT if self.attempts <= MAX_RETRIES => {
                // Retry in place with exponential backoff, spent as
                // modelled device time so waiters sleep through it.
                let backoff_us = (BACKOFF_BASE_US << (self.attempts - 1)).min(BACKOFF_CAP_US);
                self.retries += 1;
                self.backoff_us_total += u64::from(backoff_us);
                self.attempts += 1;
                m.host_reg_write(dev_reg_addr(self.device, REG_EXTRA_DELAY), backoff_us);
                self.program_device(m, &req);
                self.inflight = Some(req);
                Some(DiskOutcome::Retrying {
                    req,
                    attempt: self.attempts,
                    backoff_us,
                })
            }
            _ => {
                // Permanently bad: the device said the medium is bad
                // (`ERR_BAD_SECTOR`), retries were exhausted, or the
                // request itself was invalid. Quarantine the range's
                // first sector (the finest blame the device reports) so
                // later requests fail fast instead of waiting.
                if err == ERR_TRANSIENT || err == ERR_BAD_SECTOR {
                    self.quarantined.insert(req.sector);
                }
                self.failed += 1;
                self.issue_next(m);
                Some(DiskOutcome::Failed(req))
            }
        }
    }

    /// Whether a request is being serviced.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.inflight.is_some()
    }

    /// Queued (not yet issued) requests.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.values().map(VecDeque::len).sum()
    }
}

/// The buffer-cache manager: sector-granular cache buffers in kernel
/// memory.
#[derive(Debug, Default)]
pub struct BufferCache {
    map: HashMap<u32, u32>, // sector -> buffer addr
    lru: VecDeque<u32>,
    capacity: usize,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl BufferCache {
    /// A cache of at most `capacity` sector buffers.
    #[must_use]
    pub fn new(capacity: usize) -> BufferCache {
        BufferCache {
            capacity,
            ..BufferCache::default()
        }
    }

    /// Look up a sector; `Some(addr)` on a hit.
    pub fn get(&mut self, sector: u32) -> Option<u32> {
        match self.map.get(&sector) {
            Some(&addr) => {
                self.hits += 1;
                self.lru.retain(|&s| s != sector);
                self.lru.push_back(sector);
                Some(addr)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a sector buffer, evicting the least recently used if full.
    /// Returns the evicted `(sector, addr)` so the caller can free or
    /// write it back.
    pub fn insert(&mut self, sector: u32, addr: u32) -> Option<(u32, u32)> {
        let evicted = if self.map.len() >= self.capacity {
            self.lru.pop_front().map(|s| {
                let a = self.map.remove(&s).expect("lru entry in map");
                (s, a)
            })
        } else {
            None
        };
        self.map.insert(sector, addr);
        self.lru.push_back(sector);
        evicted
    }

    /// Number of cached sectors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quamachine::devices::disk::Disk;
    use quamachine::machine::{Machine, MachineConfig};

    fn machine_with_disk() -> (Machine, usize) {
        let mut m = Machine::new(MachineConfig::sun3_emulation());
        let d = m.attach_device(Box::new(Disk::new(2, 1024)));
        (m, d)
    }

    /// Drive the machine until the disk IRQ is pending, then ack it.
    fn wait_done(m: &mut Machine) {
        for _ in 0..100_000 {
            m.process_events();
            if m.irq.any_pending() {
                // Ack by reading STATUS.
                let _ = m.host_reg_read(dev_reg_addr(0, quamachine::devices::disk::REG_STATUS));
                return;
            }
            m.meter.cycles += 1000;
        }
        panic!("disk never completed");
    }

    #[test]
    fn requests_complete_and_dma_lands() {
        let (mut m, dev) = machine_with_disk();
        // Put recognizable data on sector 7.
        let img: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        m.device_mut::<Disk>(dev).unwrap().load_image(7, &img);
        let mut sched = DiskScheduler::new(dev);
        sched
            .submit(
                &mut m,
                DiskRequest {
                    sector: 7,
                    count: 1,
                    addr: 0x2_0000,
                    read: true,
                    cookie: 0,
                },
            )
            .unwrap();
        assert!(sched.busy());
        wait_done(&mut m);
        let DiskOutcome::Done(done) = sched.on_complete(&mut m).unwrap() else {
            panic!("clean disk must complete successfully");
        };
        assert_eq!(done.sector, 7);
        assert_eq!(m.mem.peek_bytes(0x2_0000, 512), img);
        assert!(!sched.busy());
        assert_eq!(sched.completed, 1);
    }

    #[test]
    fn elevator_orders_by_sector() {
        let (mut m, dev) = machine_with_disk();
        let mut sched = DiskScheduler::new(dev);
        // Submit out of order while the first is in flight.
        for (sector, addr) in [
            (100, 0x2_0000),
            (900, 0x2_0200),
            (300, 0x2_0400),
            (200, 0x2_0600),
        ] {
            sched
                .submit(
                    &mut m,
                    DiskRequest {
                        sector,
                        count: 1,
                        addr,
                        read: true,
                        cookie: 0,
                    },
                )
                .unwrap();
        }
        let mut order = Vec::new();
        order.push(100); // in flight already
        for _ in 0..3 {
            wait_done(&mut m);
            let DiskOutcome::Done(done) = sched.on_complete(&mut m).unwrap() else {
                panic!("clean disk must complete successfully");
            };
            if done.sector != 100 {
                order.push(done.sector);
            }
        }
        wait_done(&mut m);
        let DiskOutcome::Done(done) = sched.on_complete(&mut m).unwrap() else {
            panic!("clean disk must complete successfully");
        };
        order.push(done.sector);
        assert_eq!(order, vec![100, 200, 300, 900], "ascending elevator sweep");
    }

    /// Drive one submitted request to its final outcome, stepping through
    /// any retries.
    fn drive(sched: &mut DiskScheduler, m: &mut Machine) -> DiskOutcome {
        for _ in 0..32 {
            wait_done(m);
            match sched.on_complete(m).expect("an op was in flight") {
                DiskOutcome::Retrying { .. } => {}
                outcome => return outcome,
            }
        }
        panic!("request never reached a final outcome");
    }

    #[test]
    fn transient_errors_retry_to_success() {
        let (mut m, dev) = machine_with_disk();
        m.fault = quamachine::fault::FaultPlan::seeded(
            11,
            quamachine::fault::FaultConfig {
                disk_transient_permille: 400,
                ..quamachine::fault::FaultConfig::none()
            },
        );
        let img: Vec<u8> = (0..512u32).map(|i| (i % 241) as u8).collect();
        let mut sched = DiskScheduler::new(dev);
        let mut done = 0;
        for i in 0..16u32 {
            m.device_mut::<Disk>(dev).unwrap().load_image(i, &img);
            sched
                .submit(
                    &mut m,
                    DiskRequest {
                        sector: i,
                        count: 1,
                        addr: 0x2_0000 + i * 512,
                        read: true,
                        cookie: 0,
                    },
                )
                .unwrap();
            match drive(&mut sched, &mut m) {
                DiskOutcome::Done(req) => {
                    done += 1;
                    assert_eq!(
                        m.mem.peek_bytes(req.addr, 512),
                        img,
                        "a successful read must carry intact data"
                    );
                }
                DiskOutcome::Failed(_) => {}
                DiskOutcome::Retrying { .. } => unreachable!(),
            }
        }
        assert!(done >= 12, "most requests succeed: {done}/16");
        assert!(sched.retries > 0, "a 40% error rate must trigger retries");
        assert!(
            sched.backoff_us_total >= u64::from(BACKOFF_BASE_US) * sched.retries,
            "every retry waits at least the base backoff"
        );
    }

    #[test]
    fn exhausted_retries_quarantine_and_fail_fast() {
        let (mut m, dev) = machine_with_disk();
        m.fault = quamachine::fault::FaultPlan::seeded(
            1,
            quamachine::fault::FaultConfig {
                disk_transient_permille: 1000, // every command fails
                ..quamachine::fault::FaultConfig::none()
            },
        );
        let mut sched = DiskScheduler::new(dev);
        let req = DiskRequest {
            sector: 42,
            count: 1,
            addr: 0x2_0000,
            read: true,
            cookie: 0,
        };
        sched.submit(&mut m, req).unwrap();
        assert_eq!(drive(&mut sched, &mut m), DiskOutcome::Failed(req));
        assert_eq!(sched.retries, u64::from(MAX_RETRIES));
        // 500 + 1000 + 2000 + 4000.
        assert_eq!(sched.backoff_us_total, 7_500);
        assert_eq!(sched.quarantined().collect::<Vec<_>>(), vec![42]);
        // Fail fast from now on: no hardware round trip.
        assert_eq!(sched.submit(&mut m, req), Err(req));
        assert!(!sched.busy());
        assert_eq!(sched.rejected_quarantined, 1);
    }

    #[test]
    fn bad_sectors_fail_without_retries() {
        let (mut m, dev) = machine_with_disk();
        m.fault.poison_sector(7);
        let mut sched = DiskScheduler::new(dev);
        let req = DiskRequest {
            sector: 5,
            count: 4, // covers the poisoned sector 7
            addr: 0x2_0000,
            read: true,
            cookie: 0,
        };
        sched.submit(&mut m, req).unwrap();
        assert_eq!(drive(&mut sched, &mut m), DiskOutcome::Failed(req));
        assert_eq!(sched.retries, 0, "media errors are not retried");
        assert!(sched.is_quarantined_range(5, 4));
    }

    #[test]
    fn cache_lru_eviction() {
        let mut c = BufferCache::new(2);
        assert!(c.get(1).is_none());
        c.insert(1, 0x1000);
        c.insert(2, 0x2000);
        assert_eq!(c.get(1), Some(0x1000)); // 1 is now most recent
        let evicted = c.insert(3, 0x3000);
        assert_eq!(evicted, Some((2, 0x2000)));
        assert_eq!(c.get(2), None);
        assert_eq!(c.get(1), Some(0x1000));
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }
}

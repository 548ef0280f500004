//! The background repair agent: scan → plan → stream → re-place.
//!
//! A polling thread scans the directory for lost chunks (dead servers,
//! corrupt reports), groups them by stripe, and repairs each stripe by
//! replaying a cached [`RepairSession`](xorbas_core::RepairSession): fetch exactly the lanes the
//! session's plan reads, reconstruct the missing ones, and push them to
//! replacement servers chosen by the rack-aware placement policy. For
//! LRC stripes with a single loss this is the paper's *light* repair —
//! the agent fetches one local group (5 chunks for LRC(10,6,5)) instead
//! of the `k = 10` an RS code needs, and the stats it keeps
//! ([`RepairStatsSnapshot::bytes_fetched`]) make that difference a
//! measured number rather than a simulated one.
//!
//! Concurrency is throttled: at most `max_concurrent_repairs` stripes
//! are in flight at once (scoped worker threads, each with its own
//! connections and scratch), mirroring the simulator's repair-slot
//! model and HDFS-RAID's bounded reconstruction parallelism.

use crate::chunk_store::ChunkStore;
use crate::client::{RetryPolicy, SessionCache};
use crate::directory::{Directory, ServerId};
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use crate::lock;
use crate::protocol::chunk_digest;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xorbas_core::{CodecInstance, StripeViewMut};

/// Tunables for the agent.
#[derive(Debug, Clone)]
pub struct RepairAgentConfig {
    /// How often the directory is scanned for losses.
    pub scan_interval: Duration,
    /// Stripes repaired concurrently per round (the repair-traffic
    /// throttle; the simulator's `max_concurrent_repairs` analogue).
    pub max_concurrent_repairs: usize,
    /// Chunk size of the stripes being repaired.
    pub chunk_bytes: usize,
    /// Connection policy for repair traffic.
    pub retry: RetryPolicy,
    /// Liveness-probe cadence: one probe sweep every this many scan
    /// rounds. The sweep both declares unreachable servers dead and
    /// revives restarted ones whose listener answers again.
    pub probe_rounds: u64,
    /// When set, a scrubber thread walks these chunk stores and
    /// re-verifies digests at a byte-rate throttle.
    pub scrub: Option<ScrubConfig>,
}

impl RepairAgentConfig {
    /// Defaults: 25 ms scans, 2 concurrent repairs, probes every 8
    /// rounds, no scrubber.
    pub fn new(chunk_bytes: usize) -> Self {
        Self {
            scan_interval: Duration::from_millis(25),
            max_concurrent_repairs: 2,
            chunk_bytes,
            retry: RetryPolicy::default(),
            probe_rounds: 8,
            scrub: None,
        }
    }
}

/// Tunables for the background CRC scrubber.
///
/// The scrubber is colocated with the servers in this prototype (one
/// process hosts the whole cluster), so it reads chunk files straight
/// from each server's store root rather than over the wire — what it
/// *reports* still flows through the directory's corrupt set and from
/// there into the ordinary `scan_lost` → repair pipeline.
#[derive(Debug, Clone)]
pub struct ScrubConfig {
    /// `(server id, chunk-store root)` pairs the scrubber walks.
    pub stores: Vec<(ServerId, PathBuf)>,
    /// Verification byte-rate cap. After each chunk the scrubber
    /// sleeps `chunk_len / rate` so a full cycle over `B` stored bytes
    /// takes at least `B / rate` seconds.
    pub rate_bytes_per_sec: u64,
    /// Pause between full cycles over every store.
    pub cycle_pause: Duration,
}

impl ScrubConfig {
    /// A config scrubbing `stores`, with the rate taken from the
    /// `XORBAS_NODE_SCRUB_MIBPS` environment knob (MiB/s, default 64).
    pub fn new(stores: Vec<(ServerId, PathBuf)>) -> Self {
        let mibps = std::env::var("XORBAS_NODE_SCRUB_MIBPS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(64);
        Self {
            stores,
            rate_bytes_per_sec: mibps.saturating_mul(1024 * 1024),
            cycle_pause: Duration::from_millis(50),
        }
    }
}

/// Monotonic counters the agent maintains (lock-free reads).
#[derive(Debug, Default)]
struct RepairStats {
    chunks_repaired: AtomicU64,
    light_repairs: AtomicU64,
    heavy_repairs: AtomicU64,
    bytes_fetched: AtomicU64,
    bytes_written: AtomicU64,
    failed_attempts: AtomicU64,
    rounds: AtomicU64,
    scrub_cycles: AtomicU64,
    scrub_chunks: AtomicU64,
    scrub_bytes: AtomicU64,
    scrub_corruptions: AtomicU64,
}

/// A point-in-time copy of the agent's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStatsSnapshot {
    /// Chunks reconstructed and re-placed.
    pub chunks_repaired: u64,
    /// Stripe repairs served entirely by the light (local-group) decoder.
    pub light_repairs: u64,
    /// Stripe repairs that needed the heavy (k-wide) decoder.
    pub heavy_repairs: u64,
    /// Bytes pulled from surviving lanes.
    pub bytes_fetched: u64,
    /// Bytes pushed to replacement servers.
    pub bytes_written: u64,
    /// Repair attempts that failed (left for a later round).
    pub failed_attempts: u64,
    /// Scan rounds completed.
    pub rounds: u64,
    /// Full scrub passes over every configured store.
    pub scrub_cycles: u64,
    /// Chunks whose digest the scrubber re-verified.
    pub scrub_chunks: u64,
    /// Bytes the scrubber read back and hashed.
    pub scrub_bytes: u64,
    /// Corrupt chunks the scrubber newly flagged for repair.
    pub scrub_corruptions: u64,
}

/// The running agent; dropping it stops the scan thread.
pub struct RepairAgent {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    scrub_handle: Option<JoinHandle<()>>,
    stats: Arc<RepairStats>,
    directory: Arc<Mutex<Directory>>,
}

impl RepairAgent {
    /// Starts the scan thread. The agent owns its own codec instance
    /// and connections; it shares only the directory and the session
    /// cache with the clients.
    pub fn start(
        codec: CodecInstance,
        directory: Arc<Mutex<Directory>>,
        sessions: SessionCache,
        cfg: RepairAgentConfig,
    ) -> Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(RepairStats::default());
        let scrub_cfg = cfg.scrub.clone();
        let thread_stop = Arc::clone(&stop);
        let thread_stats = Arc::clone(&stats);
        let thread_dir = Arc::clone(&directory);
        let handle = std::thread::Builder::new()
            .name("xorbas-repair".into())
            .spawn(move || {
                agent_loop(
                    &codec,
                    &thread_dir,
                    &sessions,
                    &cfg,
                    &thread_stop,
                    &thread_stats,
                );
            })?;
        let scrub_handle = match scrub_cfg {
            Some(scfg) => {
                let scrub_stop = Arc::clone(&stop);
                let scrub_stats = Arc::clone(&stats);
                let scrub_dir = Arc::clone(&directory);
                Some(
                    std::thread::Builder::new()
                        .name("xorbas-scrub".into())
                        .spawn(move || {
                            scrub_loop(&scfg, &scrub_dir, &scrub_stop, &scrub_stats);
                        })?,
                )
            }
            None => None,
        };
        Ok(Self {
            stop,
            handle: Some(handle),
            scrub_handle,
            stats,
            directory,
        })
    }

    /// Current counters.
    pub fn stats(&self) -> RepairStatsSnapshot {
        let s = &self.stats;
        RepairStatsSnapshot {
            chunks_repaired: s.chunks_repaired.load(Ordering::Relaxed),
            light_repairs: s.light_repairs.load(Ordering::Relaxed),
            heavy_repairs: s.heavy_repairs.load(Ordering::Relaxed),
            bytes_fetched: s.bytes_fetched.load(Ordering::Relaxed),
            bytes_written: s.bytes_written.load(Ordering::Relaxed),
            failed_attempts: s.failed_attempts.load(Ordering::Relaxed),
            rounds: s.rounds.load(Ordering::Relaxed),
            scrub_cycles: s.scrub_cycles.load(Ordering::Relaxed),
            scrub_chunks: s.scrub_chunks.load(Ordering::Relaxed),
            scrub_bytes: s.scrub_bytes.load(Ordering::Relaxed),
            scrub_corruptions: s.scrub_corruptions.load(Ordering::Relaxed),
        }
    }

    /// Blocks until the directory reports no lost chunks (full
    /// redundancy restored) or `timeout` passes. Returns whether the
    /// cluster converged.
    pub fn wait_until_repaired(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut lost = Vec::new();
        loop {
            lock(&self.directory).scan_lost(&mut lost);
            if lost.is_empty() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops the scan and scrub threads and joins them.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scrub_handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RepairAgent {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.scrub_handle.take() {
            let _ = h.join();
        }
    }
}

fn agent_loop(
    codec: &CodecInstance,
    dir: &Arc<Mutex<Directory>>,
    sessions: &SessionCache,
    cfg: &RepairAgentConfig,
    stop: &AtomicBool,
    stats: &RepairStats,
) {
    let mut lost: Vec<(u64, u32)> = Vec::new();
    let mut stripes: Vec<u64> = Vec::new();
    let mut round = 0u64;
    while !stop.load(Ordering::SeqCst) {
        // A cheap liveness sweep every few rounds: a server that died
        // without any client noticing still gets its chunks repaired,
        // and a restarted one is folded back into the roster.
        if round.is_multiple_of(cfg.probe_rounds.max(1)) {
            probe_liveness(dir);
        }
        round += 1;
        lock(dir).scan_lost(&mut lost);
        stripes.clear();
        for &(stripe, _) in lost.iter() {
            if stripes.last() != Some(&stripe) {
                stripes.push(stripe);
            }
        }
        if stripes.is_empty() {
            stats.rounds.fetch_add(1, Ordering::Relaxed);
            sleep_with_stop(cfg.scan_interval, stop);
            continue;
        }
        // Throttled fan-out: at most `max_concurrent_repairs` stripes
        // in flight, each worker with private scratch and connections.
        for batch in stripes.chunks(cfg.max_concurrent_repairs.max(1)) {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::scope(|s| {
                for &stripe in batch {
                    s.spawn(move || {
                        let mut worker = RepairWorker {
                            codec,
                            dir,
                            sessions,
                            cfg,
                            scratch: Vec::new(),
                            conns: Vec::new(),
                            unavailable: Vec::new(),
                        };
                        match worker.repair_stripe(stripe) {
                            Ok(Some(outcome)) => {
                                stats
                                    .chunks_repaired
                                    .fetch_add(outcome.chunks, Ordering::Relaxed);
                                stats
                                    .bytes_fetched
                                    .fetch_add(outcome.bytes_fetched, Ordering::Relaxed);
                                stats
                                    .bytes_written
                                    .fetch_add(outcome.bytes_written, Ordering::Relaxed);
                                if outcome.light {
                                    stats.light_repairs.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    stats.heavy_repairs.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Ok(None) => {}
                            Err(_) => {
                                stats.failed_attempts.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                }
            });
        }
        stats.rounds.fetch_add(1, Ordering::Relaxed);
        sleep_with_stop(cfg.scan_interval, stop);
    }
}

/// Reconciles the roster with reality: servers whose listener no
/// longer answers are marked dead, and dead servers whose listener
/// answers again (a restart on the same address, or an updated
/// address via [`Directory::set_addr`]) are revived. A refused
/// loopback connect returns immediately, so this sweep costs
/// microseconds per server.
fn probe_liveness(dir: &Arc<Mutex<Directory>>) {
    let mut roster: Vec<(usize, std::net::SocketAddr, bool)> = Vec::new();
    {
        let d = lock(dir);
        for (sid, info) in d.roster().iter().enumerate() {
            roster.push((sid, info.addr, info.alive));
        }
    }
    for (sid, addr, was_alive) in roster {
        let answers =
            std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_ok();
        match (was_alive, answers) {
            (true, false) => lock(dir).mark_dead(sid),
            (false, true) => lock(dir).mark_alive(sid),
            _ => {}
        }
    }
}

/// The scrubber thread: walk every configured chunk store, re-verify
/// each chunk's digest, flag rot into the directory's corrupt set
/// (where the next `scan_lost` turns it into a repair), and throttle
/// to the configured byte rate.
fn scrub_loop(
    cfg: &ScrubConfig,
    dir: &Arc<Mutex<Directory>>,
    stop: &AtomicBool,
    stats: &RepairStats,
) {
    let mut stores: Vec<(ServerId, ChunkStore)> = Vec::new();
    for (sid, root) in &cfg.stores {
        if let Ok(s) = ChunkStore::open(root) {
            stores.push((*sid, s));
        }
    }
    let rate = cfg.rate_bytes_per_sec.max(1);
    let mut chunks: Vec<(u64, u32)> = Vec::new();
    let mut buf: Vec<u8> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        for (sid, store) in &stores {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            chunks.clear();
            if store.list_chunks(&mut chunks).is_err() {
                continue;
            }
            // xlint::hot-path(scrub-stream) begin
            // The verify loop rereads every chunk body through one
            // reused buffer; nothing here may allocate, so a scrub
            // pass costs I/O + hash and zero heap churn.
            for &(stripe, lane) in chunks.iter() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Skip chunks the directory no longer maps to this
                // server (stale files after a reassignment) and ones
                // already flagged — re-reporting would double-count.
                let (ours, flagged) = {
                    let d = lock(dir);
                    let ours = d
                        .servers_of(stripe)
                        .is_some_and(|s| s.get(lane as usize) == Some(sid));
                    (ours, d.is_corrupt(stripe, lane))
                };
                if !ours || flagged {
                    continue;
                }
                match store.get_into(stripe, lane, &mut buf) {
                    Ok(_) => {
                        stats.scrub_chunks.fetch_add(1, Ordering::Relaxed);
                        stats
                            .scrub_bytes
                            .fetch_add(buf.len() as u64, Ordering::Relaxed);
                    }
                    Err(NodeError::ChunkNotFound { .. }) => continue,
                    // Digest mismatch or an unreadable file: either
                    // way this replica cannot be served — flag it.
                    Err(_) => {
                        stats.scrub_chunks.fetch_add(1, Ordering::Relaxed);
                        stats.scrub_corruptions.fetch_add(1, Ordering::Relaxed);
                        lock(dir).report_corrupt(stripe, lane);
                    }
                }
                // Throttle: a chunk of `L` bytes buys `L / rate`
                // seconds of sleep, so sustained read bandwidth stays
                // at or under `rate_bytes_per_sec`.
                let nanos = (buf.len() as u64).saturating_mul(1_000_000_000) / rate;
                if nanos > 0 {
                    sleep_with_stop(Duration::from_nanos(nanos), stop);
                }
            }
            // xlint::hot-path(scrub-stream) end
        }
        stats.scrub_cycles.fetch_add(1, Ordering::Relaxed);
        sleep_with_stop(cfg.cycle_pause, stop);
    }
}

fn sleep_with_stop(total: Duration, stop: &AtomicBool) {
    let step = Duration::from_millis(5);
    let mut remaining = total;
    while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
        let nap = remaining.min(step);
        std::thread::sleep(nap);
        remaining = remaining.saturating_sub(nap);
    }
}

/// What one successful stripe repair moved.
struct RepairOutcome {
    chunks: u64,
    bytes_fetched: u64,
    bytes_written: u64,
    light: bool,
}

/// Per-stripe repair executor (one per in-flight repair).
struct RepairWorker<'a> {
    codec: &'a CodecInstance,
    dir: &'a Arc<Mutex<Directory>>,
    sessions: &'a SessionCache,
    cfg: &'a RepairAgentConfig,
    scratch: Vec<Vec<u8>>,
    conns: Vec<Option<crate::client::NodeConn>>,
    unavailable: Vec<usize>,
}

impl RepairWorker<'_> {
    /// Repairs every lost lane of `stripe`. `Ok(None)` means the
    /// stripe healed on its own (nothing lost by the time we looked).
    fn repair_stripe(&mut self, stripe: u64) -> Result<Option<RepairOutcome>> {
        let n = self.codec.total_blocks();
        let mut unavailable = std::mem::take(&mut self.unavailable);
        lock(self.dir).unavailable_lanes(stripe, &mut unavailable)?;
        if unavailable.is_empty() {
            self.unavailable = unavailable;
            return Ok(None);
        }

        let session = self.sessions.get(self.codec, &unavailable)?;
        self.scratch.resize_with(n, Vec::new);
        for lane in &mut self.scratch {
            lane.resize(self.cfg.chunk_bytes, 0);
        }

        let mut fetched = 0u64;
        // xlint::hot-path(repair-stream) begin
        // Stream-in: fetch exactly the lanes the plan reads. Buffers
        // and connections are reused; this loop must not allocate.
        for lane in 0..n {
            let needed = session.plan().tasks.iter().any(|t| t.reads.contains(&lane))
                && !session.missing().contains(&lane);
            if !needed {
                continue;
            }
            let mut buf = std::mem::take(&mut self.scratch[lane]);
            let res = self.fetch_lane(stripe, lane as u32, &mut buf);
            self.scratch[lane] = buf;
            res?;
            fetched += self.cfg.chunk_bytes as u64;
        }
        // xlint::hot-path(repair-stream) end

        let mut refs: Vec<&mut [u8]> = self.scratch.iter_mut().map(Vec::as_mut_slice).collect();
        let mut view = StripeViewMut::new(&mut refs, session.missing())?;
        session.repair(&mut view)?;

        let mut written = 0u64;
        let mut repaired = 0u64;
        for &lane in session.missing() {
            // Fault site: the repair worker dies between reconstruct
            // and re-place. The lane stays lost and a later round
            // retries — repairs must be idempotent.
            if fault::hit(Site::CrashRepair) {
                self.unavailable = unavailable;
                return Err(NodeError::Injected("crash-repair"));
            }
            let new_sid = {
                let mut d = lock(self.dir);
                d.choose_replacement(stripe)?
            };
            let addr = {
                lock(self.dir)
                    .addr_of(new_sid)
                    .ok_or(NodeError::Malformed("server id out of roster"))?
            };
            let payload = self
                .scratch
                .get(lane)
                .ok_or(NodeError::Malformed("repaired lane missing"))?;
            let digest = chunk_digest(payload);
            crate::client::ensure_conn(&mut self.conns, new_sid, addr, &self.cfg.retry)?.put(
                stripe,
                lane as u32,
                digest,
                payload,
            )?;
            lock(self.dir).reassign(stripe, lane as u32, new_sid)?;
            written += self.cfg.chunk_bytes as u64;
            repaired += 1;
        }
        self.unavailable = unavailable;
        Ok(Some(RepairOutcome {
            chunks: repaired,
            bytes_fetched: fetched,
            bytes_written: written,
            light: session.plan().is_light(),
        }))
    }

    /// Fetches one lane from its assigned server into `out`.
    // xlint::hot-path(repair-fetch)
    fn fetch_lane(&mut self, stripe: u64, lane: u32, out: &mut Vec<u8>) -> Result<()> {
        let (sid, addr) = {
            let d = lock(self.dir);
            let servers = d
                .servers_of(stripe)
                .ok_or(NodeError::UnknownStripe(stripe))?;
            let sid = *servers
                .get(lane as usize)
                .ok_or(NodeError::Malformed("lane out of range for stripe"))?;
            let addr = d
                .addr_of(sid)
                .ok_or(NodeError::Malformed("server id out of roster"))?;
            if !d.is_alive(sid) {
                return Err(NodeError::ConnectFailed { addr, attempts: 0 });
            }
            (sid, addr)
        };
        let res = crate::client::ensure_conn(&mut self.conns, sid, addr, &self.cfg.retry)
            .and_then(|c| c.get_chunk(stripe, lane, out))
            .map(|_| ());
        if res.is_err() {
            if let Some(slot) = self.conns.get_mut(sid) {
                *slot = None;
            }
        }
        res
    }
}

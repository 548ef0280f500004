//! The background repair agent: scan → plan → stream → re-place.
//!
//! A polling thread scans the directory for lost chunks (dead servers,
//! corrupt reports), groups them by stripe, and repairs each stripe by
//! replaying a cached [`RepairSession`](xorbas_core::RepairSession):
//! fetch exactly the lanes the session's plan reads, reconstruct the
//! missing ones (the fetch-and-decode a degraded read runs too, in the
//! private `lanes` module), and push them to replacement servers chosen
//! by the rack-aware placement policy. For LRC stripes with a single
//! loss this is the paper's *light* repair —
//! the agent fetches one local group (5 chunks for LRC(10,6,5)) instead
//! of the `k = 10` an RS code needs, and the stats it keeps
//! ([`RepairStatsSnapshot::bytes_fetched`]) make that difference a
//! measured number rather than a simulated one.
//!
//! Concurrency is throttled: at most `max_concurrent_repairs` stripes
//! are in flight at once, mirroring the simulator's repair-slot model
//! and HDFS-RAID's bounded reconstruction parallelism. A scan round that
//! finds losses starts that many scoped workers; each repairs stripe
//! after stripe with its own lane scratch and server connections, and
//! all of it is dropped when the round ends.

use crate::chunk_store::ChunkStore;
use crate::client::{RetryPolicy, SessionCache};
use crate::directory::{Directory, ServerId};
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use crate::lanes::{self, Conns};
use crate::lock;
use crate::protocol::chunk_digest;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xorbas_core::CodecInstance;

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

/// Which chunk stores the background CRC scrubber walks.
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
}

impl ScrubConfig {
    /// A config scrubbing `stores`.
    pub fn new(stores: Vec<(ServerId, PathBuf)>) -> Self {
        Self { stores }
    }
}

/// The scrubber's verification byte-rate cap: after each chunk it
/// sleeps `chunk_len / rate`, so a full cycle over `B` stored bytes
/// takes at least `B / rate` seconds.
const SCRUB_BYTES_PER_SEC: u64 = 64 * 1024 * 1024;

/// The scrubber's pause between full cycles over every store.
const SCRUB_CYCLE_PAUSE: Duration = Duration::from_millis(50);

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
    connections_opened: AtomicU64,
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
    /// Connections repair workers dialed to chunk servers. A worker
    /// keeps its connections for the whole scan round, so this grows
    /// with rounds × servers touched, not with chunks fetched.
    pub connections_opened: u64,
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
            connections_opened: s.connections_opened.load(Ordering::Relaxed),
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

    /// Stops the scan and scrub threads, joins them, and returns the
    /// final counters. A worker finishes the stripe it holds before it
    /// stops, so every repair the directory shows is counted here.
    pub fn shutdown(mut self) -> RepairStatsSnapshot {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in [self.handle.take(), self.scrub_handle.take()]
            .into_iter()
            .flatten()
        {
            let _ = h.join();
        }
    }
}

impl Drop for RepairAgent {
    fn drop(&mut self) {
        self.stop_and_join();
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
        // Throttled fan-out: `max_concurrent_repairs` workers live for
        // this round and pull stripes off a shared cursor, so at most
        // that many stripes are in flight and each worker keeps its
        // scratch and server connections from one stripe to the next.
        // They are dropped when the round ends: an idle agent holds no
        // scratch and no sockets.
        let next = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..cfg.max_concurrent_repairs.clamp(1, stripes.len()) {
                s.spawn(|| {
                    let mut worker = RepairWorker {
                        codec,
                        dir,
                        sessions,
                        chunk_bytes: cfg.chunk_bytes,
                        scratch: Vec::new(),
                        conns: Conns::new(cfg.retry.clone()),
                        unavailable: Vec::new(),
                    };
                    while !stop.load(Ordering::SeqCst) {
                        let Some(&stripe) = stripes.get(next.fetch_add(1, Ordering::Relaxed))
                        else {
                            break;
                        };
                        let repaired = worker.repair_stripe(stripe);
                        stats
                            .connections_opened
                            .fetch_add(std::mem::take(&mut worker.conns.opened), Ordering::Relaxed);
                        match repaired {
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
                    }
                });
            }
        });
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
    let roster: Vec<(usize, std::net::SocketAddr, bool)> = lock(dir)
        .roster()
        .iter()
        .enumerate()
        .map(|(sid, info)| (sid, info.addr, info.alive))
        .collect();
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
                // at or under `SCRUB_BYTES_PER_SEC`.
                let nanos = (buf.len() as u64).saturating_mul(1_000_000_000) / SCRUB_BYTES_PER_SEC;
                if nanos > 0 {
                    sleep_with_stop(Duration::from_nanos(nanos), stop);
                }
            }
            // xlint::hot-path(scrub-stream) end
        }
        stats.scrub_cycles.fetch_add(1, Ordering::Relaxed);
        sleep_with_stop(SCRUB_CYCLE_PAUSE, stop);
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

/// Repair executor for one scan round: it repairs stripe after stripe,
/// reusing its lane scratch and its per-server connections, and is
/// dropped with them when the round ends.
struct RepairWorker<'a> {
    codec: &'a CodecInstance,
    dir: &'a Arc<Mutex<Directory>>,
    sessions: &'a SessionCache,
    chunk_bytes: usize,
    scratch: Vec<Vec<u8>>,
    conns: Conns,
    unavailable: Vec<usize>,
}

impl RepairWorker<'_> {
    /// Repairs every lost lane of `stripe`. `Ok(None)` means the
    /// stripe healed on its own (nothing lost by the time we looked).
    /// A failed fetch leaves the directory as it is: the next scan
    /// round retries the stripe.
    fn repair_stripe(&mut self, stripe: u64) -> Result<Option<RepairOutcome>> {
        lock(self.dir).unavailable_lanes(stripe, &mut self.unavailable)?;
        if self.unavailable.is_empty() {
            return Ok(None);
        }
        let session = self.sessions.get(self.codec, &self.unavailable)?;
        let Self {
            dir,
            chunk_bytes,
            scratch,
            conns,
            ..
        } = self;
        let bytes_fetched =
            lanes::fetch_and_decode(&session, &[], *chunk_bytes, scratch, |lane, buf| {
                conns.fetch_lane(dir, stripe, lane, buf)
            })
            .map_err(|e| e.error)?;

        let mut written = 0u64;
        let mut repaired = 0u64;
        for &lane in session.missing() {
            // Fault site: the repair worker dies between reconstruct
            // and re-place. The lane stays lost and a later round
            // retries — repairs must be idempotent.
            if fault::hit(Site::CrashRepair) {
                return Err(NodeError::Injected("crash-repair"));
            }
            let new_sid = lock(self.dir).choose_replacement(stripe)?;
            let addr = lock(self.dir)
                .addr_of(new_sid)
                .ok_or(NodeError::Malformed("server id out of roster"))?;
            let payload = self
                .scratch
                .get(lane)
                .ok_or(NodeError::Malformed("repaired lane missing"))?;
            let digest = chunk_digest(payload);
            self.conns.request(new_sid, addr, |c| {
                c.put(stripe, lane as u32, digest, payload)
            })?;
            lock(self.dir).reassign(stripe, lane as u32, new_sid)?;
            written += self.chunk_bytes as u64;
            repaired += 1;
        }
        Ok(Some(RepairOutcome {
            chunks: repaired,
            bytes_fetched,
            bytes_written: written,
            light: session.plan().is_light(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClusterClient;
    use crate::fault::FaultPlan;
    use crate::server::{ChunkServer, ServerConfig};
    use std::net::SocketAddr;
    use xorbas_core::CodeSpec;

    const CHUNK: usize = 16 * 1024;

    fn boot(n: usize, tag: &str) -> (Vec<ChunkServer>, Vec<PathBuf>, Vec<SocketAddr>) {
        let dirs: Vec<PathBuf> = (0..n)
            .map(|i| {
                std::env::temp_dir().join(format!("xorbas_repair_{tag}_{}_{i}", std::process::id()))
            })
            .collect();
        let servers: Vec<ChunkServer> = dirs
            .iter()
            .map(|d| {
                let _ = std::fs::remove_dir_all(d);
                ChunkServer::start(ServerConfig::new(d.clone())).unwrap()
            })
            .collect();
        let addrs = servers.iter().map(ChunkServer::addr).collect();
        (servers, dirs, addrs)
    }

    fn teardown(servers: Vec<ChunkServer>, dirs: &[PathBuf]) {
        for s in servers {
            s.shutdown();
        }
        for d in dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// A put whose ack never comes in time leaves a late reply queued on
    /// its socket; the worker must drop that connection and dial afresh.
    #[test]
    fn a_failed_request_drops_its_connection() {
        let _guard = lock(&fault::TEST_PLAN_LOCK);
        let (servers, dirs, addrs) = boot(1, "drop");
        let retry = RetryPolicy {
            op_timeout: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let mut conns = Conns::new(retry);
        let payload = vec![0x5Au8; CHUNK];
        let digest = chunk_digest(&payload);

        fault::arm(FaultPlan::new(1).with_param(Site::ServeStall, 1000, 300));
        let put = conns.request(0, addrs[0], |c| c.put(9, 3, digest, &payload));
        fault::disarm();
        assert!(put.is_err(), "the stalled ack must time out");
        assert!(
            conns.slots[0].is_none(),
            "a failed put drops its connection"
        );

        // The next request dials a fresh socket and gets its own reply.
        let mut out = Vec::new();
        conns
            .request(0, addrs[0], |c| c.get_chunk(9, 3, &mut out))
            .unwrap();
        assert_eq!(out, payload);
        assert_eq!(conns.opened, 2);
        teardown(servers, &dirs);
    }

    /// Fetches and puts time out on stalled replies while the round's
    /// workers go on reusing their connections; the agent still
    /// converges and every byte reads back.
    #[test]
    fn repair_converges_through_stalled_replies() {
        let _guard = lock(&fault::TEST_PLAN_LOCK);
        let spec = CodeSpec::LRC_10_6_5;
        let (servers, dirs, addrs) = boot(5, "stall");
        let directory = Arc::new(Mutex::new(Directory::new(&addrs, 5, 7)));
        let sessions = SessionCache::default();
        let mut client = ClusterClient::new(
            CodecInstance::build(spec).unwrap(),
            CHUNK,
            Arc::clone(&directory),
            RetryPolicy::default(),
            sessions.clone(),
        );
        let data: Vec<u8> = (0..12 * spec.data_blocks() * CHUNK)
            .map(|i| (i.wrapping_mul(2654435761) >> 16) as u8)
            .collect();
        let manifest = client.put(&data).unwrap();
        assert_eq!(manifest.stripes.len(), 12);
        for s in &manifest.stripes {
            lock(&directory).report_corrupt(s.id, 0);
        }

        let plan = fault::arm(FaultPlan::new(3).with_param(Site::ServeStall, 150, 250));
        let agent = RepairAgent::start(
            CodecInstance::build(spec).unwrap(),
            Arc::clone(&directory),
            sessions,
            RepairAgentConfig {
                retry: RetryPolicy {
                    op_timeout: Duration::from_millis(100),
                    ..RetryPolicy::default()
                },
                ..RepairAgentConfig::new(CHUNK)
            },
        )
        .unwrap();
        let converged = agent.wait_until_repaired(Duration::from_secs(60));
        let stalls = plan.counters()[Site::ServeStall as usize].2;
        let stats = agent.shutdown();
        fault::disarm();

        assert!(converged, "repair must converge under stalled acks");
        assert!(
            stalls > 0 && stats.failed_attempts > 0,
            "no request timed out"
        );
        let mut buf = Vec::new();
        client.get(&manifest, &mut buf).unwrap();
        assert!(buf == data, "bit-identical after repair");
        teardown(servers, &dirs);
    }
}

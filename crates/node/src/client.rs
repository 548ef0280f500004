//! The client library: connection management with retry/backoff, the
//! streaming erasure-coded put, and direct + degraded gets.
//!
//! **Put** splits the file into stripes and runs a two-stage pipeline
//! over a scoped encoder thread: while stripe `i` streams to the chunk
//! servers, stripe `i+1` is being filled, encoded
//! ([`ErasureCodec::encode_into`](xorbas_core::ErasureCodec::encode_into))
//! and digested. Two recycled buffer sets bound memory at two stripes
//! regardless of file size.
//!
//! **Get** reads data lanes straight from their servers, verifying the
//! digest end to end. Any failure — connection refused, a dead server
//! mid-read, a digest mismatch — flips the stripe to the *degraded*
//! path: the failure pattern is looked up in a [`SessionCache`] (one
//! [`RepairSession`] compile per pattern, replayed allocation-free
//! thereafter), only the lanes the session's plan actually reads are
//! fetched (an LRC light pattern touches one local group, the paper's
//! §3.2 repair-locality argument applied to reads), and the missing
//! lanes are reconstructed in place.

use crate::directory::{Directory, ServerId};
use crate::error::{NodeError, Result};
use crate::fault::{self, Site};
use crate::lock;
use crate::manifest::{Manifest, StripeEntry};
use crate::protocol::{
    chunk_digest, write_bare, write_locator, write_put, Deadline, ErrCode, Frame, FrameReader,
    ReadEnd, OP_DELETE, OP_GET, OP_PING,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xorbas_core::{CodecInstance, RepairSession, StripeViewMut};
use xorbas_sim::fasthash::FastMap;

/// How hard to try when a connection does not come up at once.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Connection attempts before [`NodeError::ConnectFailed`].
    pub attempts: u32,
    /// Delay after the first failed attempt (the floor of every
    /// jittered backoff; the ramp base when jitter is off).
    pub base_delay: Duration,
    /// Ceiling on any single backoff delay.
    pub max_delay: Duration,
    /// Per-request reply timeout (guards against a server that
    /// accepted the connection and then went dark).
    pub op_timeout: Duration,
    /// Total wall-clock cap across one [`connect_with_retry`] call —
    /// dialing plus every backoff sleep. A dead address costs at most
    /// this long however many attempts remain.
    pub total_deadline: Duration,
    /// Decorrelated jitter on the backoff (uniform in
    /// `[base_delay, 3·previous]`). On by default: a cluster of
    /// clients reconnecting after a kill must not stampede in
    /// lockstep. Turn off for exactly reproducible backoff timing.
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            op_timeout: Duration::from_secs(2),
            total_deadline: Duration::from_secs(1),
            jitter: true,
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep after a delay of `prev`: doubled when
    /// jitter is off, decorrelated jitter (uniform in
    /// `[base_delay, 3·prev]`) when on; capped at `max_delay` either
    /// way. Decorrelation keeps a fleet of clients that failed at the
    /// same instant from re-dialing at the same instant forever.
    pub fn next_delay(&self, prev: Duration) -> Duration {
        if !self.jitter {
            return prev.saturating_mul(2).min(self.max_delay);
        }
        static SALT: AtomicU64 = AtomicU64::new(0x5eed_1e55_c0ff_ee00);
        let salt = SALT.fetch_add(1, Ordering::Relaxed);
        let base = (self.base_delay.as_nanos() as u64).max(1);
        let hi = (prev.as_nanos() as u64).saturating_mul(3).max(base + 1);
        let pick = base + fault::mix64(salt) % (hi - base);
        Duration::from_nanos(pick).min(self.max_delay)
    }
}

/// Dials `addr` with backoff per `policy`, bounded both by
/// `policy.attempts` and by `policy.total_deadline` of wall clock.
/// Each dial uses `connect_timeout` so a black-holed address cannot
/// hang an attempt. Fault site: [`Site::ConnectRefuse`] makes an
/// attempt fail as if refused.
pub fn connect_with_retry(addr: SocketAddr, policy: &RetryPolicy) -> Result<TcpStream> {
    let attempts = policy.attempts.max(1);
    let deadline = Instant::now() + policy.total_deadline;
    let mut delay = policy.base_delay;
    for attempt in 0..attempts {
        let dialed = if fault::hit(Site::ConnectRefuse) {
            None
        } else {
            let budget = deadline
                .saturating_duration_since(Instant::now())
                .min(policy.op_timeout)
                .max(Duration::from_millis(1));
            TcpStream::connect_timeout(&addr, budget).ok()
        };
        if let Some(s) = dialed {
            return Ok(s);
        }
        let now = Instant::now();
        if attempt + 1 >= attempts || now >= deadline {
            break;
        }
        std::thread::sleep(delay.min(deadline.saturating_duration_since(now)));
        delay = policy.next_delay(delay);
    }
    Err(NodeError::ConnectFailed { addr, attempts })
}

/// How often a blocked reply read wakes up to check its deadline. The
/// timeout only fires on an *idle* socket, so a healthy reply never
/// pays it; a stalled peer is noticed within one tick.
const READ_POLL_TICK: Duration = Duration::from_millis(25);

/// One connection to one chunk server.
#[derive(Debug)]
pub struct NodeConn {
    stream: TcpStream,
    reader: FrameReader,
    /// Total budget for one request's reply (from [`RetryPolicy`]).
    op_timeout: Duration,
}

impl NodeConn {
    /// Connects (with retry) and configures the socket for
    /// request/response traffic: a short read timeout for deadline
    /// polling, a write timeout so a wedged peer cannot absorb a put
    /// forever, and `op_timeout` as the total per-reply budget.
    pub fn connect(addr: SocketAddr, policy: &RetryPolicy) -> Result<Self> {
        let stream = connect_with_retry(addr, policy)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(
            policy
                .op_timeout
                .min(READ_POLL_TICK)
                .max(Duration::from_millis(1)),
        ))?;
        stream.set_write_timeout(Some(policy.op_timeout))?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            op_timeout: policy.op_timeout,
        })
    }

    fn read_reply(&mut self) -> Result<Frame<'_>> {
        let Self {
            stream,
            reader,
            op_timeout,
        } = self;
        let mut rd = &*stream;
        match reader.read_deadline(&mut rd, None, Some(Deadline::after(*op_timeout)))? {
            Ok(frame) => Ok(frame),
            Err(ReadEnd::CleanEof | ReadEnd::Stopped) => Err(NodeError::Truncated { missing: 0 }),
            Err(ReadEnd::Disconnected) => Err(NodeError::Disconnected),
        }
    }

    /// Stores one chunk.
    pub fn put(&mut self, stripe: u64, lane: u32, digest: u64, payload: &[u8]) -> Result<()> {
        write_put(&mut (&self.stream), stripe, lane, digest, payload)?;
        match self.read_reply()? {
            Frame::Ok => Ok(()),
            Frame::Err { code } => Err(remote_err(code, stripe, lane)),
            _ => Err(NodeError::Malformed("unexpected reply to PUT")),
        }
    }

    /// Fetches one chunk into `out` and verifies its digest end to end.
    pub fn get_chunk(&mut self, stripe: u64, lane: u32, out: &mut Vec<u8>) -> Result<u64> {
        write_locator(&mut (&self.stream), OP_GET, stripe, lane)?;
        let Self {
            stream,
            reader,
            op_timeout,
        } = self;
        let mut rd = &*stream;
        match reader.read_deadline(&mut rd, None, Some(Deadline::after(*op_timeout)))? {
            Ok(Frame::Chunk { digest, payload }) => {
                out.clear();
                out.extend_from_slice(payload);
                if chunk_digest(out) != digest {
                    return Err(NodeError::ChunkCorrupt { stripe, lane });
                }
                Ok(digest)
            }
            Ok(Frame::Err { code }) => Err(remote_err(code, stripe, lane)),
            Ok(_) => Err(NodeError::Malformed("unexpected reply to GET")),
            Err(ReadEnd::Disconnected) => Err(NodeError::Disconnected),
            Err(_) => Err(NodeError::Truncated { missing: 0 }),
        }
    }

    /// Deletes one chunk (test and failure-injection helper).
    pub fn delete(&mut self, stripe: u64, lane: u32) -> Result<()> {
        write_locator(&mut (&self.stream), OP_DELETE, stripe, lane)?;
        match self.read_reply()? {
            Frame::Ok => Ok(()),
            Frame::Err { code } => Err(remote_err(code, stripe, lane)),
            _ => Err(NodeError::Malformed("unexpected reply to DELETE")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        write_bare(&mut (&self.stream), OP_PING)?;
        match self.read_reply()? {
            Frame::Ok => Ok(()),
            Frame::Err { code } => Err(NodeError::Remote(code)),
            _ => Err(NodeError::Malformed("unexpected reply to PING")),
        }
    }
}

fn remote_err(code: ErrCode, stripe: u64, lane: u32) -> NodeError {
    match code {
        ErrCode::NotFound => NodeError::ChunkNotFound { stripe, lane },
        ErrCode::Corrupt => NodeError::ChunkCorrupt { stripe, lane },
        other => NodeError::Remote(other),
    }
}

/// Whether an error means "the server (or the pipe to it) is gone" as
/// opposed to "the server answered and the chunk is bad". A blown
/// deadline counts: a peer too slow to answer inside the budget is
/// failed over exactly like a dead one (the Rashmi-et-al. observation
/// that most "failures" are slowness, operationally).
fn is_transport(e: &NodeError) -> bool {
    matches!(
        e,
        NodeError::Io(_)
            | NodeError::Truncated { .. }
            | NodeError::Disconnected
            | NodeError::DeadlineExceeded { .. }
            | NodeError::ConnectFailed { .. }
            | NodeError::FrameTooLarge { .. }
            | NodeError::Remote(ErrCode::Unavailable)
    )
}

/// Compile-once cache of [`RepairSession`]s keyed by failure pattern,
/// shared between degraded reads and the repair agent.
#[derive(Debug, Clone, Default)]
pub struct SessionCache {
    inner: Arc<Mutex<FastMap<Vec<usize>, Arc<RepairSession>>>>,
}

impl SessionCache {
    /// Returns the cached session for `unavailable` (sorted lane
    /// indices), compiling and caching on first sight.
    pub fn get(&self, codec: &CodecInstance, unavailable: &[usize]) -> Result<Arc<RepairSession>> {
        let mut map = lock(&self.inner);
        if let Some(s) = map.get(unavailable) {
            return Ok(Arc::clone(s));
        }
        let session = Arc::new(codec.as_dyn().repair_session(unavailable)?);
        map.insert(unavailable.to_vec(), Arc::clone(&session));
        Ok(session)
    }

    /// [`SessionCache::get`], always `Some`: the `Option` is kept for
    /// perfbench's cluster driver, which unwraps it.
    pub fn get_or_compile(
        &self,
        codec: &CodecInstance,
        unavailable: &[usize],
    ) -> Result<Option<Arc<RepairSession>>> {
        self.get(codec, unavailable).map(Some)
    }

    /// Number of compiled patterns.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Whether no pattern has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How a read was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// Straight from the chunk's server.
    Direct,
    /// Reconstructed from surviving lanes.
    Degraded {
        /// Whether the whole repair ran on the light (local-group)
        /// decoder.
        light: bool,
    },
}

/// Outcome accounting for a whole-file [`ClusterClient::get`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GetReport {
    /// Stripes read.
    pub stripes: u64,
    /// Stripes that needed the degraded path.
    pub degraded_stripes: u64,
}

/// A recycled stripe's worth of lane buffers plus their digests.
#[derive(Default)]
struct BufSet {
    lanes: Vec<Vec<u8>>,
    digests: Vec<u64>,
}

/// The cluster-facing client.
pub struct ClusterClient {
    codec: CodecInstance,
    chunk_bytes: usize,
    directory: Arc<Mutex<Directory>>,
    retry: RetryPolicy,
    conns: Vec<Option<NodeConn>>,
    sessions: SessionCache,
    stripe_scratch: Vec<Vec<u8>>,
    unavailable_scratch: Vec<usize>,
}

impl ClusterClient {
    /// A client striping with `codec` at `chunk_bytes` per chunk.
    pub fn new(
        codec: CodecInstance,
        chunk_bytes: usize,
        directory: Arc<Mutex<Directory>>,
        retry: RetryPolicy,
        sessions: SessionCache,
    ) -> Self {
        Self {
            codec,
            chunk_bytes,
            directory,
            retry,
            conns: Vec::new(),
            sessions,
            stripe_scratch: Vec::new(),
            unavailable_scratch: Vec::new(),
        }
    }

    /// The shared placement directory.
    pub fn directory(&self) -> &Arc<Mutex<Directory>> {
        &self.directory
    }

    /// The shared repair-session cache.
    pub fn sessions(&self) -> &SessionCache {
        &self.sessions
    }

    /// The codec this client stripes with.
    pub fn codec(&self) -> &CodecInstance {
        &self.codec
    }

    /// Registers a manifest's stripes with the directory (a fresh
    /// client reading a file it did not write). Fails with
    /// [`NodeError::ManifestMismatch`] when the manifest's geometry is
    /// not the one this client stripes with.
    pub fn register_manifest(&self, manifest: &Manifest) -> Result<()> {
        self.check_manifest(manifest)?;
        let mut dir = lock(&self.directory);
        for entry in &manifest.stripes {
            dir.register_stripe(entry.id, entry.servers.clone());
        }
        Ok(())
    }

    /// A manifest is only readable by a client configured with the
    /// exact same code spec and chunk size: scratch sizing, degraded
    /// repair, and extraction geometry all assume they agree. Anything
    /// else would silently misread, so it is a typed error instead.
    fn check_manifest(&self, manifest: &Manifest) -> Result<()> {
        if manifest.spec != self.codec.spec() {
            return Err(NodeError::ManifestMismatch(
                "manifest code spec differs from the client's codec",
            ));
        }
        if manifest.chunk_bytes != self.chunk_bytes as u64 {
            return Err(NodeError::ManifestMismatch(
                "manifest chunk size differs from the client's",
            ));
        }
        Ok(())
    }

    /// Streams `data` into the cluster: stripes are encoded on a
    /// pipelined encoder thread while the previous stripe's chunks are
    /// on the wire. Returns the manifest needed to read it back.
    pub fn put(&mut self, data: &[u8]) -> Result<Manifest> {
        let spec = self.codec.spec();
        let k = spec.data_blocks();
        let n = spec.total_blocks();
        let cb = self.chunk_bytes;
        let stripe_payload = k * cb;
        let stripe_count = if data.is_empty() {
            0
        } else {
            data.len().div_ceil(stripe_payload)
        };

        let (ready_tx, ready_rx) = mpsc::sync_channel::<Result<BufSet>>(2);
        let (free_tx, free_rx) = mpsc::sync_channel::<BufSet>(2);
        for _ in 0..2 {
            let _ = free_tx.send(BufSet::default());
        }

        let codec = &self.codec;
        let conns = &mut self.conns;
        let dir = &self.directory;
        let retry = &self.retry;

        let entries = std::thread::scope(|s| {
            s.spawn(move || {
                for stripe_idx in 0..stripe_count {
                    let Ok(mut set) = free_rx.recv() else { return };
                    let filled = fill_and_encode(codec, &mut set, data, stripe_idx, k, n, cb);
                    if ready_tx.send(filled.map(|()| set)).is_err() {
                        return;
                    }
                }
            });
            let free_tx = free_tx;
            let mut run = || -> Result<Vec<StripeEntry>> {
                let mut entries = Vec::with_capacity(stripe_count);
                for _ in 0..stripe_count {
                    let set = match ready_rx.recv() {
                        Ok(Ok(set)) => set,
                        Ok(Err(e)) => return Err(e),
                        Err(_) => {
                            return Err(NodeError::Malformed("encoder pipeline closed early"))
                        }
                    };
                    let stripe_id = {
                        let mut d = lock(dir);
                        d.place_stripe(n)?.0
                    };
                    let servers = put_stripe(conns, dir, retry, stripe_id, &set)?;
                    entries.push(StripeEntry {
                        id: stripe_id,
                        servers,
                    });
                    let _ = free_tx.send(set);
                }
                Ok(entries)
            };
            let out = run();
            // Unblock the encoder if we bailed early.
            drop(free_tx);
            out
        })?;

        let manifest = Manifest {
            spec,
            chunk_bytes: cb as u64,
            file_len: data.len() as u64,
            stripes: entries,
        };
        // Acknowledge durably: with a WAL-backed directory the manifest
        // is on disk before the caller sees Ok, so a restarted cluster
        // can hand the file back. (No-op for an in-memory directory.)
        lock(&self.directory).log_manifest(&manifest)?;
        Ok(manifest)
    }

    /// Reads a whole file back, bit-identical, serving stripes through
    /// the degraded path whenever the direct one fails.
    pub fn get(&mut self, manifest: &Manifest, out: &mut Vec<u8>) -> Result<GetReport> {
        self.check_manifest(manifest)?;
        let k = manifest.spec.data_blocks();
        let cb = manifest.chunk_bytes as usize;
        out.clear();
        let mut remaining = manifest.file_len as usize;
        let mut report = GetReport::default();
        // Every data lane must hold fresh bytes after a degraded
        // stripe: a light repair plan only reads one local group, so
        // lanes outside it are explicit fetch targets.
        let targets: Vec<usize> = (0..k).collect();
        for entry in &manifest.stripes {
            report.stripes += 1;
            if !self.try_direct_stripe(entry.id, k) {
                self.fetch_stripe_degraded(entry.id, &targets)?;
                report.degraded_stripes += 1;
            }
            for lane in 0..k {
                if remaining == 0 {
                    break;
                }
                let take = remaining.min(cb);
                let chunk = self
                    .stripe_scratch
                    .get(lane)
                    .ok_or(NodeError::Malformed("stripe scratch underfilled"))?;
                let bytes = chunk
                    .get(..take)
                    .ok_or(NodeError::Malformed("chunk shorter than manifest geometry"))?;
                out.extend_from_slice(bytes);
                remaining -= take;
            }
        }
        if remaining > 0 {
            return Err(NodeError::Malformed(
                "manifest stripes shorter than file_len",
            ));
        }
        Ok(report)
    }

    /// Reads one data chunk, reporting whether the direct or degraded
    /// path served it. This is the load generator's read op.
    pub fn read_data_chunk(
        &mut self,
        stripe: u64,
        lane: u32,
        out: &mut Vec<u8>,
    ) -> Result<ReadKind> {
        if self.read_chunk_direct(stripe, lane, out).is_ok() {
            return Ok(ReadKind::Direct);
        }
        let light = self.fetch_stripe_degraded(stripe, &[lane as usize])?;
        let chunk = self
            .stripe_scratch
            .get(lane as usize)
            .ok_or(NodeError::Malformed("lane out of range after repair"))?;
        out.clear();
        out.extend_from_slice(chunk);
        Ok(ReadKind::Degraded { light })
    }

    /// Direct read of `(stripe, lane)` from its assigned server,
    /// updating the directory (dead server / corrupt chunk) on failure
    /// so the caller can fall back to the degraded path.
    fn read_chunk_direct(&mut self, stripe: u64, lane: u32, out: &mut Vec<u8>) -> Result<()> {
        let (sid, addr) = {
            let d = lock(&self.directory);
            let servers = d
                .servers_of(stripe)
                .ok_or(NodeError::UnknownStripe(stripe))?;
            let sid = *servers
                .get(lane as usize)
                .ok_or(NodeError::Malformed("lane out of range for stripe"))?;
            if d.is_corrupt(stripe, lane) {
                return Err(NodeError::ChunkCorrupt { stripe, lane });
            }
            let addr = d
                .addr_of(sid)
                .ok_or(NodeError::Malformed("server id out of roster"))?;
            if !d.is_alive(sid) {
                return Err(NodeError::ConnectFailed { addr, attempts: 0 });
            }
            (sid, addr)
        };
        let outcome = ensure_conn(&mut self.conns, sid, addr, &self.retry)
            .and_then(|conn| conn.get_chunk(stripe, lane, out))
            .map(|_digest| ());
        if let Err(e) = &outcome {
            if is_transport(e) {
                if let Some(slot) = self.conns.get_mut(sid) {
                    *slot = None;
                }
                lock(&self.directory).mark_dead(sid);
            } else if matches!(
                e,
                NodeError::ChunkCorrupt { .. } | NodeError::ChunkNotFound { .. }
            ) {
                lock(&self.directory).report_corrupt(stripe, lane);
            }
        }
        outcome
    }

    /// Fills `stripe_scratch[0..k]` via direct reads; `false` means at
    /// least one lane failed and the stripe needs the degraded path.
    fn try_direct_stripe(&mut self, stripe: u64, k: usize) -> bool {
        self.ensure_scratch();
        for lane in 0..k {
            let mut buf = std::mem::take(&mut self.stripe_scratch[lane]);
            let res = self.read_chunk_direct(stripe, lane as u32, &mut buf);
            self.stripe_scratch[lane] = buf;
            if res.is_err() {
                return false;
            }
        }
        true
    }

    /// Serves a stripe degraded: compile (or reuse) the repair session
    /// for the current failure pattern, fetch the lanes its plan reads
    /// plus any `targets` the plan does not cover, and reconstruct the
    /// missing lanes in place in `stripe_scratch`. On `Ok`, every lane
    /// in `targets` holds fresh bytes — a light plan only reads one
    /// local group, so lanes the caller needs outside it are fetched
    /// directly rather than left stale. Returns whether the repair ran
    /// entirely on the light decoder.
    fn fetch_stripe_degraded(&mut self, stripe: u64, targets: &[usize]) -> Result<bool> {
        let n = self.codec.total_blocks();
        self.ensure_scratch();
        let mut last_err = NodeError::Malformed("degraded read did not converge");
        // The failure pattern can grow while we fetch (another server
        // dies); every directory update feeds back into the next turn.
        // Later turns back off briefly: transient unavailability (a
        // restarting server, an injected stall) often clears within
        // one liveness-probe round, and spinning through every attempt
        // in microseconds would burn them all before it can.
        for attempt in 0..n + 2 {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(4 * (attempt as u64).min(10)));
            }
            let mut unavailable = std::mem::take(&mut self.unavailable_scratch);
            lock(&self.directory).unavailable_lanes(stripe, &mut unavailable)?;

            let session = match self.sessions.get(&self.codec, &unavailable) {
                Ok(s) => s,
                Err(e) => {
                    self.unavailable_scratch = unavailable;
                    return Err(e);
                }
            };

            // Fetch what the plan reads plus the caller's targets the
            // plan does not cover; missing lanes are reconstructed
            // locally, lanes neither read nor targeted are never
            // touched (and stay stale — callers must not read them).
            let mut fetch_ok = true;
            for lane in 0..n {
                let needed = (session.plan().tasks.iter().any(|t| t.reads.contains(&lane))
                    || targets.contains(&lane))
                    && !session.missing().contains(&lane);
                if !needed {
                    continue;
                }
                let mut buf = std::mem::take(&mut self.stripe_scratch[lane]);
                let res = self.read_chunk_direct(stripe, lane as u32, &mut buf);
                self.stripe_scratch[lane] = buf;
                if let Err(e) = res {
                    last_err = e;
                    fetch_ok = false;
                    break;
                }
            }
            self.unavailable_scratch = unavailable;
            if !fetch_ok {
                continue;
            }

            // All source lanes are in place: reconstruct the pattern.
            for lane in &mut self.stripe_scratch {
                lane.resize(self.chunk_bytes, 0);
            }
            let mut refs: Vec<&mut [u8]> = self
                .stripe_scratch
                .iter_mut()
                .map(Vec::as_mut_slice)
                .collect();
            let mut view = StripeViewMut::new(&mut refs, session.missing())?;
            session.repair(&mut view)?;
            return Ok(session.plan().is_light());
        }
        Err(last_err)
    }

    /// Sizes the stripe scratch to the codec's geometry.
    fn ensure_scratch(&mut self) {
        let n = self.codec.total_blocks();
        self.stripe_scratch.resize_with(n, Vec::new);
        for lane in &mut self.stripe_scratch {
            lane.resize(self.chunk_bytes, 0);
        }
    }
}

/// Fills a buffer set with stripe `stripe_idx`'s data (zero-padded),
/// encodes the parity lanes, and digests every lane. Runs on the
/// encoder thread of [`ClusterClient::put`].
fn fill_and_encode(
    codec: &CodecInstance,
    set: &mut BufSet,
    data: &[u8],
    stripe_idx: usize,
    k: usize,
    n: usize,
    chunk_bytes: usize,
) -> Result<()> {
    set.lanes.resize_with(n, Vec::new);
    set.digests.resize(n, 0);
    for lane in &mut set.lanes {
        lane.resize(chunk_bytes, 0);
    }
    let base = stripe_idx * k * chunk_bytes;
    for lane in 0..k {
        let start = (base + lane * chunk_bytes).min(data.len());
        let end = (base + (lane + 1) * chunk_bytes).min(data.len());
        let avail = end - start;
        let buf = set
            .lanes
            .get_mut(lane)
            .ok_or(NodeError::Malformed("lane buffer missing"))?;
        buf.get_mut(..avail)
            .ok_or(NodeError::Malformed("lane buffer too short"))?
            .copy_from_slice(&data[start..end]);
        if let Some(tail) = buf.get_mut(avail..) {
            tail.fill(0);
        }
    }
    let (data_lanes, parity_lanes) = set.lanes.split_at_mut(k);
    let data_refs: Vec<&[u8]> = data_lanes.iter().map(Vec::as_slice).collect();
    let mut parity_refs: Vec<&mut [u8]> = parity_lanes.iter_mut().map(Vec::as_mut_slice).collect();
    codec.encode_into(&data_refs, &mut parity_refs)?;
    for (lane, digest) in set.lanes.iter().zip(set.digests.iter_mut()) {
        *digest = chunk_digest(lane);
    }
    Ok(())
}

/// Returns (creating if needed) the cached connection to `sid`.
pub(crate) fn ensure_conn<'a>(
    conns: &'a mut Vec<Option<NodeConn>>,
    sid: ServerId,
    addr: SocketAddr,
    retry: &RetryPolicy,
) -> Result<&'a mut NodeConn> {
    if conns.len() <= sid {
        conns.resize_with(sid + 1, || None);
    }
    let slot = conns
        .get_mut(sid)
        .ok_or(NodeError::Malformed("server id out of roster"))?;
    if slot.is_none() {
        *slot = Some(NodeConn::connect(addr, retry)?);
    }
    slot.as_mut()
        .ok_or(NodeError::Malformed("connection slot empty"))
}

/// Streams one encoded stripe to its assigned servers, failing over to
/// a replacement placement when a server dies mid-put. Returns the
/// final lane→server assignment.
fn put_stripe(
    conns: &mut Vec<Option<NodeConn>>,
    dir: &Arc<Mutex<Directory>>,
    retry: &RetryPolicy,
    stripe: u64,
    set: &BufSet,
) -> Result<Vec<ServerId>> {
    let mut assigned: Vec<ServerId> = {
        let d = lock(dir);
        d.servers_of(stripe)
            .map(<[ServerId]>::to_vec)
            .ok_or(NodeError::UnknownStripe(stripe))?
    };
    for lane in 0..set.lanes.len() {
        // Fault site: the put pipeline dies mid-stripe, as if the
        // writer thread was killed. The file is never acknowledged —
        // the stripes already placed are harmless WAL ghosts.
        if fault::hit(Site::CrashPut) {
            return Err(NodeError::Injected("crash-put"));
        }
        let digest = *set
            .digests
            .get(lane)
            .ok_or(NodeError::Malformed("digest missing for lane"))?;
        let payload = set
            .lanes
            .get(lane)
            .ok_or(NodeError::Malformed("payload missing for lane"))?;
        let mut failovers = 0usize;
        loop {
            let sid = *assigned
                .get(lane)
                .ok_or(NodeError::Malformed("assignment missing for lane"))?;
            let addr = {
                lock(dir)
                    .addr_of(sid)
                    .ok_or(NodeError::Malformed("server id out of roster"))?
            };
            let attempt = ensure_conn(conns, sid, addr, retry)
                .and_then(|c| c.put(stripe, lane as u32, digest, payload));
            // A server that answered "I/O error" (e.g. a torn chunk
            // write) is alive but could not take the chunk: fail the
            // lane over to another server without declaring it dead.
            let disk_failed = matches!(attempt, Err(NodeError::Remote(ErrCode::Io)));
            match attempt {
                Ok(()) => break,
                Err(e) if is_transport(&e) || disk_failed => {
                    let mut d = lock(dir);
                    if !disk_failed {
                        if let Some(slot) = conns.get_mut(sid) {
                            *slot = None;
                        }
                        d.mark_dead(sid);
                    }
                    failovers += 1;
                    if failovers > d.server_count() {
                        return Err(e);
                    }
                    let new_sid = d.choose_replacement(stripe)?;
                    d.reassign(stripe, lane as u32, new_sid)?;
                    if let Some(slot) = assigned.get_mut(lane) {
                        *slot = new_sid;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(assigned)
}

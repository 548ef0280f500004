//! The cluster part: the paper's §5 lifecycle on the node prototype.
//!
//! In-process chunk servers store the workload's code (`LRC(10,6,5)` or
//! the `RS(10,4)` baseline) under a WAL-backed directory, so every
//! acknowledged put is durable. The part runs
//! (a) seeded multi-stripe puts through `ClusterClient::put`, then per
//! cycle (b) kills one server and issues seeded data-chunk reads with no
//! repair agent running — a fixed number on live servers (direct) and on
//! the dead one (degraded) — and (c) starts a `RepairAgent` and times it
//! until `Directory::scan_lost` is empty. Finally every file is read
//! back and compared with its regenerated bytes.
//!
//! With tracing on, sampled operations are replayed stage by stage
//! through the public functions of the layers below (`Directory`,
//! `SessionCache`, `NodeConn`, `ErasureCodec::encode_into`,
//! `RepairSession::repair`, `chunk_digest`), each stage in its own span.

use crate::codecs;
use crate::host::{thread_cpu_secs, work_cpu_secs, CopyRef};
use crate::report::Metric;
use crate::rng::{self, ReadClass};
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::{Checks, Shape};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use xorbas_core::{CodeSpec, StripeViewMut};
use xorbas_node::client::{ReadKind, SessionCache};
use xorbas_node::protocol::write_put;
use xorbas_node::{
    chunk_digest, ChunkServer, ChunkStore, ClusterClient, Directory, Manifest, NodeConn,
    RepairAgent, RepairAgentConfig, RepairStatsSnapshot, RetryPolicy, ServerConfig, ServerId,
};

/// Chunk servers: every lane of a stripe and its replacement sit on
/// distinct servers even after one server per cycle has died.
pub const SERVERS: usize = 20;
/// Racks the directory spreads the servers over.
const RACKS: usize = 5;
/// Data lanes of both codes the cluster runs, `LRC(10,6,5)` and `RS(10,4)`.
const K: usize = 10;
/// Give-up time for one repair cycle.
const REPAIR_TIMEOUT: Duration = Duration::from_secs(60);
/// Chunk size.
const CHUNK_BYTES: usize = 1 << 20;
/// Files put, all of `FILE_STRIPES` stripes; each file's last stripe is
/// three quarters full. Enough that a dead server holds about 40 chunks,
/// so each repair phase runs for half a CPU-second or more.
const FILES: usize = 24;
/// Stripes per file.
const FILE_STRIPES: usize = 2;
/// Kill → read → repair cycles (one more dead server each).
const CYCLES: usize = 3;
/// Direct reads per cycle: enough for a block of about half a
/// CPU-second, so the 10 ms ticks of the process CPU clock stay small.
const READS_DIRECT: usize = 400;
/// Degraded-read and repair replays per run and per cycle.
const REPLAYS: usize = 24;
/// Files whose put is replayed.
const PUT_REPLAYS: usize = 2;
/// Repetitions of each standalone probe (chunk store, digest, frame).
const PROBE_REPS: usize = 24;

/// Connection policy for the client, the agent and the replays: the
/// default, but with a reply budget long enough that a stall of the
/// whole guest on a shared host is not taken for a dead server (a dead
/// server refuses or resets at once, so this costs the runs nothing).
fn retry() -> RetryPolicy {
    RetryPolicy {
        op_timeout: Duration::from_secs(30),
        ..RetryPolicy::default()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A booted loopback cluster.
pub struct Cluster {
    code: CodeSpec,
    /// Stored lanes per stripe.
    n: usize,
    /// Lanes one lost chunk's repair, or degraded read, fetches.
    reads_per_loss: usize,
    /// Whether single losses repair on the light (local-group) decoder.
    light: bool,
    root: PathBuf,
    servers: Vec<ChunkServer>,
    addrs: Vec<SocketAddr>,
    dir: Arc<Mutex<Directory>>,
    sessions: SessionCache,
    client: ClusterClient,
    wal: PathBuf,
}

impl Cluster {
    /// Starts the servers under `root` and opens the WAL-backed
    /// directory; `root` must not hold a previous cluster.
    pub fn boot(root: &Path, code: CodeSpec, seed: u64) -> Result<Self, String> {
        let mut servers = Vec::with_capacity(SERVERS);
        for i in 0..SERVERS {
            let cfg = ServerConfig::new(root.join(format!("server{i:02}")));
            servers.push(ChunkServer::start(cfg).map_err(|e| format!("server {i}: {e}"))?);
        }
        let addrs: Vec<SocketAddr> = servers.iter().map(ChunkServer::addr).collect();
        let wal = root.join("directory.wal");
        let (dir, prior) = Directory::open_persistent(&wal, &addrs, RACKS, seed)
            .map_err(|e| format!("directory: {e}"))?;
        if !prior.is_empty() {
            return Err("the data root held an earlier directory log".into());
        }
        let dir = Arc::new(Mutex::new(dir));
        let sessions = SessionCache::default();
        let client = ClusterClient::new(
            codecs::build(code)?,
            CHUNK_BYTES,
            Arc::clone(&dir),
            retry(),
            sessions.clone(),
        );
        Ok(Self {
            code,
            n: code.total_blocks(),
            reads_per_loss: code.single_repair_reads(),
            light: matches!(code, CodeSpec::Lrc(_)),
            root: root.to_path_buf(),
            servers,
            addrs,
            dir,
            sessions,
            client,
            wal,
        })
    }

    /// Stops every server and waits for their threads.
    pub fn shutdown(self) {
        drop(self.client);
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// One seeded file.
struct File {
    key: u64,
    len: usize,
    manifest: Option<Manifest>,
}

impl File {
    /// Bytes `offset..offset + out.len()` of the file, zero past its end
    /// (the padding a partial stripe is stored with).
    fn bytes_at(&self, offset: usize, out: &mut [u8]) {
        out.fill(0);
        if offset < self.len {
            let end = self.len.min(offset + out.len());
            rng::fill_bytes(self.key, offset as u64, &mut out[..end - offset]);
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len];
        self.bytes_at(0, &mut v);
        v
    }
}

/// Where a data chunk of a file lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    file: usize,
    /// Stripe index inside the file.
    idx: usize,
    stripe: u64,
    lane: u32,
}

/// Results of the cluster part.
pub struct ClusterResult {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (only the wall-time figures with tracing off).
    pub layers: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

/// One read population, per cycle: the wall milliseconds of every read,
/// and the process CPU milliseconds per read over the cycle's block.
#[derive(Default)]
struct Samples {
    wall: Vec<Vec<f64>>,
    cpu_per_read: Vec<f64>,
}

/// Cached connections for replays, one per server.
struct Conns {
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<NodeConn>>,
}

impl Conns {
    fn get(&mut self, sid: ServerId) -> Result<&mut NodeConn, String> {
        if self.conns.len() <= sid {
            self.conns.resize_with(sid + 1, || None);
        }
        let slot = &mut self.conns[sid];
        if slot.is_none() {
            let addr = *self.addrs.get(sid).ok_or("server id out of roster")?;
            *slot = Some(NodeConn::connect(addr, &retry()).map_err(|e| e.to_string())?);
        }
        slot.as_mut().ok_or_else(|| "no connection".to_string())
    }
}

/// State shared by the phases of one cluster run.
struct Run<'a> {
    cl: &'a mut Cluster,
    shape: &'a Shape,
    tracer: &'a mut Tracer,
    checks: &'a mut Checks,
    files: Vec<File>,
    conns: Conns,
    attempted: u64,
    failed: u64,
    /// The first few failed operations' errors.
    errors: Vec<String>,
    /// Session lookups the benchmark knows of (reads, repairs, replays).
    lookups: u64,
    /// Lanes each degraded-read replay fetched.
    degraded_fetches: Vec<f64>,
    /// Stripes the put replays wrote.
    replayed_put_stripes: usize,
}

/// What the per-layer figures are computed from.
struct LayerInputs {
    put_total: f64,
    stripes: usize,
    wal_per_stripe: f64,
    degraded_p50: f64,
    repair_secs: f64,
    repair: RepairStatsSnapshot,
}

/// Runs the cluster part on a booted cluster, calling `between` after
/// each cycle, outside every timed phase.
pub fn run(
    cl: &mut Cluster,
    shape: &Shape,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<ClusterResult, String> {
    let stripe_payload = K * CHUNK_BYTES;
    let files = (0..FILES)
        .map(|i| File {
            key: rng::mix64(seed ^ (0xF11E_0000 + i as u64)),
            len: (FILE_STRIPES - 1) * stripe_payload + stripe_payload * 3 / 4,
            manifest: None,
        })
        .collect();
    let conns = Conns {
        addrs: cl.addrs.clone(),
        conns: Vec::new(),
    };
    let mut r = Run {
        cl,
        shape,
        tracer,
        checks,
        files,
        conns,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        lookups: 0,
        degraded_fetches: Vec::new(),
        replayed_put_stripes: 0,
    };
    r.run(seed, between)
}

impl Run<'_> {
    fn run(
        &mut self,
        seed: u64,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<ClusterResult, String> {
        let fast = stats::quiet;
        let mut notes = Vec::new();
        let mut layers = Vec::new();

        // (a) Puts.
        let wal_before = wal_len(&self.cl.wal);
        let mut put_secs = Vec::new();
        let mut put_mibs = Vec::new();
        let mut user_bytes = 0usize;
        // The inputs are made before the phase's process CPU is read.
        let inputs: Vec<Vec<u8>> = self.files.iter().map(File::bytes).collect();
        let put_cpu = work_cpu_secs();
        for (f, data) in inputs.iter().enumerate() {
            let op = self.tracer.new_op();
            let span = self.tracer.begin(op, None, "put");
            let t = Instant::now();
            let out = self.cl.client.put(data);
            let dt = t.elapsed().as_secs_f64();
            self.tracer.end(span);
            self.attempted += 1;
            match out {
                Ok(m) => {
                    put_secs.push(dt);
                    put_mibs.push(data.len() as f64 / (1 << 20) as f64);
                    user_bytes += data.len();
                    self.files[f].manifest = Some(m);
                }
                Err(e) => {
                    self.fail(format!("put of file {f}: {e}"));
                }
            }
        }
        let put_cpu = work_cpu_secs() - put_cpu;
        drop(inputs);
        let stripes: usize = self
            .files
            .iter()
            .filter_map(|f| f.manifest.as_ref())
            .map(|m| m.stripes.len())
            .sum();
        let put_total: f64 = put_secs.iter().sum();
        let per_mib: Vec<f64> = put_secs.iter().zip(&put_mibs).map(|(s, m)| s / m).collect();
        let put_mibps = 1.0 / fast(&per_mib);
        let wal_per_stripe = (wal_len(&self.cl.wal) - wal_before) as f64 / stripes.max(1) as f64;
        notes.push(format!(
            "cluster put: {} files, {} stripes, {:.1} MiB user data in {:.3} s",
            put_secs.len(),
            stripes,
            user_bytes as f64 / (1 << 20) as f64,
            put_total
        ));

        // (b) + (c) per cycle.
        // Indexed by `ReadClass as usize`.
        let mut reads = [Samples::default(), Samples::default()];
        let mut repair_cpu = Vec::new();
        let mut repair_ratio = Vec::new();
        let mut repair_secs = Vec::new();
        // The paired copy reference for the repair phases (see
        // `CopyRef`), as large as the bytes a cycle's repairs fetch.
        let mut copy = CopyRef::new(128 << 20);
        let mut repair = RepairStatsSnapshot::default();
        let mut dead: Vec<ServerId> = Vec::new();
        for cycle in 0..CYCLES {
            let victim = self.pick_victim(&dead)?;
            self.cl.servers[victim].kill();
            dead.push(victim);
            // Let the server's handler threads notice the kill, so every
            // degraded read sees the same dead server.
            std::thread::sleep(Duration::from_millis(50));
            let (live, lost) = self.chunk_sets(&dead, victim);
            let on_victim: Vec<Loc> = lost
                .iter()
                .copied()
                .filter(|l| (l.lane as usize) < K)
                .collect();
            let seq = rng::read_sequence(
                seed,
                cycle as u64,
                &live,
                &on_victim,
                READS_DIRECT,
                self.shape.reads_degraded,
            );
            self.read_phase(&seq, &mut reads)?;

            // Copies of the bytes the cycle's repairs fetch, just before
            // and just after them.
            // The copy moves to fresh memory each cycle, as the codec's
            // does each round.
            copy = copy.relocate();
            let fetch = lost.len() * self.cl.reads_per_loss * CHUNK_BYTES;
            // Four copies before the phase and four after; their median
            // is the reference.
            let mut refs: Vec<f64> = (0..4).map(|_| copy.secs(fetch)).collect();
            let (secs, cpu, stats) = self.repair_phase(lost.len())?;
            refs.extend((0..4).map(|_| copy.secs(fetch)));
            let reference = stats::median(&refs).unwrap_or(f64::NAN);
            repair_secs.push(secs);
            repair_cpu.push(cpu);
            repair_ratio.push(reference / cpu);
            repair = add_stats(repair, stats);
            notes.push(format!(
                "cluster cycle {cycle}: killed server {victim} holding {} chunks ({} data); \
                 repair {:.3} s wall, {:.3} s CPU; copy of the {} MiB fetched {:.1} ms CPU",
                lost.len(),
                on_victim.len(),
                secs,
                cpu,
                fetch >> 20,
                reference * 1e3
            ));
            if self.tracer.on() {
                for loc in lost.iter().take(REPLAYS) {
                    self.replay_repair(*loc)?;
                }
            }
            between()?;
        }

        // Every file reads back bit-identical after the repairs.
        let mut out = Vec::new();
        for f in 0..self.files.len() {
            let Some(m) = &self.files[f].manifest else {
                continue;
            };
            self.attempted += 1;
            match self.cl.client.get(m, &mut out) {
                Ok(_) => self.checks.expect(
                    out == self.files[f].bytes(),
                    "file reads back bit-identical after repair",
                ),
                Err(e) => self.fail(format!("readback of file {f}: {e}")),
            }
        }

        let per_loss = self.cl.reads_per_loss;
        let fetched_ok = repair.bytes_fetched == per_loss as u64 * repair.bytes_written;
        self.checks.expect(
            fetched_ok && repair.bytes_written > 0,
            format!(
                "repair fetched exactly {per_loss}x the bytes it rebuilt ({} / {})",
                repair.bytes_fetched, repair.bytes_written
            ),
        );
        let read_amp = repair.bytes_fetched as f64 / repair.bytes_written as f64;

        // Per cycle: the wall p50 and tail (the highest percentile with
        // ten reads beyond it). The p50 reported is the lowest cycle's,
        // the tail the median cycle's.
        let p50 = |s: &[Vec<f64>]| {
            let per_cycle: Vec<f64> = s.iter().filter_map(|c| stats::median(c)).collect();
            fast(&per_cycle)
        };
        let [direct, degraded] = &reads;
        let mut tails = [Vec::new(), Vec::new()];
        for (i, (what, pop)) in [("direct", direct), ("degraded", degraded)]
            .into_iter()
            .enumerate()
        {
            for (cycle, s) in pop.wall.iter().enumerate() {
                let s = stats::sorted(s);
                let t = stats::tail(&s).ok_or("too few reads for a tail")?;
                notes.push(format!(
                    "cluster cycle {cycle} read {what}: n {} (failed {}), wall p50 {:.3} ms, tail p{:.2} {:.3} ms",
                    t.n,
                    s.iter().filter(|x| x.is_infinite()).count(),
                    stats::percentile(&s, 50.0).unwrap_or(f64::NAN),
                    t.pct,
                    t.value
                ));
                tails[i].push(t.value);
            }
        }
        let tail = |i: usize| stats::median(&tails[i]).unwrap_or(f64::NAN);
        // The bounded repair figure is the process CPU over whole repair
        // phases, what the repairs cost the agent and the servers
        // together, as a ratio to the paired copy of the bytes they
        // fetched: the copy's CPU time ÷ the repairs'. Wall time on a
        // shared host swings with the other guests by half or more
        // between runs, and CPU time by a quarter; the absolute figures,
        // with the tails, are per-layer.
        let e2e = vec![
            // Over the cluster's operations: puts, reads, repair cycles
            // and readbacks.
            Metric::new(
                "ok_op_ratio",
                "x",
                (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
            ),
            // Mean over cycles: a cycle's CPU is only tens of 10 ms ticks.
            Metric::new(
                "repair_roof_ratio",
                "x",
                stats::mean(&repair_ratio).unwrap_or(f64::NAN),
            ),
            Metric::new("repair_read_amp", "x", read_amp),
        ];
        layers.extend([
            // Read and put CPU, less the accept loops' polling, moved by
            // 0.08 to 0.25 between runs.
            Metric::new("read_direct_cpu_ms", "ms", fast(&direct.cpu_per_read)),
            Metric::new("read_degraded_cpu_ms", "ms", fast(&degraded.cpu_per_read)),
            Metric::new(
                "put_mib_per_cpu_s",
                "MiB/CPU-s",
                user_bytes as f64 / (1 << 20) as f64 / put_cpu,
            ),
            Metric::new("put_mibps", "MiB/s", put_mibps),
            Metric::new("read_direct_p50_ms", "ms", p50(&direct.wall)),
            Metric::new("read_degraded_p50_ms", "ms", p50(&degraded.wall)),
            Metric::new("repair_s", "s", fast(&repair_secs)),
            Metric::new(
                "repair_cpu_s",
                "s",
                stats::mean(&repair_cpu).unwrap_or(f64::NAN),
            ),
            Metric::new("read_direct_tail_ms", "ms", tail(0)),
            Metric::new("read_degraded_tail_ms", "ms", tail(1)),
        ]);
        if self.tracer.on() {
            for f in 0..self.files.len().min(PUT_REPLAYS) {
                self.replay_put(f)?;
            }
            self.layer_metrics(
                &mut layers,
                &mut notes,
                LayerInputs {
                    put_total,
                    stripes,
                    wal_per_stripe,
                    degraded_p50: p50(&degraded.wall),
                    repair_secs: repair_secs.iter().sum(),
                    repair,
                },
            )?;
        }
        notes.extend(self.errors.iter().map(|e| format!("FAILED OPERATION: {e}")));
        Ok(ClusterResult {
            e2e,
            layers,
            attempted: self.attempted,
            failed: self.failed,
            notes,
        })
    }

    /// Counts a failed operation. It is not a failed check: the run goes
    /// on, the operation counts in `failed` and, for a read, beyond every
    /// percentile. Only wrong bytes, kinds or amounts fail checks.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// The live server whose chunk count is nearest the mean over live
    /// servers (lowest id on ties), so every cycle repairs about the
    /// same number of chunks whatever the seed.
    fn pick_victim(&self, dead: &[ServerId]) -> Result<ServerId, String> {
        let mut counts = [0usize; SERVERS];
        {
            let d = lock(&self.cl.dir);
            for m in self.files.iter().filter_map(|f| f.manifest.as_ref()) {
                for e in &m.stripes {
                    for &sid in d.servers_of(e.id).unwrap_or(&[]) {
                        counts[sid] += 1;
                    }
                }
            }
        }
        let live: Vec<ServerId> = (0..SERVERS).filter(|s| !dead.contains(s)).collect();
        let total: usize = live.iter().map(|&s| counts[s]).sum();
        let target = total as f64 / live.len() as f64;
        live.into_iter()
            .min_by(|&a, &b| {
                let da = (counts[a] as f64 - target).abs();
                let db = (counts[b] as f64 - target).abs();
                da.total_cmp(&db).then(a.cmp(&b))
            })
            .ok_or_else(|| "no live server to kill".into())
    }

    /// Data chunks on live servers, and every chunk on `victim`.
    fn chunk_sets(&self, dead: &[ServerId], victim: ServerId) -> (Vec<Loc>, Vec<Loc>) {
        let d = lock(&self.cl.dir);
        let mut live = Vec::new();
        let mut lost = Vec::new();
        for (file, f) in self.files.iter().enumerate() {
            let Some(m) = &f.manifest else { continue };
            for (idx, e) in m.stripes.iter().enumerate() {
                for (lane, &sid) in d.servers_of(e.id).unwrap_or(&[]).iter().enumerate() {
                    let loc = Loc {
                        file,
                        idx,
                        stripe: e.id,
                        lane: lane as u32,
                    };
                    if sid == victim {
                        lost.push(loc);
                    } else if lane < K && !dead.contains(&sid) {
                        live.push(loc);
                    }
                }
            }
        }
        (live, lost)
    }

    /// The expected bytes of a data chunk.
    fn expected(&self, loc: Loc) -> Vec<u8> {
        let cb = CHUNK_BYTES;
        let mut want = vec![0u8; cb];
        let offset = (loc.idx * K + loc.lane as usize) * cb;
        self.files[loc.file].bytes_at(offset, &mut want);
        want
    }

    /// Issues one cycle's reads: every direct read, then every degraded
    /// one, each block timed in process CPU as a whole (the CPU clock
    /// ticks in 10 ms) and each read in wall time. Inside a block a read
    /// costs the benchmark only a digest of what came back; comparing it
    /// with the regenerated bytes, and replaying, happen after the block.
    fn read_phase(
        &mut self,
        seq: &[(ReadClass, Loc)],
        reads: &mut [Samples; 2],
    ) -> Result<(), String> {
        let mut buf = Vec::new();
        let every = (self.shape.reads_degraded * CYCLES / REPLAYS).max(1);
        let mut replays = Vec::new();
        for class in [ReadClass::Direct, ReadClass::Degraded] {
            let block: Vec<Loc> = seq
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|&(_, l)| l)
                .collect();
            let mut wall = Vec::with_capacity(block.len());
            let mut served = Vec::with_capacity(block.len());
            let cpu = work_cpu_secs();
            for &loc in &block {
                let op = self.tracer.new_op();
                let span = self.tracer.begin(op, None, "read");
                let t = Instant::now();
                let out = self
                    .cl
                    .client
                    .read_data_chunk(loc.stripe, loc.lane, &mut buf);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                self.tracer.end(span);
                // A failed read sits beyond every percentile.
                wall.push(if out.is_ok() { ms } else { f64::INFINITY });
                served.push(out.map(|kind| (kind, chunk_digest(&buf))));
            }
            let cpu = work_cpu_secs() - cpu;
            let samples = &mut reads[class as usize];
            samples
                .cpu_per_read
                .push(cpu * 1e3 / block.len().max(1) as f64);
            samples.wall.push(wall);

            let want_kind = match class {
                ReadClass::Direct => ReadKind::Direct,
                ReadClass::Degraded => ReadKind::Degraded {
                    light: self.cl.light,
                },
            };
            let mut expected = std::collections::HashMap::new();
            for (i, (&loc, out)) in block.iter().zip(served).enumerate() {
                self.attempted += 1;
                match out {
                    Ok((kind, digest)) => {
                        let want = *expected
                            .entry((loc.stripe, loc.lane))
                            .or_insert_with(|| chunk_digest(&self.expected(loc)));
                        self.checks.expect(
                            kind == want_kind,
                            format!("{class:?} read served as {kind:?}"),
                        );
                        self.checks
                            .expect(digest == want, "read returns the written bytes");
                    }
                    Err(e) => {
                        self.fail(format!("{class:?} read of {loc:?}: {e}"));
                    }
                }
                if class == ReadClass::Degraded {
                    self.lookups += 1;
                    if (i + 1).is_multiple_of(every) {
                        replays.push(loc);
                    }
                }
            }
        }
        if self.tracer.on() {
            for loc in replays {
                self.replay_degraded(loc)?;
            }
        }
        Ok(())
    }

    /// Starts an agent and times it until no chunk is lost.
    fn repair_phase(&mut self, lost: usize) -> Result<(f64, f64, RepairStatsSnapshot), String> {
        let op = self.tracer.new_op();
        let span = self.tracer.begin(op, None, "repair");
        let t = Instant::now();
        // What the agent and the server handlers ran: the process's work
        // less this thread's scan loop.
        let cpu = || work_cpu_secs() - thread_cpu_secs();
        let cpu_start = cpu();
        let agent = RepairAgent::start(
            codecs::build(self.cl.code)?,
            Arc::clone(&self.cl.dir),
            self.cl.sessions.clone(),
            RepairAgentConfig {
                retry: retry(),
                ..RepairAgentConfig::new(CHUNK_BYTES)
            },
        )
        .map_err(|e| e.to_string())?;
        let mut scan = Vec::new();
        let done = loop {
            lock(&self.cl.dir).scan_lost(&mut scan);
            if scan.is_empty() {
                break true;
            }
            if t.elapsed() > REPAIR_TIMEOUT {
                break false;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let (secs, cpu) = (t.elapsed().as_secs_f64(), cpu() - cpu_start);
        self.tracer.end(span);
        // A worker counts a stripe only after its reassignment has
        // emptied the scan; give the counters a moment to catch up.
        let mut stats = agent.stats();
        let settle = Instant::now();
        while (stats.chunks_repaired < lost as u64 || stats.rounds == 0)
            && settle.elapsed() < Duration::from_secs(1)
        {
            std::thread::sleep(Duration::from_millis(1));
            stats = agent.stats();
        }
        agent.shutdown();
        self.attempted += 1;
        self.lookups += stats.light_repairs + stats.heavy_repairs;
        if done {
            self.checks.expect(
                stats.chunks_repaired == lost as u64,
                format!(
                    "agent repaired every lost chunk ({} of {lost})",
                    stats.chunks_repaired
                ),
            );
        } else {
            self.fail(format!(
                "repair of {lost} chunks did not finish within {REPAIR_TIMEOUT:?}"
            ));
        }
        let (light, heavy) = (stats.light_repairs, stats.heavy_repairs);
        self.checks.expect(
            if self.cl.light {
                heavy == 0
            } else {
                light == 0
            },
            format!(
                "every repair used the code's single-loss decoder ({light} light, {heavy} heavy)"
            ),
        );
        Ok((secs, cpu, stats))
    }

    fn servers_of(&self, stripe: u64) -> Result<Vec<ServerId>, String> {
        lock(&self.cl.dir)
            .servers_of(stripe)
            .map(<[ServerId]>::to_vec)
            .ok_or_else(|| format!("unknown stripe {stripe}"))
    }

    /// Fetches the lanes `session` reads into `scratch` under `parent`;
    /// returns how many it fetched.
    fn fetch_lanes(
        &mut self,
        op: u64,
        parent: SpanId,
        stripe: u64,
        session: &xorbas_core::RepairSession,
        scratch: &mut [Vec<u8>],
    ) -> Result<usize, String> {
        let servers = self.servers_of(stripe)?;
        let mut fetched = 0;
        for lane in 0..self.cl.n {
            let read = session.plan().tasks.iter().any(|t| t.reads.contains(&lane));
            if !read || session.missing().contains(&lane) {
                continue;
            }
            let conn = self.conns.get(servers[lane])?;
            let id = self.tracer.begin(op, Some(parent), "rpc.get");
            let got = conn.get_chunk(stripe, lane as u32, &mut scratch[lane]);
            self.tracer.end(id);
            got.map_err(|e| format!("replay fetch of lane {lane}: {e}"))?;
            fetched += 1;
        }
        Ok(fetched)
    }

    /// The stages a degraded read and a repair share: the session lookup,
    /// the fetch of the lanes its plan reads and the decode, each a child
    /// span of `root`. Returns the rebuilt stripe and the lanes fetched.
    fn rebuild(
        &mut self,
        op: u64,
        root: SpanId,
        stripe: u64,
        unavailable: &[usize],
        stages: [&'static str; 2],
    ) -> Result<(Vec<Vec<u8>>, usize), String> {
        let s = self.tracer.begin(op, Some(root), "session.lookup");
        let session = self
            .cl
            .sessions
            .get_or_compile(self.cl.client.codec(), unavailable);
        self.tracer.end(s);
        self.lookups += 1;
        let session = session.map_err(|e| e.to_string())?.ok_or("no session")?;
        let mut scratch = vec![vec![0u8; CHUNK_BYTES]; self.cl.n];
        let s = self.tracer.begin(op, Some(root), stages[0]);
        let fetched = self.fetch_lanes(op, s, stripe, &session, &mut scratch);
        self.tracer.end(s);
        let fetched = fetched?;
        let s = self.tracer.begin(op, Some(root), stages[1]);
        let repaired = (|| {
            let mut refs: Vec<&mut [u8]> = scratch.iter_mut().map(Vec::as_mut_slice).collect();
            let mut view = StripeViewMut::new(&mut refs, session.missing())?;
            session.repair(&mut view)
        })();
        self.tracer.end(s);
        repaired.map_err(|e| e.to_string())?;
        Ok((scratch, fetched))
    }

    /// Replays one degraded read of `loc` stage by stage.
    fn replay_degraded(&mut self, loc: Loc) -> Result<(), String> {
        let op = self.tracer.new_op();
        let root = self.tracer.begin(op, None, "read_degraded.replay");
        let mut unavailable = Vec::new();
        let s = self.tracer.begin(op, Some(root), "directory.lookup");
        let looked = lock(&self.cl.dir).unavailable_lanes(loc.stripe, &mut unavailable);
        self.tracer.end(s);
        looked.map_err(|e| e.to_string())?;
        let stages = ["read_degraded.fetch", "read_degraded.decode"];
        let (scratch, fetched) = self.rebuild(op, root, loc.stripe, &unavailable, stages)?;
        let mut out = Vec::new();
        let s = self.tracer.begin(op, Some(root), "read_degraded.copy");
        out.extend_from_slice(&scratch[loc.lane as usize]);
        self.tracer.end(s);
        self.tracer.end(root);
        self.degraded_fetches.push(fetched as f64);
        self.checks.expect(
            out == self.expected(loc),
            "degraded replay rebuilds the chunk",
        );
        Ok(())
    }

    /// Replays the repair of one lost chunk stage by stage. The rebuilt
    /// chunk goes to a replacement server under a stripe id the
    /// directory allocates for the replay; the reassignment is logged
    /// onto the lane's current server, so the directory's map is
    /// unchanged.
    fn replay_repair(&mut self, loc: Loc) -> Result<(), String> {
        let lane = loc.lane as usize;
        let op = self.tracer.new_op();
        let root = self.tracer.begin(op, None, "repair.replay");
        let stages = ["repair.fetch", "repair.decode"];
        let (mut scratch, _) = self.rebuild(op, root, loc.stripe, &[lane], stages)?;
        let payload = std::mem::take(&mut scratch[lane]);
        let s = self.tracer.begin(op, Some(root), "repair.digest");
        let digest = chunk_digest(&payload);
        self.tracer.end(s);
        let s = self.tracer.begin(op, Some(root), "directory.replace");
        let placed = {
            let mut d = lock(&self.cl.dir);
            d.choose_replacement(loc.stripe)
                .map(|sid| (sid, d.next_stripe_id()))
        };
        self.tracer.end(s);
        let (target, replay_stripe) = placed.map_err(|e| e.to_string())?;
        let conn = self.conns.get(target)?;
        let s = self.tracer.begin(op, Some(root), "repair.send");
        let id = self.tracer.begin(op, Some(s), "rpc.put");
        let sent = conn.put(replay_stripe, loc.lane, digest, &payload);
        self.tracer.end(id);
        self.tracer.end(s);
        sent.map_err(|e| e.to_string())?;
        let current = self.servers_of(loc.stripe)?[lane];
        let s = self.tracer.begin(op, Some(root), "directory.reassign");
        let logged = lock(&self.cl.dir).reassign(loc.stripe, loc.lane, current);
        self.tracer.end(s);
        self.tracer.end(root);
        logged.map_err(|e| e.to_string())?;
        // The rebuilt chunk equals what the agent stored.
        let mut stored = Vec::new();
        let got = self
            .conns
            .get(current)?
            .get_chunk(loc.stripe, loc.lane, &mut stored);
        self.checks.expect(
            got.is_ok() && stored == payload,
            "repair replay rebuilds the chunk the agent stored",
        );
        Ok(())
    }

    /// Replays the put of file `f` stage by stage onto stripes the
    /// directory allocates for the replay.
    fn replay_put(&mut self, f: usize) -> Result<(), String> {
        let cb = CHUNK_BYTES;
        let data = self.files[f].bytes();
        let stripes = data.len().div_ceil(K * cb);
        let op = self.tracer.new_op();
        let root = self.tracer.begin(op, None, "put.replay");
        let n = self.cl.n;
        let mut lanes = vec![vec![0u8; cb]; n];
        let mut digests = vec![0u64; n];
        let mut entries = Vec::new();
        for idx in 0..stripes {
            let s = self.tracer.begin(op, Some(root), "put.fill");
            for (lane, buf) in lanes.iter_mut().take(K).enumerate() {
                let start = ((idx * K + lane) * cb).min(data.len());
                let end = (start + cb).min(data.len());
                buf[..end - start].copy_from_slice(&data[start..end]);
                buf[end - start..].fill(0);
            }
            self.tracer.end(s);
            let s = self.tracer.begin(op, Some(root), "put.encode");
            let encoded = {
                let (d, p) = lanes.split_at_mut(K);
                let d: Vec<&[u8]> = d.iter().map(Vec::as_slice).collect();
                let mut p: Vec<&mut [u8]> = p.iter_mut().map(Vec::as_mut_slice).collect();
                self.cl.client.codec().encode_into(&d, &mut p)
            };
            self.tracer.end(s);
            encoded.map_err(|e| e.to_string())?;
            let s = self.tracer.begin(op, Some(root), "put.digest");
            for (d, lane) in digests.iter_mut().zip(&lanes) {
                *d = chunk_digest(lane);
            }
            self.tracer.end(s);
            let s = self.tracer.begin(op, Some(root), "directory.place");
            let placed = lock(&self.cl.dir)
                .place_stripe(n)
                .map(|(id, servers)| (id, servers.to_vec()));
            self.tracer.end(s);
            let (id, servers) = placed.map_err(|e| e.to_string())?;
            let s = self.tracer.begin(op, Some(root), "put.send");
            for lane in 0..n {
                let conn = self.conns.get(servers[lane])?;
                let r = self.tracer.begin(op, Some(s), "rpc.put");
                let sent = conn.put(id, lane as u32, digests[lane], &lanes[lane]);
                self.tracer.end(r);
                sent.map_err(|e| e.to_string())?;
            }
            self.tracer.end(s);
            entries.push(xorbas_node::manifest::StripeEntry { id, servers });
        }
        let manifest = Manifest {
            spec: self.cl.code,
            chunk_bytes: cb as u64,
            file_len: data.len() as u64,
            stripes: entries,
        };
        let s = self.tracer.begin(op, Some(root), "directory.log_manifest");
        let logged = lock(&self.cl.dir).log_manifest(&manifest);
        self.tracer.end(s);
        self.tracer.end(root);
        logged.map_err(|e| e.to_string())?;
        self.replayed_put_stripes += stripes;
        Ok(())
    }
}

impl Run<'_> {
    /// The per-layer figures: standalone probes of the chunk store, the
    /// digest and the framing, plus the replay spans.
    fn layer_metrics(
        &mut self,
        layers: &mut Vec<Metric>,
        notes: &mut Vec<String>,
        inp: LayerInputs,
    ) -> Result<(), String> {
        let cb = CHUNK_BYTES;
        let store =
            ChunkStore::open(&self.cl.root.join("probe-store")).map_err(|e| e.to_string())?;
        let mut payload = vec![0u8; cb];
        rng::fill_bytes(0x57_0BE, 0, &mut payload);
        let digest = chunk_digest(&payload);
        let (mut put, mut get, mut dig, mut frame) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut out = Vec::new();
        let mut wire = Vec::with_capacity(cb + 64);
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
        for i in 0..PROBE_REPS as u64 {
            let t = Instant::now();
            store
                .put(i, 0, digest, &payload)
                .map_err(|e| e.to_string())?;
            put.push(ms(t));
            let t = Instant::now();
            store.get_into(i, 0, &mut out).map_err(|e| e.to_string())?;
            get.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(chunk_digest(std::hint::black_box(&payload)));
            dig.push(ms(t));
            let t = Instant::now();
            wire.clear();
            write_put(&mut wire, i, 0, digest, &payload).map_err(|e| e.to_string())?;
            std::hint::black_box(&wire);
            frame.push(ms(t));
        }
        self.checks
            .expect(out == payload, "chunk store returns what it stored");
        let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
        let gibps = |ms: f64| crate::host::gib(cb) / (ms / 1e3);
        let (store_put, store_get, digest_ms) = (med(&put), med(&get), med(&dig));
        let rpc_put = med(&self.tracer.durations("rpc.put"));
        let rpc_get = med(&self.tracer.durations("rpc.get"));

        let stage_sums =
            |root: &str| -> (Vec<f64>, Vec<f64>) { self.tracer.coverage(root).into_iter().unzip() };
        let (_, put_stages) = stage_sums("put.replay");
        let put_wall = inp.put_total * 1e3 / inp.stripes as f64;
        let put_stage = put_stages.iter().sum::<f64>() / self.replayed_put_stripes.max(1) as f64;
        let (_, read_stages) = stage_sums("read_degraded.replay");
        let read_stage = med(&read_stages);
        let repair_stripes = inp.repair.light_repairs + inp.repair.heavy_repairs;
        let repair_wall = inp.repair_secs * 1e3 / repair_stripes.max(1) as f64;
        let (_, repair_stages) = stage_sums("repair.replay");
        let repair_stage = stats::mean(&repair_stages).unwrap_or(f64::NAN);
        let compiled = self.cl.sessions.len() as f64;
        let fetched = stats::mean(&self.degraded_fetches).unwrap_or(f64::NAN);
        self.checks.expect(
            self.degraded_fetches
                .iter()
                .all(|&f| f == self.cl.reads_per_loss as f64),
            format!(
                "every degraded-read replay fetched exactly {} lanes",
                self.cl.reads_per_loss
            ),
        );

        notes.push(format!(
            "coverage put: stage sum {put_stage:.3} ms/stripe over {} replayed stripes / wall {put_wall:.3} ms/stripe over {} put stripes",
            self.replayed_put_stripes, inp.stripes
        ));
        notes.push(format!(
            "coverage read_degraded: median stage sum {read_stage:.3} ms over {} replays / traced degraded p50 {:.3} ms",
            read_stages.len(),
            inp.degraded_p50
        ));
        notes.push(format!(
            "coverage repair: mean stage sum {repair_stage:.3} ms over {} replays / agent wall {repair_wall:.3} ms/stripe over {repair_stripes} stripes",
            repair_stages.len()
        ));
        for stage in [
            "put.fill",
            "put.encode",
            "put.digest",
            "directory.place",
            "put.send",
            "directory.log_manifest",
            "directory.lookup",
            "session.lookup",
            "read_degraded.fetch",
            "read_degraded.decode",
            "read_degraded.copy",
            "repair.fetch",
            "repair.decode",
            "repair.digest",
            "directory.replace",
            "repair.send",
            "directory.reassign",
            "rpc.put",
            "rpc.get",
        ] {
            let d = self.tracer.durations(stage);
            notes.push(format!(
                "stage {stage}: n {}, median {:.4} ms",
                d.len(),
                med(&d)
            ));
        }

        let r = inp.repair;
        layers.extend([
            Metric::new("protocol.digest_gibps", "GiB/s", gibps(digest_ms)),
            Metric::new("protocol.frame_gibps", "GiB/s", gibps(med(&frame))),
            Metric::new("chunk_store.put_ms", "ms", store_put),
            Metric::new("chunk_store.get_ms", "ms", store_get),
            Metric::new("rpc.put_ms", "ms", rpc_put),
            Metric::new("rpc.get_ms", "ms", rpc_get),
            Metric::new("rpc.overhead_ms.put", "ms", rpc_put - store_put),
            Metric::new("rpc.overhead_ms.get", "ms", rpc_get - store_get - digest_ms),
            Metric::new(
                "directory.place_us",
                "us",
                med(&self.tracer.durations("directory.place")) * 1e3,
            ),
            Metric::new(
                "directory.log_manifest_ms",
                "ms",
                med(&self.tracer.durations("directory.log_manifest")),
            ),
            Metric::new("directory.wal_bytes_per_stripe", "B", inp.wal_per_stripe),
            Metric::new("put.wall_ms_per_stripe", "ms", put_wall),
            Metric::new("put.stage_sum_ms_per_stripe", "ms", put_stage),
            Metric::new("put.stage_coverage", "x", put_stage / put_wall),
            Metric::new("read_degraded.lanes_fetched", "count", fetched),
            Metric::new(
                "read_degraded.stage_coverage",
                "x",
                read_stage / inp.degraded_p50,
            ),
            Metric::new("sessions.compiled", "count", compiled),
            Metric::new(
                "sessions.hit_ratio",
                "x",
                1.0 - compiled / self.lookups.max(1) as f64,
            ),
            Metric::new("repair.stripes", "count", repair_stripes as f64),
            Metric::new("repair.chunks", "count", r.chunks_repaired as f64),
            Metric::new("repair.bytes_fetched", "B", r.bytes_fetched as f64),
            Metric::new("repair.bytes_written", "B", r.bytes_written as f64),
            Metric::new("repair.failed_attempts", "count", r.failed_attempts as f64),
            Metric::new("repair.rounds", "count", r.rounds as f64),
            Metric::new("repair.wall_ms_per_stripe", "ms", repair_wall),
            Metric::new("repair.stage_sum_ms_per_stripe", "ms", repair_stage),
            Metric::new("repair.stage_coverage", "x", repair_stage / repair_wall),
        ]);
        Ok(())
    }
}

fn wal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn add_stats(a: RepairStatsSnapshot, b: RepairStatsSnapshot) -> RepairStatsSnapshot {
    RepairStatsSnapshot {
        chunks_repaired: a.chunks_repaired + b.chunks_repaired,
        light_repairs: a.light_repairs + b.light_repairs,
        heavy_repairs: a.heavy_repairs + b.heavy_repairs,
        bytes_fetched: a.bytes_fetched + b.bytes_fetched,
        bytes_written: a.bytes_written + b.bytes_written,
        failed_attempts: a.failed_attempts + b.failed_attempts,
        rounds: a.rounds + b.rounds,
        ..a
    }
}

//! Loopback load generator for the xorbas-node prototype.
//!
//! Boots N chunk servers in one process (distinct data dirs), streams
//! erasure-coded files through [`ClusterClient`], then hammers reads
//! with a configurable write mix while (optionally) killing a server
//! mid-run. Reports aggregate put throughput, read latency
//! percentiles (p50/p99/p999), degraded-read counts, repair
//! convergence, and — the paper's headline — the bytes a single-chunk
//! repair moves under LRC versus RS.
//!
//! ```text
//! cargo run --release -p xorbas_node --bin load_gen -- \
//!     --servers 5 --spec both --chunk-kib 1024 --files 2 \
//!     --file-mib 64 --ops 400 --json BENCH_PR7.json
//! ```
//!
//! Exit code 0 means every acceptance check passed: zero failed reads
//! across the kill, bit-identical files after repair, and full
//! redundancy restored.

use std::error::Error;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xorbas_core::{CodeSpec, CodecInstance, LrcSpec};
use xorbas_node::client::ReadKind;
use xorbas_node::repair::ScrubConfig;
use xorbas_node::{
    fault, ChunkServer, ClusterClient, Directory, FaultPlan, Manifest, NodeError, RepairAgent,
    RepairAgentConfig, RepairStatsSnapshot, RetryPolicy, ServerConfig, Site,
};
use xorbas_sim::{PercentileSummary, Percentiles};

type AnyError = Box<dyn Error>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecChoice {
    Lrc,
    Rs,
    Both,
}

#[derive(Debug, Clone)]
struct Args {
    servers: usize,
    racks: usize,
    spec: SpecChoice,
    chunk_kib: usize,
    files: usize,
    file_mib: usize,
    ops: usize,
    write_mix_pct: u32,
    kill: bool,
    json: Option<PathBuf>,
    seed: u64,
    /// Where server data dirs live. Point at a tmpfs (e.g. /dev/shm)
    /// to benchmark the stack instead of the disk.
    data_root: PathBuf,
    /// Chaos mode: run put/get under a seeded fault plan with a
    /// mid-run kill, one server restart, and a WAL-backed directory.
    chaos: bool,
    /// How many chaos runs (seeds `seed..seed+N`) to execute.
    chaos_runs: usize,
    /// Budget one read call may spend before it counts as stuck.
    deadline_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            servers: 5,
            racks: 5,
            spec: SpecChoice::Lrc,
            chunk_kib: 1024,
            files: 2,
            file_mib: 64,
            ops: 400,
            write_mix_pct: 10,
            kill: true,
            json: None,
            seed: 20130826, // the VLDB'13 proceedings date
            data_root: std::env::temp_dir(),
            chaos: false,
            chaos_runs: 1,
            deadline_ms: 5000,
        }
    }
}

const USAGE: &str = "usage: load_gen [--servers N] [--racks N] [--spec lrc|rs|both] \
[--chunk-kib N] [--files N] [--file-mib N] [--ops N] [--write-mix PCT] \
[--no-kill] [--json PATH] [--seed N] [--data-root DIR] \
[--chaos] [--chaos-runs N] [--deadline-ms N]";

fn parse_args() -> Result<Args, AnyError> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| -> Result<String, AnyError> {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}").into())
        };
        match flag.as_str() {
            "--servers" => args.servers = take("--servers")?.parse()?,
            "--racks" => args.racks = take("--racks")?.parse()?,
            "--spec" => {
                args.spec = match take("--spec")?.as_str() {
                    "lrc" => SpecChoice::Lrc,
                    "rs" => SpecChoice::Rs,
                    "both" => SpecChoice::Both,
                    other => return Err(format!("unknown spec `{other}`\n{USAGE}").into()),
                }
            }
            "--chunk-kib" => args.chunk_kib = take("--chunk-kib")?.parse()?,
            "--files" => args.files = take("--files")?.parse()?,
            "--file-mib" => args.file_mib = take("--file-mib")?.parse()?,
            "--ops" => args.ops = take("--ops")?.parse()?,
            "--write-mix" => args.write_mix_pct = take("--write-mix")?.parse()?,
            "--no-kill" => args.kill = false,
            "--kill" => args.kill = true,
            "--json" => args.json = Some(PathBuf::from(take("--json")?)),
            "--seed" => args.seed = take("--seed")?.parse()?,
            "--data-root" => args.data_root = PathBuf::from(take("--data-root")?),
            "--chaos" => args.chaos = true,
            "--chaos-runs" => args.chaos_runs = take("--chaos-runs")?.parse()?,
            "--deadline-ms" => args.deadline_ms = take("--deadline-ms")?.parse()?,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}").into()),
        }
    }
    if args.servers == 0 || args.files == 0 || args.chunk_kib == 0 {
        return Err(format!("--servers, --files and --chunk-kib must be positive\n{USAGE}").into());
    }
    args.racks = args.racks.clamp(1, args.servers);
    Ok(args)
}

/// Deterministic data: a splitmix64 stream keyed by `seed`, so a file
/// can be regenerated for bit-identity checks instead of kept resident.
fn fill_deterministic(seed: u64, len: usize, out: &mut Vec<u8>) {
    out.resize(len, 0);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut chunks = out.chunks_exact_mut(8);
    for slot in &mut chunks {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        slot.copy_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    let tail = chunks.into_remainder();
    for (i, b) in tail.iter_mut().enumerate() {
        *b = (state >> (8 * (i % 8))) as u8;
    }
}

/// Cheap deterministic op-mixer (xorshift64*).
struct MiniRng(u64);

impl MiniRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

struct Cluster {
    servers: Vec<ChunkServer>,
    dirs: Vec<PathBuf>,
    directory: Arc<Mutex<Directory>>,
}

fn boot_cluster(args: &Args, tag: &str) -> Result<Cluster, AnyError> {
    let mut servers = Vec::with_capacity(args.servers);
    let mut dirs = Vec::with_capacity(args.servers);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(args.servers);
    for i in 0..args.servers {
        let dir = args
            .data_root
            .join(format!("xorbas_loadgen_{}_{tag}_{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = ChunkServer::start(ServerConfig::new(dir.clone()))?;
        addrs.push(server.addr());
        servers.push(server);
        dirs.push(dir);
    }
    let directory = Arc::new(Mutex::new(Directory::new(&addrs, args.racks, args.seed)));
    Ok(Cluster {
        servers,
        dirs,
        directory,
    })
}

#[derive(Debug, Default)]
struct SpecResult {
    name: String,
    user_bytes: u64,
    aggregate_bytes: u64,
    /// Bytes stored during the timed put phase only (write-mix ops in
    /// the read phase count toward `aggregate_bytes` but not here).
    put_phase_bytes: u64,
    put_secs: f64,
    read_ops: u64,
    write_ops: u64,
    direct_reads: u64,
    degraded_reads: u64,
    degraded_light: u64,
    failed_reads: u64,
    read_latency_us: PercentileSummary,
    write_latency_us: PercentileSummary,
    killed_server: Option<usize>,
    repair_converged: bool,
    repair_secs: f64,
    repair: RepairStatsSnapshot,
    bit_identical: bool,
    single_loss_bytes_fetched: u64,
    single_loss_light: bool,
}

impl SpecResult {
    fn put_gibps_aggregate(&self) -> f64 {
        if self.put_secs <= 0.0 {
            return 0.0;
        }
        self.put_phase_bytes as f64 / self.put_secs / (1u64 << 30) as f64
    }

    fn passed(&self) -> bool {
        self.failed_reads == 0 && self.repair_converged && self.bit_identical
    }
}

fn spec_for(choice: SpecChoice) -> (CodeSpec, &'static str) {
    match choice {
        SpecChoice::Rs => (CodeSpec::ReedSolomon { k: 10, m: 4 }, "rs_10_4"),
        _ => (CodeSpec::Lrc(LrcSpec::XORBAS), "lrc_10_6_5"),
    }
}

fn run_spec(args: &Args, choice: SpecChoice) -> Result<SpecResult, AnyError> {
    let (spec, name) = spec_for(choice);
    let chunk_bytes = args.chunk_kib * 1024;
    let k = spec.data_blocks();
    let n = spec.total_blocks();

    let cluster = boot_cluster(args, name)?;
    let sessions = xorbas_node::client::SessionCache::default();
    let mut client = ClusterClient::new(
        CodecInstance::build(spec)?,
        chunk_bytes,
        Arc::clone(&cluster.directory),
        RetryPolicy::default(),
        sessions.clone(),
    );

    let mut result = SpecResult {
        name: name.into(),
        ..SpecResult::default()
    };

    // ---- Put phase: stream `files` files, encode pipelined. --------
    let file_len = args.file_mib << 20;
    let mut data = Vec::new();
    let mut manifests = Vec::with_capacity(args.files);
    let mut file_seeds = Vec::with_capacity(args.files);
    for file_idx in 0..args.files {
        let seed = args.seed ^ ((file_idx as u64 + 1) << 32);
        fill_deterministic(seed, file_len, &mut data);
        // Time the storage stack only, not the data generator.
        let put_start = Instant::now();
        let manifest = client.put(&data)?;
        result.put_secs += put_start.elapsed().as_secs_f64();
        let stored = manifest.stripes.len() as u64 * n as u64 * chunk_bytes as u64;
        result.put_phase_bytes += stored;
        result.aggregate_bytes += stored;
        result.user_bytes += file_len as u64;
        file_seeds.push(seed);
        manifests.push(manifest);
    }

    // ---- Read phase with mid-run kill and a write mix. -------------
    let agent = RepairAgent::start(
        CodecInstance::build(spec)?,
        Arc::clone(&cluster.directory),
        sessions.clone(),
        RepairAgentConfig::new(chunk_bytes),
    )?;

    let mut stripe_index: Vec<u64> = Vec::new();
    for m in &manifests {
        stripe_index.extend(m.stripes.iter().map(|s| s.id));
    }
    let mut rng = MiniRng(args.seed | 1);
    let mut read_lat = Percentiles::new();
    let mut write_lat = Percentiles::new();
    let mut buf = Vec::new();
    let kill_at = if args.kill { args.ops / 2 } else { usize::MAX };
    let victim = args.servers - 1;

    for op in 0..args.ops {
        if op == kill_at {
            cluster.servers[victim].kill();
            result.killed_server = Some(victim);
        }
        let is_write =
            rng.below(100) < args.write_mix_pct as u64 && args.write_mix_pct > 0 && op != kill_at;
        if is_write {
            // A one-stripe file: the smallest full-width put.
            let seed = args.seed ^ 0xABCD ^ ((result.write_ops + 1) << 40);
            fill_deterministic(seed, k * chunk_bytes, &mut data);
            let t0 = Instant::now();
            let manifest = client.put(&data)?;
            write_lat.record(t0.elapsed().as_secs_f64() * 1e6);
            result.aggregate_bytes += manifest.stripes.len() as u64 * n as u64 * chunk_bytes as u64;
            result.user_bytes += (k * chunk_bytes) as u64;
            stripe_index.extend(manifest.stripes.iter().map(|s| s.id));
            file_seeds.push(seed);
            manifests.push(manifest);
            result.write_ops += 1;
            continue;
        }
        let stripe = stripe_index[rng.below(stripe_index.len() as u64) as usize];
        let lane = rng.below(k as u64) as u32;
        let t0 = Instant::now();
        match client.read_data_chunk(stripe, lane, &mut buf) {
            Ok(ReadKind::Direct) => result.direct_reads += 1,
            Ok(ReadKind::Degraded { light }) => {
                result.degraded_reads += 1;
                result.degraded_light += u64::from(light);
            }
            Err(_) => result.failed_reads += 1,
        }
        read_lat.record(t0.elapsed().as_secs_f64() * 1e6);
        result.read_ops += 1;
    }
    result.read_latency_us = read_lat.summary();
    result.write_latency_us = write_lat.summary();

    // ---- Repair convergence. ---------------------------------------
    let repair_start = Instant::now();
    result.repair_converged = agent.wait_until_repaired(Duration::from_secs(120));
    result.repair_secs = repair_start.elapsed().as_secs_f64();

    // ---- Bit-identity: every file reads back exactly. --------------
    let mut expected = Vec::new();
    let mut got = Vec::new();
    result.bit_identical = true;
    for (manifest, &seed) in manifests.iter().zip(&file_seeds) {
        fill_deterministic(seed, manifest.file_len as usize, &mut expected);
        client.get(manifest, &mut got)?;
        if got != expected {
            result.bit_identical = false;
        }
    }

    // ---- Single-loss repair traffic (the LRC-vs-RS headline). ------
    if let Some(first) = stripe_index.first().copied() {
        let before = agent.stats();
        {
            let mut d = cluster
                .directory
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            d.report_corrupt(first, 0);
        }
        if agent.wait_until_repaired(Duration::from_secs(30)) {
            let after = agent.stats();
            result.single_loss_bytes_fetched = after.bytes_fetched - before.bytes_fetched;
            result.single_loss_light = after.light_repairs > before.light_repairs;
        }
    }

    result.repair = agent.stats();

    // ---- Teardown (agent first, so server exit isn't "failure"). ---
    agent.shutdown();
    for server in cluster.servers {
        server.shutdown();
    }
    for dir in &cluster.dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(result)
}

// ---------------------------------------------------------------------
// Chaos mode: the same put/get traffic, but under an armed fault plan,
// with a WAL-backed directory, a mid-run kill AND restart, every read
// verified byte-for-byte, and every read call held to a deadline.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ChaosResult {
    seed: u64,
    read_ops: u64,
    write_ops: u64,
    direct_reads: u64,
    degraded_reads: u64,
    degraded_light: u64,
    retried_reads: u64,
    failed_reads: u64,
    /// Reads that returned bytes differing from the regenerated truth.
    corrupt_reads: u64,
    /// Read calls whose single invocation blew the `--deadline-ms` budget.
    deadline_misses: u64,
    put_retries: u64,
    killed_server: Option<usize>,
    restarted: bool,
    repair_converged: bool,
    bit_identical: bool,
    injected: Vec<(&'static str, u64, u64)>,
    repair: RepairStatsSnapshot,
    wal_replayed_manifests: u64,
}

impl ChaosResult {
    fn passed(&self) -> bool {
        self.failed_reads == 0
            && self.corrupt_reads == 0
            && self.deadline_misses == 0
            && self.repair_converged
            && self.bit_identical
    }
}

fn dir_lock(d: &Arc<Mutex<Directory>>) -> std::sync::MutexGuard<'_, Directory> {
    d.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The fault mix a chaos run arms: every site lit, rates chosen so a
/// few-hundred-op run sees each failure mode several times while the
/// cluster still converges.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(Site::ConnectRefuse, 20)
        .with(Site::ServeReset, 12)
        .with_param(Site::ServeStall, 8, 40)
        .with(Site::TornWrite, 12)
        .with(Site::BitFlip, 25)
        .with(Site::CrashPut, 6)
        .with(Site::CrashRepair, 30)
}

/// Puts with retry: an injected crash (or a put that lost its race
/// with a dying server) is retried; only an `Ok` counts as the ack.
fn put_acked(
    client: &mut ClusterClient,
    data: &[u8],
    retries: &mut u64,
) -> Result<Manifest, NodeError> {
    let mut last = NodeError::Malformed("put never attempted");
    for _ in 0..10 {
        match client.put(data) {
            Ok(m) => return Ok(m),
            Err(e) => {
                *retries += 1;
                last = e;
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    Err(last)
}

fn run_chaos(args: &Args, run_idx: usize) -> Result<ChaosResult, AnyError> {
    let seed = args.seed + run_idx as u64;
    let spec = CodeSpec::Lrc(LrcSpec::XORBAS);
    let chunk_bytes = args.chunk_kib * 1024;
    let k = spec.data_blocks();

    let root = args
        .data_root
        .join(format!("xorbas_chaos_{}_{run_idx}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Boot servers; slots are Options so the victim can be replaced.
    let mut servers: Vec<Option<ChunkServer>> = Vec::with_capacity(args.servers);
    let mut dirs = Vec::with_capacity(args.servers);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(args.servers);
    for i in 0..args.servers {
        let dir = root.join(format!("srv{i}"));
        let server = ChunkServer::start(ServerConfig::new(dir.clone()))?;
        addrs.push(server.addr());
        servers.push(Some(server));
        dirs.push(dir);
    }

    // Crash-safe directory: placements, repairs, corruption reports and
    // manifests all land in the WAL before they are acknowledged.
    let wal_path = root.join("directory.wal");
    let (directory, prior) = Directory::open_persistent(&wal_path, &addrs, args.racks, seed)?;
    let directory = Arc::new(Mutex::new(directory));

    // Keep the Arc: counters are read from it after disarm.
    let plan = fault::arm(chaos_plan(seed));

    let sessions = xorbas_node::client::SessionCache::default();
    let mut client = ClusterClient::new(
        CodecInstance::build(spec)?,
        chunk_bytes,
        Arc::clone(&directory),
        RetryPolicy::default(),
        sessions.clone(),
    );

    let mut result = ChaosResult {
        seed,
        wal_replayed_manifests: prior.len() as u64,
        ..ChaosResult::default()
    };

    // ---- Put phase: acked files stay resident for verification. ----
    let file_len = args.file_mib << 20;
    let mut file_data: Vec<Vec<u8>> = Vec::new();
    let mut manifests: Vec<Manifest> = Vec::new();
    for file_idx in 0..args.files {
        let fseed = seed ^ ((file_idx as u64 + 1) << 32);
        let mut data = Vec::new();
        fill_deterministic(fseed, file_len, &mut data);
        let manifest = put_acked(&mut client, &data, &mut result.put_retries)?;
        file_data.push(data);
        manifests.push(manifest);
    }

    // Scrubber + repair agent over every store, including the victim's.
    let mut agent_cfg = RepairAgentConfig::new(chunk_bytes);
    agent_cfg.probe_rounds = 4;
    agent_cfg.scrub = Some(ScrubConfig::new(
        dirs.iter().cloned().enumerate().collect::<Vec<_>>(),
    ));
    let agent = RepairAgent::start(
        CodecInstance::build(spec)?,
        Arc::clone(&directory),
        sessions.clone(),
        agent_cfg,
    )?;

    // (file index, stripe position, stripe id) for every acked stripe.
    let mut stripe_meta: Vec<(usize, usize, u64)> = Vec::new();
    for (fi, m) in manifests.iter().enumerate() {
        for (pos, s) in m.stripes.iter().enumerate() {
            stripe_meta.push((fi, pos, s.id));
        }
    }

    let mut rng = MiniRng(seed | 1);
    let mut buf = Vec::new();
    let mut expect = Vec::new();
    let deadline = Duration::from_millis(args.deadline_ms.max(100));
    let kill_at = args.ops * 2 / 5;
    let restart_at = args.ops * 7 / 10;
    let victim = args.servers - 1;

    for op in 0..args.ops {
        if op == kill_at {
            if let Some(s) = servers[victim].as_ref() {
                s.kill();
            }
            result.killed_server = Some(victim);
        }
        if op == restart_at {
            // Restart the victim on the same data dir: a new ephemeral
            // port, so the roster learns the address before revival.
            drop(servers[victim].take());
            let server = ChunkServer::start(ServerConfig::new(dirs[victim].clone()))?;
            {
                let mut d = dir_lock(&directory);
                d.set_addr(victim, server.addr());
                d.mark_alive(victim);
            }
            servers[victim] = Some(server);
            result.restarted = true;
        }

        let is_write = args.write_mix_pct > 0
            && rng.below(100) < args.write_mix_pct as u64
            && op != kill_at
            && op != restart_at;
        if is_write {
            let fseed = seed ^ 0xABCD ^ ((result.write_ops + 1) << 40);
            let mut data = Vec::new();
            fill_deterministic(fseed, k * chunk_bytes, &mut data);
            let manifest = put_acked(&mut client, &data, &mut result.put_retries)?;
            let fi = file_data.len();
            for (pos, s) in manifest.stripes.iter().enumerate() {
                stripe_meta.push((fi, pos, s.id));
            }
            file_data.push(data);
            manifests.push(manifest);
            result.write_ops += 1;
            continue;
        }

        let (fi, pos, stripe) = stripe_meta[rng.below(stripe_meta.len() as u64) as usize];
        let lane = rng.below(k as u64) as u32;
        let op_start = Instant::now();
        let mut served = None;
        loop {
            let t0 = Instant::now();
            let res = client.read_data_chunk(stripe, lane, &mut buf);
            if t0.elapsed() > deadline {
                result.deadline_misses += 1;
            }
            match res {
                Ok(kind) => {
                    served = Some(kind);
                    break;
                }
                Err(_) => {
                    if op_start.elapsed() >= deadline {
                        break;
                    }
                    result.retried_reads += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        match served {
            Some(ReadKind::Direct) => result.direct_reads += 1,
            Some(ReadKind::Degraded { light }) => {
                result.degraded_reads += 1;
                result.degraded_light += u64::from(light);
            }
            None => {
                result.failed_reads += 1;
                result.read_ops += 1;
                continue;
            }
        }
        // Byte-for-byte verification against the kept file contents:
        // the chunk is the file slice at (pos*k + lane), zero-padded.
        let file = &file_data[fi];
        let off = (pos * k + lane as usize) * chunk_bytes;
        expect.clear();
        expect.resize(buf.len(), 0);
        if off < file.len() {
            let take = (file.len() - off).min(buf.len());
            expect[..take].copy_from_slice(&file[off..off + take]);
        }
        if buf != expect {
            result.corrupt_reads += 1;
        }
        result.read_ops += 1;
    }

    // ---- Quiesce: stop injecting, let scrub + repair drain. --------
    fault::disarm();
    let cycles0 = agent.stats().scrub_cycles;
    let scrub_wait = Instant::now() + Duration::from_secs(60);
    while agent.stats().scrub_cycles < cycles0 + 2 && Instant::now() < scrub_wait {
        std::thread::sleep(Duration::from_millis(10));
    }
    result.repair_converged = agent.wait_until_repaired(Duration::from_secs(120));

    // ---- Every acked file must read back bit-identical. ------------
    let mut got = Vec::new();
    result.bit_identical = true;
    for (m, data) in manifests.iter().zip(&file_data) {
        client.get(m, &mut got)?;
        if &got != data {
            result.bit_identical = false;
        }
    }

    result.repair = agent.stats();
    result.injected = plan.counters().to_vec();

    agent.shutdown();
    for server in servers.into_iter().flatten() {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(result)
}

fn chaos_json(r: &ChaosResult) -> String {
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\"seed\":{},\"read_ops\":{},\"write_ops\":{},\"direct_reads\":{},\
         \"degraded_reads\":{},\"degraded_light\":{},\"retried_reads\":{},\"failed_reads\":{},\
         \"corrupt_reads\":{},\"deadline_misses\":{},\"put_retries\":{},",
        r.seed,
        r.read_ops,
        r.write_ops,
        r.direct_reads,
        r.degraded_reads,
        r.degraded_light,
        r.retried_reads,
        r.failed_reads,
        r.corrupt_reads,
        r.deadline_misses,
        r.put_retries,
    );
    let killed = r
        .killed_server
        .map_or("null".to_string(), |v| v.to_string());
    let _ = write!(
        j,
        "\"killed_server\":{killed},\"restarted\":{},\"wal_replayed_manifests\":{},\
         \"repair_converged\":{},\"chunks_repaired\":{},\"light_repairs\":{},\
         \"heavy_repairs\":{},\"failed_repair_attempts\":{},\"scrub_cycles\":{},\
         \"scrub_chunks\":{},\"scrub_bytes\":{},\"scrub_corruptions\":{},\
         \"bit_identical\":{},\"injected\":{{",
        r.restarted,
        r.wal_replayed_manifests,
        r.repair_converged,
        r.repair.chunks_repaired,
        r.repair.light_repairs,
        r.repair.heavy_repairs,
        r.repair.failed_attempts,
        r.repair.scrub_cycles,
        r.repair.scrub_chunks,
        r.repair.scrub_bytes,
        r.repair.scrub_corruptions,
        r.bit_identical,
    );
    for (i, (site, calls, fired)) in r.injected.iter().enumerate() {
        if i > 0 {
            j.push(',');
        }
        let _ = write!(j, "\"{site}\":{{\"calls\":{calls},\"fired\":{fired}}}");
    }
    let _ = write!(j, "}},\"passed\":{}}}", r.passed());
    j
}

fn print_chaos_summary(r: &ChaosResult) {
    println!("== chaos seed {} ==", r.seed);
    println!(
        "  reads: {} ops ({} direct, {} degraded [{} light], {} retried, {} failed, \
         {} corrupt, {} deadline misses)",
        r.read_ops,
        r.direct_reads,
        r.degraded_reads,
        r.degraded_light,
        r.retried_reads,
        r.failed_reads,
        r.corrupt_reads,
        r.deadline_misses,
    );
    println!(
        "  writes: {} ops, {} put retries; kill={:?} restarted={}",
        r.write_ops, r.put_retries, r.killed_server, r.restarted
    );
    println!(
        "  repair: converged={} ({} chunks, {} light / {} heavy, {} failed attempts)",
        r.repair_converged,
        r.repair.chunks_repaired,
        r.repair.light_repairs,
        r.repair.heavy_repairs,
        r.repair.failed_attempts,
    );
    println!(
        "  scrub: {} cycles, {} chunks, {:.1} MiB, {} corruptions flagged",
        r.repair.scrub_cycles,
        r.repair.scrub_chunks,
        r.repair.scrub_bytes as f64 / (1 << 20) as f64,
        r.repair.scrub_corruptions,
    );
    let mut fired = String::new();
    for (site, _, f) in &r.injected {
        if *f > 0 {
            let _ = write!(fired, "{site}:{f} ");
        }
    }
    println!(
        "  injected: {}bit-identical={} passed={}",
        fired,
        r.bit_identical,
        r.passed()
    );
}

fn run_chaos_mode(args: &Args) -> Result<(), AnyError> {
    let mut results = Vec::new();
    for run_idx in 0..args.chaos_runs.max(1) {
        let r = run_chaos(args, run_idx)?;
        print_chaos_summary(&r);
        results.push(r);
    }
    if let Some(path) = &args.json {
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"bench\":\"xorbas-node load_gen --chaos\",\"servers\":{},\"racks\":{},\
             \"chunk_kib\":{},\"files\":{},\"file_mib\":{},\"ops\":{},\"write_mix_pct\":{},\
             \"seed\":{},\"deadline_ms\":{},\"runs\":[",
            args.servers,
            args.racks,
            args.chunk_kib,
            args.files,
            args.file_mib,
            args.ops,
            args.write_mix_pct,
            args.seed,
            args.deadline_ms,
        );
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&chaos_json(r));
        }
        json.push_str("]}\n");
        std::fs::write(path, json)?;
        println!("wrote {}", path.display());
    }
    if results.iter().all(ChaosResult::passed) {
        Ok(())
    } else {
        Err("chaos acceptance failed (failed/corrupt/stuck reads, repair, or bit-identity)".into())
    }
}

fn push_percentiles(json: &mut String, label: &str, p: &PercentileSummary) {
    let _ = write!(
        json,
        "\"{label}\":{{\"count\":{},\"mean\":{:.1},\"min\":{:.1},\"p50\":{:.1},\"p99\":{:.1},\"p999\":{:.1},\"max\":{:.1}}}",
        p.count, p.mean, p.min, p.p50, p.p99, p.p999, p.max
    );
}

fn spec_json(r: &SpecResult) -> String {
    let mut j = String::new();
    let _ = write!(
        j,
        "{{\"spec\":\"{}\",\"user_bytes\":{},\"aggregate_bytes\":{},\"put_phase_bytes\":{},\
         \"put_secs\":{:.4},\
         \"put_gibps_aggregate\":{:.3},\"read_ops\":{},\"write_ops\":{},\"direct_reads\":{},\
         \"degraded_reads\":{},\"degraded_light\":{},\"failed_reads\":{},",
        r.name,
        r.user_bytes,
        r.aggregate_bytes,
        r.put_phase_bytes,
        r.put_secs,
        r.put_gibps_aggregate(),
        r.read_ops,
        r.write_ops,
        r.direct_reads,
        r.degraded_reads,
        r.degraded_light,
        r.failed_reads,
    );
    push_percentiles(&mut j, "read_latency_us", &r.read_latency_us);
    j.push(',');
    push_percentiles(&mut j, "write_latency_us", &r.write_latency_us);
    let killed = r
        .killed_server
        .map_or("null".to_string(), |v| v.to_string());
    let _ = write!(
        j,
        ",\"killed_server\":{killed},\"repair_converged\":{},\"repair_secs\":{:.3},\
         \"chunks_repaired\":{},\"light_repairs\":{},\"heavy_repairs\":{},\
         \"repair_bytes_fetched\":{},\"repair_bytes_written\":{},\"failed_repair_attempts\":{},\
         \"bit_identical\":{},\"single_loss_bytes_fetched\":{},\"single_loss_light\":{}}}",
        r.repair_converged,
        r.repair_secs,
        r.repair.chunks_repaired,
        r.repair.light_repairs,
        r.repair.heavy_repairs,
        r.repair.bytes_fetched,
        r.repair.bytes_written,
        r.repair.failed_attempts,
        r.bit_identical,
        r.single_loss_bytes_fetched,
        r.single_loss_light,
    );
    j
}

fn print_summary(r: &SpecResult) {
    println!("== {} ==", r.name);
    println!(
        "  put: {:.1} MiB stored (data+parity) in {:.2}s -> {:.2} GiB/s aggregate \
         ({:.1} MiB user total incl. write mix)",
        r.put_phase_bytes as f64 / (1 << 20) as f64,
        r.put_secs,
        r.put_gibps_aggregate(),
        r.user_bytes as f64 / (1 << 20) as f64,
    );
    println!(
        "  reads: {} ops ({} direct, {} degraded [{} light], {} failed), \
         latency µs p50 {:.0} / p99 {:.0} / p999 {:.0}",
        r.read_ops,
        r.direct_reads,
        r.degraded_reads,
        r.degraded_light,
        r.failed_reads,
        r.read_latency_us.p50,
        r.read_latency_us.p99,
        r.read_latency_us.p999
    );
    if let Some(v) = r.killed_server {
        println!(
            "  kill: server {v} mid-run; repair converged={} in {:.2}s \
             ({} chunks, {} light / {} heavy stripe repairs, {:.1} MiB fetched)",
            r.repair_converged,
            r.repair_secs,
            r.repair.chunks_repaired,
            r.repair.light_repairs,
            r.repair.heavy_repairs,
            r.repair.bytes_fetched as f64 / (1 << 20) as f64
        );
    }
    println!(
        "  bit-identical={}; single-loss repair fetched {:.1} MiB (light={})",
        r.bit_identical,
        r.single_loss_bytes_fetched as f64 / (1 << 20) as f64,
        r.single_loss_light
    );
}

fn run() -> Result<(), AnyError> {
    let args = parse_args()?;
    if args.chaos {
        return run_chaos_mode(&args);
    }
    let choices: &[SpecChoice] = match args.spec {
        SpecChoice::Both => &[SpecChoice::Lrc, SpecChoice::Rs],
        SpecChoice::Lrc => &[SpecChoice::Lrc],
        SpecChoice::Rs => &[SpecChoice::Rs],
    };
    let mut results = Vec::new();
    for &choice in choices {
        let r = run_spec(&args, choice)?;
        print_summary(&r);
        results.push(r);
    }

    if results.len() == 2 {
        let (lrc, rs) = (&results[0], &results[1]);
        if lrc.single_loss_bytes_fetched > 0 && rs.single_loss_bytes_fetched > 0 {
            println!(
                "LRC single-loss repair moved {:.1}% of the bytes RS moved ({} vs {} chunks)",
                100.0 * lrc.single_loss_bytes_fetched as f64 / rs.single_loss_bytes_fetched as f64,
                lrc.single_loss_bytes_fetched / (args.chunk_kib as u64 * 1024),
                rs.single_loss_bytes_fetched / (args.chunk_kib as u64 * 1024),
            );
        }
    }

    if let Some(path) = &args.json {
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"bench\":\"xorbas-node load_gen\",\"servers\":{},\"racks\":{},\
             \"chunk_kib\":{},\"files\":{},\"file_mib\":{},\"ops\":{},\"write_mix_pct\":{},\
             \"kill\":{},\"seed\":{},\"runs\":[",
            args.servers,
            args.racks,
            args.chunk_kib,
            args.files,
            args.file_mib,
            args.ops,
            args.write_mix_pct,
            args.kill,
            args.seed
        );
        for (i, r) in results.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            json.push_str(&spec_json(r));
        }
        json.push_str("]}");
        json.push('\n');
        std::fs::write(path, json)?;
        println!("wrote {}", path.display());
    }

    if results.iter().all(SpecResult::passed) {
        Ok(())
    } else {
        Err("acceptance checks failed (failed reads, repair, or bit-identity)".into())
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("load_gen: {e}");
            std::process::exit(1);
        }
    }
}

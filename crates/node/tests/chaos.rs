//! Fault-injection integration: the scrubber finds every rotted chunk
//! within one cycle and routes it through the ordinary repair
//! pipeline; client traffic under an armed fault plan never returns a
//! wrong byte.
//!
//! The fault plan is process-global, so the tests in this binary
//! serialize on `PLAN_GATE` — one armed plan at a time.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xorbas_core::{CodeSpec, CodecInstance};
use xorbas_node::client::SessionCache;
use xorbas_node::repair::ScrubConfig;
use xorbas_node::{
    fault, ChunkServer, ClusterClient, Directory, FaultPlan, RepairAgent, RepairAgentConfig,
    RetryPolicy, ServerConfig, Site,
};

const CHUNK: usize = 64 * 1024;

static PLAN_GATE: Mutex<()> = Mutex::new(());

/// Disarms the global plan even if the test panics mid-way, so a
/// failure here cannot cascade into the other test.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        fault::disarm();
    }
}

struct Cluster {
    servers: Vec<ChunkServer>,
    dirs: Vec<PathBuf>,
    directory: Arc<Mutex<Directory>>,
    sessions: SessionCache,
}

impl Cluster {
    fn boot(n: usize, tag: &str) -> Self {
        let mut servers = Vec::new();
        let mut dirs = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..n {
            let dir =
                std::env::temp_dir().join(format!("xorbas_chaos_{}_{tag}_{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let server = ChunkServer::start(ServerConfig::new(dir.clone())).unwrap();
            addrs.push(server.addr());
            servers.push(server);
            dirs.push(dir);
        }
        Self {
            servers,
            dirs,
            directory: Arc::new(Mutex::new(Directory::new(&addrs, n, 7))),
            sessions: SessionCache::default(),
        }
    }

    fn client(&self, spec: CodeSpec) -> ClusterClient {
        ClusterClient::new(
            CodecInstance::build(spec).unwrap(),
            CHUNK,
            Arc::clone(&self.directory),
            RetryPolicy::default(),
            self.sessions.clone(),
        )
    }

    fn scrubbing_agent(&self, spec: CodeSpec) -> RepairAgent {
        let mut cfg = RepairAgentConfig::new(CHUNK);
        cfg.scrub = Some(ScrubConfig::new(
            self.dirs.iter().cloned().enumerate().collect(),
        ));
        RepairAgent::start(
            CodecInstance::build(spec).unwrap(),
            Arc::clone(&self.directory),
            self.sessions.clone(),
            cfg,
        )
        .unwrap()
    }

    fn lock_dir(&self) -> std::sync::MutexGuard<'_, Directory> {
        self.directory
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn teardown(self) {
        for server in self.servers {
            server.shutdown();
        }
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn test_file(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(2654435761) >> 16) as u8)
        .collect()
}

/// XORs one payload byte of the on-disk chunk file for `(stripe, lane)`
/// on whatever server the directory maps it to — silent bit rot.
fn rot_chunk_on_disk(cluster: &Cluster, stripe: u64, lane: u32) {
    let sid = {
        let d = cluster.lock_dir();
        d.servers_of(stripe).unwrap()[lane as usize]
    };
    let path = cluster.dirs[sid].join(format!("s{stripe:016x}_l{lane:08x}.chunk"));
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, bytes).unwrap();
}

#[test]
fn scrubber_finds_every_rotted_chunk_in_one_cycle_and_repair_heals_them() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let cluster = Cluster::boot(5, "scrub");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();

    let data = test_file(3 * k * CHUNK);
    let manifest = client.put(&data).unwrap();
    assert_eq!(manifest.stripes.len(), 3);

    // Rot one chunk in each stripe: three independent single losses.
    let rotted: Vec<(u64, u32)> = manifest
        .stripes
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id, (i * 3) as u32))
        .collect();
    for &(stripe, lane) in &rotted {
        rot_chunk_on_disk(&cluster, stripe, lane);
    }

    // No client ever touches the rotted chunks: only the scrubber can
    // find them. One cycle covers every store, so within a generous
    // timeout all three must be flagged — and only those three.
    let agent = cluster.scrubbing_agent(spec);
    let deadline = Instant::now() + Duration::from_secs(60);
    while agent.stats().scrub_corruptions < rotted.len() as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = agent.stats();
    assert_eq!(
        stats.scrub_corruptions,
        rotted.len() as u64,
        "scrubber must flag exactly the rotted chunks: {stats:?}"
    );
    assert!(stats.scrub_chunks > 0 && stats.scrub_bytes > 0);

    // The flags flow into the ordinary scan → repair pipeline.
    assert!(
        agent.wait_until_repaired(Duration::from_secs(60)),
        "repair must drain every scrub-flagged chunk"
    );

    // Digest re-check: every rotted chunk now reads back correct, as
    // does the whole file.
    let mut buf = Vec::new();
    for (i, &(stripe, lane)) in rotted.iter().enumerate() {
        client.read_data_chunk(stripe, lane, &mut buf).unwrap();
        let off = (i * k + lane as usize) * CHUNK;
        assert_eq!(&buf[..], &data[off..off + CHUNK], "chunk healed wrong");
    }
    client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);

    agent.shutdown();
    cluster.teardown();
}

#[test]
fn armed_fault_plan_returns_only_correct_bytes() {
    let _gate = PLAN_GATE.lock().unwrap_or_else(PoisonError::into_inner);
    let _disarm = DisarmOnDrop;
    let plan = fault::arm(
        FaultPlan::new(42)
            .with(Site::ConnectRefuse, 30)
            .with(Site::ServeReset, 20)
            .with_param(Site::ServeStall, 10, 20)
            .with(Site::TornWrite, 15)
            .with(Site::BitFlip, 20)
            .with(Site::CrashPut, 8),
    );

    let cluster = Cluster::boot(5, "armed");
    let spec = CodeSpec::LRC_10_6_5;
    let mut client = cluster.client(spec);
    let k = spec.data_blocks();
    let data = test_file(2 * k * CHUNK);

    // The agent runs throughout, as it would in production: its
    // liveness probe revives servers that injected resets smeared as
    // dead, and its repair loop drains the corruption the plan plants
    // — without it, unavailability only accumulates.
    let agent = cluster.scrubbing_agent(spec);

    // Puts may be killed by injection; only an Ok is an ack.
    let manifest = loop {
        match client.put(&data) {
            Ok(m) => break m,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };

    // Hammer reads under fire: a read may need retries, but within a
    // deadline it must succeed and the bytes must be exactly right.
    let mut buf = Vec::new();
    let mut rng = 42u64;
    for _ in 0..80 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        let pos = (rng >> 33) as usize % manifest.stripes.len();
        let lane = ((rng >> 13) % k as u64) as u32;
        let stripe = manifest.stripes[pos].id;
        let op_deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.read_data_chunk(stripe, lane, &mut buf) {
                Ok(_) => break,
                Err(e) => {
                    assert!(
                        Instant::now() < op_deadline,
                        "read stuck past its deadline under chaos: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
        let off = (pos * k + lane as usize) * CHUNK;
        assert_eq!(
            &buf[..],
            &data[off..off + CHUNK],
            "chaos served wrong bytes"
        );
    }
    assert!(
        plan.counters().iter().any(|(_, _, fired)| *fired > 0),
        "the plan never injected anything — rates too low for the run"
    );

    // Quiesce and heal: with injection off, repair + scrub converge
    // and the file reads back bit-identical.
    fault::disarm();
    assert!(agent.wait_until_repaired(Duration::from_secs(120)));
    client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);

    agent.shutdown();
    cluster.teardown();
}

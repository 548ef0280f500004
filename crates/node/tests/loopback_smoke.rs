//! Loopback cluster smoke tests: the CI gate for the networked
//! prototype. Five real chunk servers in-process, a client streaming
//! erasure-coded files over TCP, one server killed mid-test, a repair
//! agent restoring redundancy — and the paper's headline measured as
//! an assertion: LRC single-loss repair moves fewer bytes than RS.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xorbas_core::{CodeSpec, CodecInstance};
use xorbas_node::client::{ReadKind, SessionCache};
use xorbas_node::{
    ChunkServer, ClusterClient, Directory, NodeConn, NodeError, RepairAgent, RepairAgentConfig,
    RepairStatsSnapshot, RetryPolicy, ServerConfig,
};

const CHUNK: usize = 64 * 1024;

struct Cluster {
    servers: Vec<ChunkServer>,
    data_dirs: Vec<PathBuf>,
    directory: Arc<Mutex<Directory>>,
    sessions: SessionCache,
}

impl Cluster {
    fn boot(n: usize, tag: &str) -> Self {
        let mut servers = Vec::new();
        let mut data_dirs = Vec::new();
        let mut addrs: Vec<SocketAddr> = Vec::new();
        for i in 0..n {
            let dir =
                std::env::temp_dir().join(format!("xorbas_smoke_{}_{tag}_{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let server = ChunkServer::start(ServerConfig::new(dir.clone())).unwrap();
            addrs.push(server.addr());
            servers.push(server);
            data_dirs.push(dir);
        }
        Self {
            servers,
            data_dirs,
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

    fn agent(&self, spec: CodeSpec) -> RepairAgent {
        RepairAgent::start(
            CodecInstance::build(spec).unwrap(),
            Arc::clone(&self.directory),
            self.sessions.clone(),
            RepairAgentConfig::new(CHUNK),
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
        for dir in &self.data_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Position-dependent filler. The shift matters: `>> 7` would make the
/// byte a function of the offset *within* its 64 KiB chunk only (the
/// chunk-index term is `c · 512 · M ≡ 0 mod 256`), i.e. every chunk
/// identical and a stale-lane bug invisible; `>> 16` keeps an odd
/// multiple of the chunk index in the low byte, so no two chunks match.
fn test_file(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(2654435761) >> 16) as u8)
        .collect()
}

#[test]
fn kill_one_server_zero_failed_reads_then_repair_restores_redundancy() {
    let cluster = Cluster::boot(5, "kill");
    let mut client = cluster.client(CodeSpec::LRC_10_6_5);
    let k = CodeSpec::LRC_10_6_5.data_blocks();

    // Three stripes exactly, plus a ragged tail on a fourth.
    let data = test_file(3 * k * CHUNK + 12345);
    let manifest = client.put(&data).unwrap();
    assert_eq!(manifest.stripes.len(), 4);
    assert_eq!(manifest.file_len, data.len() as u64);

    // Healthy reads are all direct.
    let mut buf = Vec::new();
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert_eq!(report.degraded_stripes, 0);

    // Kill one server mid-life. Every read must still succeed — direct
    // where the lane survived, degraded where it did not.
    cluster.servers[4].kill();
    let mut direct = 0usize;
    let mut degraded = 0usize;
    for stripe in &manifest.stripes {
        for lane in 0..k as u32 {
            match client.read_data_chunk(stripe.id, lane, &mut buf).unwrap() {
                ReadKind::Direct => direct += 1,
                ReadKind::Degraded { .. } => degraded += 1,
            }
            let start = stripe_user_offset(&manifest, stripe.id, lane);
            let expect = &data[start.min(data.len())..(start + CHUNK).min(data.len())];
            assert_eq!(&buf[..expect.len()], expect, "chunk content must match");
        }
    }
    assert!(degraded > 0, "the dead server held data lanes");
    assert!(direct > 0);

    // Whole-file get stays bit-identical through the mixed path.
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    assert!(report.degraded_stripes > 0);

    // The repair agent restores full redundancy onto the survivors.
    let agent = cluster.agent(CodeSpec::LRC_10_6_5);
    assert!(
        agent.wait_until_repaired(Duration::from_secs(60)),
        "repair must converge"
    );
    let stats = agent.stats();
    assert!(stats.chunks_repaired > 0);
    assert!(stats.bytes_written >= stats.chunks_repaired * CHUNK as u64);
    {
        let dir = cluster.lock_dir();
        let mut lost = Vec::new();
        dir.scan_lost(&mut lost);
        assert!(lost.is_empty(), "no chunk may remain lost: {lost:?}");
    }
    agent.shutdown();

    // After repair every chunk reads directly again (new client so no
    // stale dead-server connections linger).
    let mut fresh = cluster.client(CodeSpec::LRC_10_6_5);
    for stripe in &manifest.stripes {
        for lane in 0..k as u32 {
            let kind = fresh.read_data_chunk(stripe.id, lane, &mut buf).unwrap();
            assert!(
                matches!(kind, ReadKind::Direct),
                "post-repair reads are direct"
            );
        }
    }
    fresh.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data, "bit-identical after repair");

    cluster.teardown();
}

/// User-byte offset of `(stripe, lane)` within the original file.
fn stripe_user_offset(manifest: &xorbas_node::Manifest, stripe: u64, lane: u32) -> usize {
    let idx = manifest
        .stripes
        .iter()
        .position(|s| s.id == stripe)
        .unwrap();
    let k = manifest.spec.data_blocks();
    (idx * k + lane as usize) * CHUNK
}

#[test]
fn checksum_mismatch_routes_into_degraded_read() {
    let cluster = Cluster::boot(5, "corrupt");
    let mut client = cluster.client(CodeSpec::LRC_10_6_5);
    let k = CodeSpec::LRC_10_6_5.data_blocks();
    let data = test_file(k * CHUNK);
    let manifest = client.put(&data).unwrap();
    let stripe = manifest.stripes[0].id;

    // Flip a payload byte of lane 0's stored chunk behind the server's
    // back. The server detects the digest mismatch on read and answers
    // with a typed Corrupt error; the client treats it as an erasure.
    let holder = manifest.stripes[0].servers[0];
    let path = cluster.data_dirs[holder].join(format!("s{stripe:016x}_l{:08x}.chunk", 0));
    let mut bytes = std::fs::read(&path).unwrap();
    let payload_at = bytes.len() - CHUNK + 17;
    bytes[payload_at] ^= 0xFF;
    std::fs::write(&path, bytes).unwrap();

    let mut buf = Vec::new();
    let kind = client.read_data_chunk(stripe, 0, &mut buf).unwrap();
    assert!(
        matches!(kind, ReadKind::Degraded { light: true }),
        "a single corrupt LRC data chunk decodes from its local group, got {kind:?}"
    );
    assert_eq!(&buf[..], &data[..CHUNK], "reconstructed bytes are exact");
    assert!(cluster.lock_dir().is_corrupt(stripe, 0));

    // Repair overwrites the bad replica and clears the flag; the chunk
    // then reads directly again.
    let agent = cluster.agent(CodeSpec::LRC_10_6_5);
    assert!(agent.wait_until_repaired(Duration::from_secs(30)));
    assert_eq!(agent.stats().light_repairs, 1);
    agent.shutdown();
    assert!(!cluster.lock_dir().is_corrupt(stripe, 0));
    let kind = client.read_data_chunk(stripe, 0, &mut buf).unwrap();
    assert!(matches!(kind, ReadKind::Direct));
    assert_eq!(&buf[..], &data[..CHUNK]);

    cluster.teardown();
}

/// The agent's counters once it has counted `chunks` repairs: a worker
/// re-places a chunk in the directory just before it reports it, so
/// they can trail `wait_until_repaired` by a moment.
fn settled_stats(agent: &RepairAgent, chunks: u64) -> RepairStatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = agent.stats();
        if stats.chunks_repaired >= chunks || Instant::now() >= deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Repair traffic per lost chunk, measured over real sockets. The coded
/// specs lose one chunk to a corruption report; 3-replication loses a
/// whole server and repairs through the same session path, each lost
/// replica copied from one survivor.
#[test]
fn lrc_light_repair_moves_fewer_bytes_than_rs() {
    let mut fetched = Vec::new();
    for (spec, tag, reads_per_loss) in [
        (CodeSpec::LRC_10_6_5, "lrc", 5),
        (CodeSpec::RS_10_4, "rs", 10),
        (CodeSpec::REPLICATION_3, "rep", 1),
    ] {
        let cluster = Cluster::boot(5, tag);
        let mut client = cluster.client(spec);
        let replicated = matches!(spec, CodeSpec::Replication { .. });
        let stripes = if replicated { 4 } else { 1 };
        let data = test_file(stripes * spec.data_blocks() * CHUNK);
        let manifest = client.put(&data).unwrap();
        let stripe = &manifest.stripes[0];

        let lost = if replicated {
            let victim = stripe.servers[0];
            cluster.servers[victim].kill();
            manifest
                .stripes
                .iter()
                .flat_map(|s| &s.servers)
                .filter(|&&sid| sid == victim)
                .count() as u64
        } else {
            cluster.lock_dir().report_corrupt(stripe.id, 0);
            1
        };
        let mut buf = Vec::new();
        let report = client.get(&manifest, &mut buf).unwrap();
        assert_eq!(buf, data, "{tag}: reads with a lost chunk");
        assert!(report.degraded_stripes >= 1, "{tag}");

        let agent = cluster.agent(spec);
        assert!(agent.wait_until_repaired(Duration::from_secs(30)), "{tag}");
        let stats = settled_stats(&agent, lost);
        agent.shutdown();
        assert_eq!(stats.chunks_repaired, lost, "{tag}");
        assert_eq!(
            stats.bytes_fetched,
            reads_per_loss * lost * CHUNK as u64,
            "{tag}: {reads_per_loss} chunks fetched per lost chunk"
        );
        fetched.push(stats.bytes_fetched);

        client.get(&manifest, &mut buf).unwrap();
        assert_eq!(buf, data, "{tag}: bit-identical after repair");
        cluster.teardown();
    }
    // The paper's Table: LRC repairs a single loss from its 5-lane
    // local group; RS must read k = 10 lanes.
    assert!(fetched[0] < fetched[1]);
}

/// Regression: a light degraded repair only *reads* the failed lane's
/// local group, so data lanes of the other group are outside the plan.
/// The whole-file get must fetch them explicitly — before the fix they
/// kept the previous stripe's bytes in the scratch and the file came
/// back silently corrupted.
#[test]
fn whole_file_get_refreshes_lanes_outside_the_light_repair_group() {
    let cluster = Cluster::boot(5, "lightget");
    let mut client = cluster.client(CodeSpec::LRC_10_6_5);
    let k = CodeSpec::LRC_10_6_5.data_blocks();

    // Two full stripes of distinct content: a stale lane carried over
    // from stripe 0 is detectable in stripe 1's output.
    let data = test_file(2 * k * CHUNK);
    let manifest = client.put(&data).unwrap();
    assert_eq!(manifest.stripes.len(), 2);

    // Lose exactly one data chunk of the SECOND stripe. A single loss
    // compiles a light plan over lane 2's local group (lanes 0..5 +
    // its local parity); data lanes 5..10 are neither read nor missing.
    let stripe = manifest.stripes[1].id;
    let lane = 2u32;
    let holder = manifest.stripes[1].servers[lane as usize];
    let path = cluster.data_dirs[holder].join(format!("s{stripe:016x}_l{lane:08x}.chunk"));
    std::fs::remove_file(&path).unwrap();

    let mut buf = Vec::new();
    let report = client.get(&manifest, &mut buf).unwrap();
    assert_eq!(report.degraded_stripes, 1);
    assert_eq!(
        buf, data,
        "data lanes outside the light-repair group must be fetched, not stale"
    );
    cluster.teardown();
}

/// A manifest is only meaningful to a client configured with the same
/// code spec and chunk size; anything else must be a typed refusal,
/// not a silent misread.
#[test]
fn mismatched_manifest_is_refused_up_front() {
    let cluster = Cluster::boot(5, "mismatch");
    let mut client = cluster.client(CodeSpec::LRC_10_6_5);
    let data = test_file(3 * CHUNK);
    let manifest = client.put(&data).unwrap();

    // A client striping with a different code…
    let mut rs = cluster.client(CodeSpec::RS_10_4);
    let mut buf = Vec::new();
    assert!(matches!(
        rs.get(&manifest, &mut buf).unwrap_err(),
        NodeError::ManifestMismatch(_)
    ));
    assert!(matches!(
        rs.register_manifest(&manifest).unwrap_err(),
        NodeError::ManifestMismatch(_)
    ));

    // …or a different chunk size is refused too.
    let mut small = ClusterClient::new(
        CodecInstance::build(CodeSpec::LRC_10_6_5).unwrap(),
        CHUNK / 2,
        Arc::clone(&cluster.directory),
        RetryPolicy::default(),
        cluster.sessions.clone(),
    );
    assert!(matches!(
        small.get(&manifest, &mut buf).unwrap_err(),
        NodeError::ManifestMismatch(_)
    ));

    // The matching client still round-trips.
    client.get(&manifest, &mut buf).unwrap();
    assert_eq!(buf, data);
    cluster.teardown();
}

#[test]
fn connect_refused_is_retried_with_backoff_then_typed() {
    // Bind a port, then drop the listener: connects now get refused.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);

    // Jitter off so the backoff schedule (4ms, then 8ms) is exact.
    let policy = RetryPolicy {
        attempts: 3,
        base_delay: Duration::from_millis(4),
        jitter: false,
        ..RetryPolicy::default()
    };
    let t0 = Instant::now();
    let err = NodeConn::connect(addr, &policy).unwrap_err();
    let elapsed = t0.elapsed();
    match err {
        NodeError::ConnectFailed { addr: a, attempts } => {
            assert_eq!(a, addr);
            assert_eq!(attempts, 3);
        }
        other => panic!("expected ConnectFailed, got {other:?}"),
    }
    // Two backoff sleeps happened between the three attempts: 4ms + 8ms.
    assert!(
        elapsed >= Duration::from_millis(12),
        "backoff too short: {elapsed:?}"
    );
}

#[test]
fn manifest_round_trips_through_registration() {
    let cluster = Cluster::boot(5, "manifest");
    let mut client = cluster.client(CodeSpec::RS_10_4);
    let data = test_file(CodeSpec::RS_10_4.data_blocks() * CHUNK + 999);
    let manifest = client.put(&data).unwrap();

    // Serialize, reload in a *fresh* directory (new cluster epoch), and
    // read the file back through registration alone.
    let encoded = manifest.encode();
    let reloaded = xorbas_node::Manifest::decode(&encoded).unwrap();
    assert_eq!(reloaded.file_len, manifest.file_len);
    assert_eq!(reloaded.stripes.len(), manifest.stripes.len());

    let mut fresh = cluster.client(CodeSpec::RS_10_4);
    fresh.register_manifest(&reloaded).unwrap();
    let mut buf = Vec::new();
    fresh.get(&reloaded, &mut buf).unwrap();
    assert_eq!(buf, data);
    cluster.teardown();
}

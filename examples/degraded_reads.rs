//! Degraded reads against a live loopback cluster: the §5.2.4 story,
//! now over real sockets.
//!
//! Transient failures are 90% of data-center failure events; while a
//! chunk is unavailable, readers must reconstruct it on the fly. This
//! example boots five in-process chunk servers, streams a file in
//! through the erasure-coded client, kills one server, then reads
//! every data chunk back. Reads whose server died are served
//! *degraded*: the client compiles a [`RepairSession`] over the
//! surviving lanes (cached, so later stripes reuse it) and decodes the
//! missing chunk inline. Under Xorbas LRC a degraded read touches only
//! the 5-lane local group; under RS(10,4) it reads all k = 10 lanes.
//!
//! Run with: `cargo run --release --example degraded_reads`
//!
//! [`RepairSession`]: xorbas::codes::RepairSession

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xorbas::codes::{CodeSpec, CodecInstance};
use xorbas::sim::{
    run_scale_scenario, PercentileSummary, ScaleScenario, ServePolicy, ServingSummary,
    RASHMI_SINGLE_BLOCK_RECOVERY_FRACTION,
};
use xorbas_node::client::{ReadKind, SessionCache};
use xorbas_node::{ChunkServer, ClusterClient, Directory, RetryPolicy, ServerConfig};

const SERVERS: usize = 5;
const CHUNK_BYTES: usize = 256 * 1024;
const FILE_BYTES: usize = 24 << 20; // 24 MiB -> ~10 stripes at k=10

struct Outcome {
    name: &'static str,
    direct: usize,
    degraded: usize,
    light: usize,
    failed: usize,
    degraded_ms: f64,
}

fn run_spec(spec: CodeSpec) -> Outcome {
    // Boot a 5-server loopback cluster, one rack per server.
    let mut servers = Vec::new();
    let mut dirs = Vec::new();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    for i in 0..SERVERS {
        let dir = std::env::temp_dir().join(format!(
            "xorbas_example_{}_{}_{i}",
            std::process::id(),
            spec.total_blocks()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let server = ChunkServer::start(ServerConfig::new(dir.clone())).expect("bind loopback");
        addrs.push(server.addr());
        servers.push(server);
        dirs.push(dir);
    }
    let directory = Arc::new(Mutex::new(Directory::new(&addrs, SERVERS, 42)));
    let sessions = SessionCache::default();
    let mut client = ClusterClient::new(
        CodecInstance::build(spec).expect("build codec"),
        CHUNK_BYTES,
        Arc::clone(&directory),
        RetryPolicy::default(),
        sessions,
    );

    // Stream a deterministic file in.
    let data: Vec<u8> = (0..FILE_BYTES).map(|i| (i * 31 % 251) as u8).collect();
    let manifest = client.put(&data).expect("put");

    // Kill one server: its lanes become unreadable until repaired.
    servers.last().expect("have servers").kill();

    // Read every data chunk of every stripe. The first degraded stripe
    // pays the session compile; the cache serves the rest.
    let k = spec.data_blocks();
    let mut out = Outcome {
        name: spec.name_static(),
        direct: 0,
        degraded: 0,
        light: 0,
        failed: 0,
        degraded_ms: 0.0,
    };
    let mut buf = Vec::new();
    for stripe in &manifest.stripes {
        for lane in 0..k as u32 {
            let t0 = Instant::now();
            match client.read_data_chunk(stripe.id, lane, &mut buf) {
                Ok(ReadKind::Direct) => out.direct += 1,
                Ok(ReadKind::Degraded { light }) => {
                    out.degraded += 1;
                    out.light += usize::from(light);
                    out.degraded_ms += t0.elapsed().as_secs_f64() * 1e3;
                }
                Err(_) => out.failed += 1,
            }
        }
    }

    // Bit-identity through the mixed direct/degraded path.
    let mut round_trip = Vec::new();
    client.get(&manifest, &mut round_trip).expect("get");
    assert_eq!(round_trip, data, "degraded reads must be bit-identical");

    for server in servers {
        server.shutdown();
    }
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

trait SpecName {
    fn name_static(&self) -> &'static str;
}

impl SpecName for CodeSpec {
    fn name_static(&self) -> &'static str {
        match self {
            CodeSpec::Lrc(_) => "Xorbas LRC (10,6,5)",
            CodeSpec::ReedSolomon { .. } => "RS (10,4)",
            _ => "replication",
        }
    }
}

/// Renders one latency tail as the JSON fragment the bench file keeps.
fn tail_json(p: &PercentileSummary) -> String {
    format!(
        r#"{{"count":{},"p50_ms":{:.3},"p99_ms":{:.3},"p999_ms":{:.3}}}"#,
        p.count, p.p50, p.p99, p.p999
    )
}

fn serving_run_json(seed: u64, s: &ServingSummary) -> String {
    format!(
        r#"{{"seed":{seed},"reads_issued":{},"direct_reads":{},"degraded_light":{},"degraded_heavy":{},"fixer_wait_reads":{},"failed_reads":{},"degraded_fraction":{:.6},"single_loss_fraction":{:.4},"degraded_bytes":{:.0},"fixer_wait_bytes":{:.0},"direct":{},"degraded":{},"fixer_wait":{}}}"#,
        s.reads_issued,
        s.direct_reads,
        s.degraded_light,
        s.degraded_heavy,
        s.fixer_wait_reads,
        s.failed_reads,
        s.degraded_fraction,
        s.single_loss_fraction,
        s.degraded_bytes,
        s.fixer_wait_bytes,
        tail_json(&s.direct_ms),
        tail_json(&s.degraded_ms),
        tail_json(&s.fixer_wait_ms),
    )
}

/// The simulated serving plane: a week of Zipf reads against the
/// 60-node trace-driven cluster, unavailable blocks served degraded
/// (or, in the last run, parked on the BlockFixer). Prints the
/// BENCH_PR9 JSON line the repo pins in CI.
fn serving_plane() {
    println!("\nsimulated serving plane: 7-day Zipf workload, 60 nodes, LRC (10,6,5)\n");
    println!("policy         seed  reads    degraded%  1-loss%  deg p50/p99/p999 ms");

    let mut runs = Vec::new();
    for seed in [3u64, 7, 13] {
        let sc = ScaleScenario::serving_mode(CodeSpec::LRC_10_6_5);
        let s = run_scale_scenario(&sc, seed)
            .serving
            .expect("serving_mode attaches a workload");
        println!(
            "{:<13} {:>5}  {:>7}  {:>8.3}  {:>7.2}  {:>6.1}/{:.1}/{:.1}",
            "degraded",
            seed,
            s.reads_issued,
            s.degraded_fraction * 100.0,
            s.single_loss_fraction * 100.0,
            s.degraded_ms.p50,
            s.degraded_ms.p99,
            s.degraded_ms.p999,
        );
        runs.push(serving_run_json(seed, &s));
    }

    let mut wait = ScaleScenario::serving_mode(CodeSpec::LRC_10_6_5);
    wait.workload.as_mut().expect("workload").policy = ServePolicy::WaitForFixer;
    let w = run_scale_scenario(&wait, 3)
        .serving
        .expect("serving summary");
    println!(
        "{:<13} {:>5}  {:>7}  {:>8.3}  {:>7.2}  fixer-wait p50 {:.0} ms",
        "wait-fixer",
        3,
        w.reads_issued,
        w.degraded_fraction * 100.0,
        w.single_loss_fraction * 100.0,
        w.fixer_wait_ms.p50,
    );
    runs.push(serving_run_json(3, &w));

    println!(
        "\nsingle-block recovery fraction vs Rashmi et al. {:.2}%: the pin \
         CI enforces (crates/sim/tests/serving_scenario.rs).\n",
        RASHMI_SINGLE_BLOCK_RECOVERY_FRACTION * 100.0
    );
    println!(
        r#"BENCH_PR9 {{"bench":"sim serving plane","scenario":"serving_mode","code":"LRC(10,6,5)","days":7,"nodes":60,"reads_per_sec":1.0,"zipf_s":1.1,"rashmi_single_loss_fraction":{RASHMI_SINGLE_BLOCK_RECOVERY_FRACTION},"runs":[{}]}}"#,
        runs.join(",")
    );
}

fn main() {
    println!("degraded reads over a live 5-server loopback cluster\n");
    let lrc = run_spec(CodeSpec::LRC_10_6_5);
    let rs = run_spec(CodeSpec::RS_10_4);

    println!("code                  direct  degraded  light  failed  avg degraded ms");
    for o in [&lrc, &rs] {
        println!(
            "{:<21} {:>6}  {:>8}  {:>5}  {:>6}  {:>15.2}",
            o.name,
            o.direct,
            o.degraded,
            o.light,
            o.failed,
            o.degraded_ms / o.degraded.max(1) as f64
        );
    }
    println!(
        "\nevery degraded LRC read decoded from its 5-lane local group \
         (light={}/{}); RS always reads k=10 lanes. Zero failed reads: \
         the dead server is invisible to readers.",
        lrc.light, lrc.degraded
    );
    assert_eq!(lrc.failed + rs.failed, 0, "no read may fail under one loss");

    serving_plane();
}

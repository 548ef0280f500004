//! One benchmark for the whole system.
//!
//! Every run drives the three parts of the repository in turn, each
//! timed from outside through its public functions:
//!
//! 1. **codec** — `encode_into` and `RepairSession::repair` in memory
//!    ([`codec`]);
//! 2. **sim** — the warehouse simulator under LRC and RS ([`sim`]);
//! 3. **cluster** — a loopback cluster of chunk servers: put, degraded
//!    read while a server is dead, repair by the agent ([`cluster`]).
//!
//! A workload picks the code the cluster stores files with; the codec
//! and simulator parts run the same inputs under every workload. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the same workload with spans and stage
//! replays and prints the per-layer metrics. `--ledger` runs every
//! workload both ways and prints the tracing overhead. See
//! `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lrc_cluster --seed 1 --seconds 20 --trace 0
//! ```

mod cluster;
mod codec;
mod codecs;
mod host;
mod report;
mod rng;
mod sim;
mod stats;
mod trace;

use report::{Metric, Report};
use std::path::{Path, PathBuf};
use std::time::Instant;
use xorbas_core::CodeSpec;

/// The end-to-end metrics every `--trace 0` run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_op_ratio", "x"),
    ("repair_roof_ratio", "x"),
    ("repair_read_amp", "x"),
    ("encode_narrow_roof_ratio", "x"),
    ("encode_wide_roof_ratio", "x"),
    ("replay_light_roof_ratio", "x"),
    ("replay_heavy_roof_ratio", "x"),
];

/// The per-layer metrics every `--trace 1` run prints, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read_direct_cpu_ms", "ms"),
    ("read_degraded_cpu_ms", "ms"),
    ("put_mib_per_cpu_s", "MiB/CPU-s"),
    ("put_mibps", "MiB/s"),
    ("read_direct_p50_ms", "ms"),
    ("read_degraded_p50_ms", "ms"),
    ("repair_s", "s"),
    ("repair_cpu_s", "s"),
    ("read_direct_tail_ms", "ms"),
    ("read_degraded_tail_ms", "ms"),
    ("sim_lrc_days_per_s", "days/s"),
    ("sim_rs_days_per_s", "days/s"),
    ("gf.memcpy_gibps", "GiB/s"),
    ("gf.memcpy_end_gibps", "GiB/s"),
    ("gf.xor_into_gibps", "GiB/s"),
    ("gf.xor_into_end_gibps", "GiB/s"),
    ("gf.mul_acc_gibps", "GiB/s"),
    ("gf.mul16_acc_gibps", "GiB/s"),
    ("gf.mul_acc_roof_ratio", "x"),
    ("gf.mul16_acc_roof_ratio", "x"),
    ("core.encode_ms.narrow", "ms"),
    ("core.encode_ms.wide", "ms"),
    ("core.encode_gibps.narrow", "GiB/s"),
    ("core.encode_gibps.wide", "GiB/s"),
    ("core.replay_ms.light", "ms"),
    ("core.replay_ms.heavy", "ms"),
    ("core.replay_gibps.light", "GiB/s"),
    ("core.replay_gibps.heavy", "GiB/s"),
    ("core.compile_us.light", "us"),
    ("core.compile_us.heavy", "us"),
    ("protocol.digest_gibps", "GiB/s"),
    ("protocol.frame_gibps", "GiB/s"),
    ("chunk_store.put_ms", "ms"),
    ("chunk_store.get_ms", "ms"),
    ("rpc.put_ms", "ms"),
    ("rpc.get_ms", "ms"),
    ("rpc.overhead_ms.put", "ms"),
    ("rpc.overhead_ms.get", "ms"),
    ("directory.place_us", "us"),
    ("directory.log_manifest_ms", "ms"),
    ("directory.wal_bytes_per_stripe", "B"),
    ("put.wall_ms_per_stripe", "ms"),
    ("put.stage_sum_ms_per_stripe", "ms"),
    ("put.stage_coverage", "x"),
    ("read_degraded.lanes_fetched", "count"),
    ("read_degraded.stage_coverage", "x"),
    ("sessions.compiled", "count"),
    ("sessions.hit_ratio", "x"),
    ("repair.stripes", "count"),
    ("repair.chunks", "count"),
    ("repair.bytes_fetched", "B"),
    ("repair.bytes_written", "B"),
    ("repair.failed_attempts", "count"),
    ("repair.rounds", "count"),
    ("repair.wall_ms_per_stripe", "ms"),
    ("repair.stage_sum_ms_per_stripe", "ms"),
    ("repair.stage_coverage", "x"),
    ("sim.events.lrc", "count"),
    ("sim.events_per_s.lrc", "1/s"),
    ("sim.blocks_repaired.lrc", "count"),
    ("sim.reads_per_lost_block.lrc", "blocks"),
    ("sim.events.rs", "count"),
    ("sim.events_per_s.rs", "1/s"),
    ("sim.blocks_repaired.rs", "count"),
    ("sim.reads_per_lost_block.rs", "blocks"),
];

/// What a workload varies: the code the cluster stores files with. The
/// codec and simulator parts run the same inputs under every workload.
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// The code the cluster stores files with.
    pub code: CodeSpec,
    /// Degraded reads per cycle: fewer under RS, whose degraded read
    /// fetches ten lanes rather than five.
    pub reads_degraded: usize,
}

const MIB: usize = 1 << 20;

/// The workloads, as listed in `BENCHMARK.json`.
pub const WORKLOADS: &[Shape] = &[
    Shape {
        name: "lrc_cluster",
        code: CodeSpec::LRC_10_6_5,
        reads_degraded: 200,
    },
    Shape {
        name: "rs_cluster",
        code: CodeSpec::RS_10_4,
        reads_degraded: 100,
    },
];

/// Output checks; a run with any failed check prints no numbers.
#[derive(Debug, Default)]
pub struct Checks {
    passed: u64,
    failed: u64,
    /// The first few failures, for the report.
    failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, what: impl Into<String>) {
        if ok {
            self.passed += 1;
            return;
        }
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what.into());
        }
    }
}

/// Removes the data root on every exit path, including a panic.
struct DataRoot(PathBuf);

impl DataRoot {
    fn create(path: &Path) -> Result<Self, String> {
        // A run killed before its cleanup left this behind.
        let _ = std::fs::remove_dir_all(path);
        std::fs::create_dir_all(path).map_err(|e| format!("data root {}: {e}", path.display()))?;
        Ok(Self(path.to_path_buf()))
    }
}

impl Drop for DataRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One run's outcome.
struct Outcome {
    report: Report,
    /// End-to-end metrics (also measured on traced runs).
    e2e: Vec<Metric>,
    failures: Vec<String>,
    notes: Vec<String>,
}

/// Runs `shape` once.
fn run_workload(shape: &Shape, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let root = DataRoot::create(Path::new(".bench_data/run"))?;
    let host = host::HostInfo::gather(&root.0);
    let mut notes = vec![format!(
        "workload {} seed {seed} seconds {seconds} trace {}; git {} nproc {} backend {} data fs {}",
        shape.name, traced as u8, host.git_rev, host.nproc, host.backend, host.data_fs
    )];
    let ws = codec::WORKING_SET;
    let steal_start = host::steal_secs();
    let wall_start = Instant::now();
    let roofs_start = host::Roofs::measure(ws);
    let mut checks = Checks::default();
    let mut tracer = trace::Tracer::new(traced);

    // Set-up: codecs and compiled sessions, then the cluster boot. It is
    // timed before the codec rounds, after each of them, after each
    // cluster cycle and at the end, and the median is reported: load
    // from the host's other guests comes in stretches of seconds and
    // slows set-up by up to half, and set-ups spread over the whole run
    // sample those stretches as the run does. Each is timed in this
    // thread's CPU, which does all of the set-up's work (mostly building
    // `LRC_WIDE`), so steal from other guests does not count. Each boots
    // a cluster of its own and shuts it down.
    let mut setups = Vec::new();
    let mut setup_walls = Vec::new();
    let mut setup = || -> Result<codec::CodecSetup, String> {
        let dir = root.0.join(format!("setup{}", setups.len()));
        let (t, wall) = (host::thread_cpu_secs(), Instant::now());
        let cs = codec::CodecSetup::new()?;
        let cl = cluster::Cluster::boot(&dir, shape.code, seed)?;
        setups.push(host::thread_cpu_secs() - t);
        setup_walls.push(wall.elapsed().as_secs_f64());
        cl.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        Ok(cs)
    };
    let codec_setup = setup()?;

    // The codec rounds take half of `--seconds`. After each round,
    // set-up is timed again, and after every third the simulator runs
    // its two scenarios once, so all three sample the whole stretch.
    let mut simb = sim::SimBench::new();
    let mut round = 0;
    let codec = codec::run(&codec_setup, seed, seconds / 2.0, &mut checks, &mut || {
        if round % 3 == 0 {
            simb.run_once();
        }
        round += 1;
        setup().map(drop)
    })?;
    drop(codec_setup);
    let codec_done = wall_start.elapsed().as_secs_f64();
    let simr = simb.finish(&mut checks);
    let dir = root.0.join("cluster");
    let mut cl = cluster::Cluster::boot(&dir, shape.code, seed)?;
    let clus = cluster::run(&mut cl, shape, seed, &mut tracer, &mut checks, &mut || {
        setup().map(drop)
    });
    cl.shutdown();
    // Free the chunk files before the closing roofs, so the kernel does
    // not write them back while the roofs are measured.
    let _ = std::fs::remove_dir_all(&dir);
    let clus = clus?;
    let cluster_done = wall_start.elapsed().as_secs_f64();
    setup()?;
    let roofs_end = host::Roofs::measure(ws);
    let ms = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{:.1}", x * 1e3))
            .collect::<Vec<_>>()
    };
    notes.push(format!(
        "wall s at the end of each part: roofs, set-up, codec and simulator {codec_done:.1}; \
         cluster {cluster_done:.1}; closing set-up and roofs {:.1}",
        wall_start.elapsed().as_secs_f64()
    ));
    notes.push(format!(
        "set-up ms, CPU [{}], wall [{}]",
        ms(&setups).join(" "),
        ms(&setup_walls).join(" ")
    ));

    let attempted = clus.attempted + codec.attempted + simr.attempted;
    let failed = clus.failed;
    notes.extend(clus.notes);
    notes.extend(codec.notes);
    notes.extend(simr.notes);
    notes.push(format!(
        "roofs over {} MiB: memcpy {:.2} -> {:.2} GiB/s, xor_into {:.2} -> {:.2} GiB/s (start -> end)",
        ws as f64 / MIB as f64,
        roofs_start.memcpy,
        roofs_end.memcpy,
        roofs_start.xor_into,
        roofs_end.xor_into
    ));
    if let (Some(a), Some(b)) = (steal_start, host::steal_secs()) {
        notes.push(format!(
            "host steal: {:.2} CPU-s of {:.2} s wall went to other guests (a slow host, not slow code)",
            b - a,
            wall_start.elapsed().as_secs_f64()
        ));
    }
    notes.push(format!(
        "operations: attempted {attempted}, failed {failed}, retried 0 (the benchmark never \
         retries; the agent's own re-attempts are repair.failed_attempts); checks passed {}",
        checks.passed
    ));

    let mut e2e = vec![Metric::new(
        "setup_s",
        "s",
        stats::median(&setups).unwrap_or(f64::NAN),
    )];
    e2e.extend(clus.e2e);
    e2e.extend(codec.e2e);

    let metrics = if traced {
        let mul = host::kernel_gibps(host::Kernel::MulAcc, ws, 10, 0.1);
        let mul16 = host::kernel_gibps(host::Kernel::Mul16Acc, ws, 10, 0.1);
        let mut layers = vec![
            Metric::new("gf.memcpy_gibps", "GiB/s", roofs_start.memcpy),
            Metric::new("gf.memcpy_end_gibps", "GiB/s", roofs_end.memcpy),
            Metric::new("gf.xor_into_gibps", "GiB/s", roofs_start.xor_into),
            Metric::new("gf.xor_into_end_gibps", "GiB/s", roofs_end.xor_into),
            Metric::new("gf.mul_acc_gibps", "GiB/s", mul),
            Metric::new("gf.mul16_acc_gibps", "GiB/s", mul16),
            Metric::new("gf.mul_acc_roof_ratio", "x", mul / roofs_start.memcpy),
            Metric::new("gf.mul16_acc_roof_ratio", "x", mul16 / roofs_start.memcpy),
        ];
        layers.extend(codec.layers);
        layers.extend(clus.layers);
        layers.extend(simr.layers);
        // The layered trace itself, for reading stage by stage.
        let path = PathBuf::from(format!(".bench_spans/{}-seed{seed}.jsonl", shape.name));
        notes.push(match tracer.write_jsonl(&path) {
            Ok(()) => format!(
                "trace: {} spans over {} operations written to {}",
                tracer.len(),
                tracer.ops(),
                path.display()
            ),
            Err(e) => format!("trace: spans not written to {}: {e}", path.display()),
        });
        layers
    } else {
        // Measured on every run but bounded nowhere: the wall-time and
        // simulator figures.
        for m in clus.layers.iter().chain(&simr.layers) {
            notes.push(format!("layer {} {:.4} {}", m.name, m.value, m.unit));
        }
        e2e.clone()
    };
    let declared = if traced { PER_LAYER } else { END_TO_END };
    let mut got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let mut want = declared.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err("the run did not produce exactly the declared metrics".into());
    }
    if checks.failed > checks.failures.len() as u64 {
        notes.push(format!(
            "and {} more failed checks",
            checks.failed - checks.failures.len() as u64
        ));
    }
    let report = Report {
        correct: checks.failed == 0,
        attempted,
        failed,
        metrics,
    };
    Ok(Outcome {
        report,
        e2e,
        failures: checks.failures,
        notes,
    })
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --ledger [--seed <n>] [--seconds <s>]",
        names.join("|")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    ledger: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: false,
        ledger: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--ledger" {
            a.ledger = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if a.workload.is_none() && !a.ledger {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn shape(name: &str) -> Result<&'static Shape, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

fn print_outcome(o: &Outcome) {
    for n in &o.notes {
        println!("# {n}");
    }
    for f in &o.failures {
        println!("# CHECK FAILED: {f}");
    }
}

/// Runs every workload untraced and traced, printing both end-to-end
/// columns (the tracing overhead) and the per-layer metrics.
fn ledger(seed: u64, seconds: f64) -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        let runs: Vec<_> = [false, true]
            .iter()
            .map(|&t| run_workload(w, seed, seconds, t))
            .collect();
        let (plain, traced) = match (&runs[0], &runs[1]) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                println!("{}: error: {e}", w.name);
                ok = false;
                continue;
            }
        };
        print_outcome(plain);
        print_outcome(traced);
        ok &= plain.report.correct && traced.report.correct;
        println!(
            "{:<28} {:>14} {:>14} {:>9}",
            w.name, "untraced", "traced", "diff"
        );
        for (m, t) in plain.e2e.iter().zip(&traced.e2e) {
            let over = 100.0 * (t.value - m.value) / m.value;
            println!(
                "{:<28} {:>14.4} {:>14.4} {:>8.1}% {}",
                m.name, m.value, t.value, over, m.unit
            );
        }
        for m in &traced.report.metrics {
            println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    ok
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    if args.ledger {
        std::process::exit(if ledger(args.seed, args.seconds) {
            0
        } else {
            1
        });
    }
    let result = shape(args.workload.as_deref().unwrap_or_default())
        .and_then(|w| run_workload(w, args.seed, args.seconds, args.trace));
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    print_outcome(&outcome);
    let mut report = outcome.report;
    let problems = report.problems();
    for p in &problems {
        println!("# INVALID METRIC: {p}");
    }
    if !report.correct || !problems.is_empty() {
        report.correct = false;
        report.metrics.clear();
        println!("{}", report.to_json());
        std::process::exit(1);
    }
    if args.trace {
        // The traced run's end-to-end numbers, for comparison with an
        // untraced run of the same seed (`--ledger` prints both).
        for m in &outcome.e2e {
            println!("# traced {} {:.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let compact: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        assert_eq!(END_TO_END.len(), 8);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a: Vec<String> = "--workload rs_cluster --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let p = parse_args(&a).unwrap();
        assert_eq!((p.seed, p.seconds, p.trace), (7, 3.0, true));
        for bad in [
            "--seed x --workload a",
            "--trace 2 --workload a",
            "--seed 1",
            "--bogus 1",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }
}

//! The codec part: library-level, in memory, on one thread.
//!
//! `encode_into` runs for `LRC(10,6,5)` (narrow, GF(2^8)) and
//! `LRC_WIDE` (260 lanes, GF(2^16)); `RepairSession::repair` is replayed
//! for every single data-lane loss of `LRC(10,6,5)` (light: 5 lanes
//! read) and `RS(10,4)` (heavy: 10 lanes read). The three codes share
//! one pool of data lanes; each keeps its own parity.

use crate::codecs;
use crate::host::{gib, thread_cpu_secs, CopyRef};
use crate::report::Metric;
use crate::stats;
use crate::Checks;
use std::time::Instant;
use xorbas_core::{CodeSpec, RepairSession, StripeViewMut};
use xorbas_sim::CodecInstance;

/// Data lanes of the narrow codes.
const K: usize = 10;
/// Data lanes of `LRC_WIDE`.
const K_WIDE: usize = 200;
/// Rounds the measurements take turns in.
pub const ROUNDS: usize = 12;
/// Lane size of the narrow codes: the cluster's 1 MiB chunk.
const LANE: usize = 1 << 20;
/// Lane size of `LRC_WIDE`.
const WIDE_LANE: usize = 64 << 10;
/// Narrow stripes in the pool: 120 MiB of data lanes, beyond the
/// last-level cache.
const STRIPES: usize = 12;
/// Bytes of the pool's data lanes: the working set the roofs and GF
/// kernels are measured over.
pub const WORKING_SET: usize = STRIPES * K * LANE;

/// Codecs and compiled sessions: the codec part's share of set-up.
pub struct CodecSetup {
    narrow: CodecInstance,
    wide: CodecInstance,
    heavy: CodecInstance,
    light_sessions: Vec<RepairSession>,
    heavy_sessions: Vec<RepairSession>,
    /// Microseconds per light / heavy session compile.
    compile_us: (Vec<f64>, Vec<f64>),
}

impl CodecSetup {
    /// Builds the three codecs and compiles one session per single
    /// data-lane loss of the narrow codes.
    pub fn new() -> Result<Self, String> {
        let narrow = codecs::build(CodeSpec::LRC_10_6_5)?;
        let wide = codecs::build(CodeSpec::LRC_WIDE)?;
        let heavy = codecs::build(CodeSpec::RS_10_4)?;
        let compile = |codec: &CodecInstance| -> Result<(Vec<RepairSession>, Vec<f64>), String> {
            let mut sessions = Vec::new();
            let mut us = Vec::new();
            for lane in 0..K {
                let t = Instant::now();
                let s = codec
                    .repair_session(&[lane])
                    .ok_or("codec without sessions")?
                    .map_err(|e| e.to_string())?;
                us.push(t.elapsed().as_secs_f64() * 1e6);
                sessions.push(s);
            }
            Ok((sessions, us))
        };
        let (light_sessions, light_us) = compile(&narrow)?;
        let (heavy_sessions, heavy_us) = compile(&heavy)?;
        Ok(Self {
            narrow,
            wide,
            heavy,
            light_sessions,
            heavy_sessions,
            compile_us: (light_us, heavy_us),
        })
    }
}

/// The stripe pool: data lanes shared by all three codes, and each
/// code's parity.
struct Pool {
    lane: usize,
    wide_lane: usize,
    data: Vec<u8>,
    lrc_parity: Vec<u8>,
    rs_parity: Vec<u8>,
    wide_parity: Vec<u8>,
}

impl Pool {
    fn new(seed: u64) -> Self {
        let data = original(seed);
        let wide_stripes = data.len() / (K_WIDE * WIDE_LANE);
        Self {
            lane: LANE,
            wide_lane: WIDE_LANE,
            data,
            lrc_parity: vec![0u8; STRIPES * 6 * LANE],
            rs_parity: vec![0u8; STRIPES * 4 * LANE],
            wide_parity: vec![0u8; wide_stripes * 60 * WIDE_LANE],
        }
    }

    /// Moves every buffer to freshly allocated memory.
    fn relocate(&mut self) {
        for b in [
            &mut self.data,
            &mut self.lrc_parity,
            &mut self.rs_parity,
            &mut self.wide_parity,
        ] {
            *b = b.clone();
        }
    }

    fn narrow<'a>(&'a mut self, setup: &'a CodecSetup) -> View<'a> {
        View::new(
            &setup.narrow,
            &mut self.data,
            &mut self.lrc_parity,
            K,
            self.lane,
        )
    }

    fn heavy<'a>(&'a mut self, setup: &'a CodecSetup) -> View<'a> {
        View::new(
            &setup.heavy,
            &mut self.data,
            &mut self.rs_parity,
            K,
            self.lane,
        )
    }

    fn wide<'a>(&'a mut self, setup: &'a CodecSetup) -> View<'a> {
        View::new(
            &setup.wide,
            &mut self.data,
            &mut self.wide_parity,
            K_WIDE,
            self.wide_lane,
        )
    }
}

/// The pool's data lanes for `seed`.
fn original(seed: u64) -> Vec<u8> {
    let mut data = vec![0u8; WORKING_SET];
    crate::rng::fill_bytes(seed ^ 0xC0DEC, 0, &mut data);
    data
}

/// One code's view of the pool: the shared data lanes and its parity.
struct View<'a> {
    codec: &'a CodecInstance,
    data: &'a mut [u8],
    parity: &'a mut [u8],
    k: usize,
    m: usize,
    lane: usize,
}

impl<'a> View<'a> {
    fn new(
        codec: &'a CodecInstance,
        data: &'a mut [u8],
        parity: &'a mut [u8],
        k: usize,
        lane: usize,
    ) -> Self {
        let m = codec.total_blocks() - k;
        Self {
            codec,
            data,
            parity,
            k,
            m,
            lane,
        }
    }

    fn stripes(&self) -> usize {
        self.parity.len() / (self.m * self.lane)
    }

    /// Data lanes and parity lanes of stripe `s`.
    fn lanes(&mut self, s: usize) -> (Vec<&mut [u8]>, Vec<&mut [u8]>) {
        let (k, m, lane) = (self.k, self.m, self.lane);
        let d = self.data[s * k * lane..(s + 1) * k * lane]
            .chunks_exact_mut(lane)
            .collect();
        let p = self.parity[s * m * lane..(s + 1) * m * lane]
            .chunks_exact_mut(lane)
            .collect();
        (d, p)
    }

    /// Encodes stripe `s`'s parity.
    fn encode(&mut self, s: usize) -> Result<(), String> {
        let codec = self.codec;
        let (d, mut p) = self.lanes(s);
        let d: Vec<&[u8]> = d.into_iter().map(|x| &*x).collect();
        codec.encode_into(&d, &mut p).map_err(|e| e.to_string())
    }

    /// Rebuilds `session`'s lost lane of stripe `s` in place.
    fn replay(&mut self, session: &RepairSession, s: usize) -> Result<(), String> {
        let (mut d, p) = self.lanes(s);
        d.extend(p);
        let mut view = StripeViewMut::new(&mut d, session.missing()).map_err(|e| e.to_string())?;
        session.repair(&mut view).map_err(|e| e.to_string())
    }

    /// Checks the parity lanes of every stripe against the owned
    /// `encode_stripe` path.
    fn check_encode(&mut self, checks: &mut Checks, what: &str) {
        for s in 0..self.stripes() {
            let (codec, k) = (self.codec, self.k);
            let (d, p) = self.lanes(s);
            let owned: Vec<Vec<u8>> = d.iter().map(|x| x.to_vec()).collect();
            let same = codecs::owned_encode(codec, &owned)
                .map(|full| full[k..].iter().zip(&p).all(|(a, b)| a.as_slice() == &**b));
            checks.expect(
                same == Ok(true),
                format!("{what} stripe {s}: encode_into equals encode_stripe"),
            );
        }
    }

    /// Repairs every pattern once on every stripe after wiping the lost
    /// lane, and checks the rebuilt lane equals the original and the
    /// plan reads `reads` lanes.
    fn check_replay(
        &mut self,
        checks: &mut Checks,
        what: &str,
        sessions: &[RepairSession],
        reads: usize,
    ) {
        let (lane, k) = (self.lane, self.k);
        let mut bad = Vec::new();
        for (i, session) in sessions.iter().enumerate() {
            checks.expect(
                session.plan().blocks_read() == reads,
                format!("{what} replay of lane {i} reads {reads} lanes"),
            );
            for s in 0..self.stripes() {
                let range = (s * k + i) * lane..(s * k + i + 1) * lane;
                let original = self.data[range.clone()].to_vec();
                self.data[range.clone()].fill(0);
                if self.replay(session, s).is_err() || self.data[range.clone()] != original[..] {
                    bad.push((s, i));
                }
                self.data[range].copy_from_slice(&original);
            }
        }
        checks.expect(
            bad.is_empty(),
            format!("{what} replays rebuild the original lane (wrong at stripe, lane {bad:?})"),
        );
    }
}

/// One measurement's samples: the thread CPU seconds of every call, and
/// every call's ratio to the paired copy of its bytes.
#[derive(Default)]
struct Calls {
    secs: Vec<f64>,
    roof_ratio: Vec<f64>,
    /// Calls made; the next call takes item `made % items`, so the
    /// rounds together go round-robin over every item.
    made: usize,
}

/// Runs `op` round-robin over `items` for `secs` of wall time (at least
/// one call). Before each call, `copy` streams the `bytes` the call
/// works through; both are timed in thread CPU and appended to `calls`.
/// Returns the calls made.
fn timed_loop(
    secs: f64,
    items: usize,
    copy: &mut CopyRef,
    bytes: usize,
    calls: &mut Calls,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut made = 0;
    while made == 0 || start.elapsed().as_secs_f64() < secs {
        let reference = copy.secs(bytes);
        let cpu = thread_cpu_secs();
        op(calls.made % items)?;
        let call = thread_cpu_secs() - cpu;
        calls.secs.push(call);
        calls.roof_ratio.push(reference / call);
        calls.made += 1;
        made += 1;
    }
    Ok(made)
}

/// Results of the codec part.
pub struct CodecResult {
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (`core.*`).
    pub layers: Vec<Metric>,
    /// Timed calls.
    pub attempted: u64,
    /// Human-readable lines.
    pub notes: Vec<String>,
}

/// Runs the codec part for `secs` seconds in rounds, calling `between`
/// after each.
pub fn run(
    setup: &CodecSetup,
    seed: u64,
    secs: f64,
    checks: &mut Checks,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<CodecResult, String> {
    let mut pool = Pool::new(seed);
    let (lane, wide_lane) = (pool.lane, pool.wide_lane);
    let stripes = pool.narrow(setup).stripes();
    let wide_stripes = pool.wide(setup).stripes();
    // Parity for every code, outside the timing.
    for s in 0..stripes {
        pool.narrow(setup).encode(s)?;
        pool.heavy(setup).encode(s)?;
    }
    for s in 0..wide_stripes {
        pool.wide(setup).encode(s)?;
    }

    // The four measurements take turns in short rounds, so a stretch
    // of load from other guests on the host falls on all of them alike.
    // Each call is paired with a copy of the bytes it works through,
    // streamed from a buffer as large as the pool, just before it: that
    // load slows calls by up to half without stealing CPU, and slows the
    // copy beside them alike (see `CopyRef`). The end-to-end figures are
    // the median of those ratios; the absolute per-call CPU times, which
    // follow the load, are per-layer.
    let patterns = stripes * K;
    let mut copy = CopyRef::new(WORKING_SET);
    let (mut narrow_t, mut wide_t, mut light_t, mut heavy_t) = (
        Calls::default(),
        Calls::default(),
        Calls::default(),
        Calls::default(),
    );
    let mut calls = 0;
    // Wide encode gets three slices: its calls are the longest.
    let slice = secs / (6 * (ROUNDS + 1)) as f64;
    // One round more than is kept: the first warms up and is dropped.
    for round in 0..=ROUNDS {
        // Fresh memory for every round. How a buffer's pages fall in the
        // caches and memory channels sets a call's ratio to the copy for
        // as long as the buffer lives: with one allocation per run, every
        // round of a run read alike while runs differed by up to 0.2.
        // Moving the buffers samples a new layout each round.
        pool.relocate();
        copy = copy.relocate();
        if round == 1 {
            for c in [&mut narrow_t, &mut wide_t, &mut light_t, &mut heavy_t] {
                c.secs.clear();
                c.roof_ratio.clear();
            }
        }
        calls += timed_loop(slice, stripes, &mut copy, K * lane, &mut narrow_t, |s| {
            pool.narrow(setup).encode(s)
        })?;
        calls += timed_loop(
            3.0 * slice,
            wide_stripes,
            &mut copy,
            K_WIDE * wide_lane,
            &mut wide_t,
            |s| pool.wide(setup).encode(s),
        )?;
        // Consecutive replays touch consecutive stripes, so the sources
        // stream from memory rather than from the previous call's cache.
        calls += timed_loop(slice, patterns, &mut copy, 5 * lane, &mut light_t, |i| {
            pool.narrow(setup)
                .replay(&setup.light_sessions[i / stripes], i % stripes)
        })?;
        calls += timed_loop(slice, patterns, &mut copy, 10 * lane, &mut heavy_t, |i| {
            pool.heavy(setup)
                .replay(&setup.heavy_sessions[i / stripes], i % stripes)
        })?;
        between()?;
    }
    drop(copy);

    // Every output of the timed rounds, checked after them: the
    // replays rebuilt the data lanes in place, and the last encode of
    // each stripe is its parity. Then every replay pattern once more on
    // every stripe, from a wiped lane.
    checks.expect(
        pool.data == original(seed),
        "timed replays left the original data lanes",
    );
    pool.narrow(setup).check_encode(checks, "LRC(10,6,5)");
    pool.heavy(setup).check_encode(checks, "RS(10,4)");
    pool.wide(setup).check_encode(checks, "LRC_WIDE");
    pool.narrow(setup)
        .check_replay(checks, "light", &setup.light_sessions, 5);
    pool.heavy(setup)
        .check_replay(checks, "heavy", &setup.heavy_sessions, 10);

    let med = |t: &[f64]| stats::median(t).unwrap_or(f64::NAN);
    let narrow_gibps = gib(K * lane) / med(&narrow_t.secs);
    let wide_gibps = gib(K_WIDE * wide_lane) / med(&wide_t.secs);
    let light_gibps = gib(5 * lane) / med(&light_t.secs);
    let heavy_gibps = gib(10 * lane) / med(&heavy_t.secs);
    let attempted = calls as u64;
    let notes = vec![format!(
        "codec: pool {} MiB of data ({} narrow stripes at {} KiB lanes, {} wide stripes at {} KiB lanes); \
         {} calls in {} rounds",
        pool.data.len() >> 20,
        stripes,
        lane >> 10,
        wide_stripes,
        wide_lane >> 10,
        calls,
        ROUNDS
    )];
    let e2e = vec![
        Metric::new("encode_narrow_roof_ratio", "x", med(&narrow_t.roof_ratio)),
        Metric::new("encode_wide_roof_ratio", "x", med(&wide_t.roof_ratio)),
        Metric::new("replay_light_roof_ratio", "x", med(&light_t.roof_ratio)),
        Metric::new("replay_heavy_roof_ratio", "x", med(&heavy_t.roof_ratio)),
    ];
    let layers = vec![
        Metric::new("core.encode_ms.narrow", "ms", med(&narrow_t.secs) * 1e3),
        Metric::new("core.encode_ms.wide", "ms", med(&wide_t.secs) * 1e3),
        Metric::new("core.encode_gibps.narrow", "GiB/s", narrow_gibps),
        Metric::new("core.encode_gibps.wide", "GiB/s", wide_gibps),
        Metric::new("core.replay_ms.light", "ms", med(&light_t.secs) * 1e3),
        Metric::new("core.replay_ms.heavy", "ms", med(&heavy_t.secs) * 1e3),
        Metric::new("core.replay_gibps.light", "GiB/s", light_gibps),
        Metric::new("core.replay_gibps.heavy", "GiB/s", heavy_gibps),
        Metric::new("core.compile_us.light", "us", med(&setup.compile_us.0)),
        Metric::new("core.compile_us.heavy", "us", med(&setup.compile_us.1)),
    ];
    Ok(CodecResult {
        e2e,
        layers,
        attempted,
        notes,
    })
}

//! Cross-codec differential harness: one generic suite driving all
//! four codec families — RS (10,4), LRC (10,6,5), piggybacked RS (10,4)
//! and 3-replication — through the identical checks:
//!
//! * roundtrip at assorted symbol-aligned lengths (including the
//!   byte-scale odd tails the serial fallback handles);
//! * **every** single- and double-erasure pattern repaired
//!   bit-identically via all four surfaces: the owned-`Vec`
//!   `reconstruct`, the zero-copy `RepairSession` replay,
//!   `encode_into`, and `encode_into_parallel`;
//! * repair-read costs asserted *exactly* per family: RS always reads
//!   `k` lanes, the LRC light decoder reads its 5-lane local group,
//!   and a piggyback single-data-lane repair moves strictly fewer than
//!   `k` lane-volumes (the ISSUE's ~30% byte saving) while touching
//!   `k + 1` lanes, and replication copies one surviving replica.
//!
//! CI runs this harness under both native kernel dispatch and
//! `XORBAS_FORCE_SCALAR=1`, so a SIMD-only or scalar-only regression in
//! any family cannot hide.

use xorbas::codes::{
    encode_into_parallel, ErasureCodec, Lrc, PiggybackRs, ReedSolomon, Replication, StripeViewMut,
};

/// Deterministic pseudo-random payloads from a seed.
fn seeded_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as u8
    };
    (0..k).map(|_| (0..len).map(|_| next()).collect()).collect()
}

/// Drives one codec + payload + erasure pattern through every encode
/// and repair surface and asserts they agree bit-for-bit.
fn assert_all_paths_agree<C: ErasureCodec + Sync>(
    codec: &C,
    name: &str,
    data: &[Vec<u8>],
    erased: &[usize],
    threads: usize,
) {
    let k = codec.data_blocks();
    let n = codec.total_blocks();
    let len = data[0].len();

    // Encode: owned wrapper vs encode_into vs encode_into_parallel.
    let stripe = codec.encode_stripe(data).unwrap();
    assert_eq!(&stripe[..k], data, "{name}: systematic prefix");
    let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let mut parity = vec![vec![0xA5u8; len]; n - k];
    {
        let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        codec.encode_into(&data_refs, &mut parity_refs).unwrap();
    }
    assert_eq!(&stripe[k..], &parity[..], "{name}: encode_into parity");
    let mut par_parity = vec![vec![0x5Au8; len]; n - k];
    {
        let mut parity_refs: Vec<&mut [u8]> =
            par_parity.iter_mut().map(Vec::as_mut_slice).collect();
        encode_into_parallel(codec, &data_refs, &mut parity_refs, threads).unwrap();
    }
    assert_eq!(parity, par_parity, "{name}: parallel parity");

    if erased.is_empty() {
        return;
    }

    // Repair: owned reconstruct vs compiled session over borrowed
    // lanes whose stale contents must be fully overwritten.
    let mut shards: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
    for &e in erased {
        shards[e] = None;
    }
    codec
        .reconstruct(&mut shards)
        .unwrap_or_else(|e| panic!("{name}: owned reconstruct of {erased:?}: {e}"));
    let session = codec
        .repair_session(erased)
        .unwrap_or_else(|e| panic!("{name}: session compile for {erased:?}: {e}"));
    let mut lanes = stripe.clone();
    for &e in erased {
        lanes[e].fill(0xEE);
    }
    let mut lane_refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    let mut view = StripeViewMut::new(&mut lane_refs, erased).unwrap();
    session.repair(&mut view).unwrap();
    drop(lane_refs);
    for (i, s) in shards.iter().enumerate() {
        assert_eq!(
            s.as_ref().unwrap(),
            &lanes[i],
            "{name}: lane {i} owned-vs-session for {erased:?}"
        );
        assert_eq!(
            &lanes[i], &stripe[i],
            "{name}: lane {i} round trip for {erased:?}"
        );
    }
}

/// The generic suite: assorted-length roundtrips, then every single and
/// every double erasure pattern at a fixed mid-size payload.
fn differential_suite<C: ErasureCodec + Sync>(codec: &C, name: &str) {
    let sb = codec.symbol_bytes();
    let n = codec.total_blocks();
    let k = codec.data_blocks();

    // Assorted lengths: one symbol, an odd handful, a fused-kernel
    // span, and a parallel-splitting span — each with a single loss.
    for (i, &base) in [1usize, 7, 129, 9001].iter().enumerate() {
        let len = base * sb;
        let data = seeded_data(k, len, 0xD1F + base as u64);
        assert_all_paths_agree(codec, name, &data, &[i % n], 3);
    }

    // Every single- and double-erasure pattern (the coded families
    // have distance 5 and 3-replication distance 3, so every such
    // pattern must recover).
    let len = 32 * sb;
    let data = seeded_data(k, len, 0xD1F);
    for a in 0..n {
        assert_all_paths_agree(codec, name, &data, &[a], 2);
        for b in a + 1..n {
            assert_all_paths_agree(codec, name, &data, &[a, b], 2);
        }
    }
}

#[test]
fn reed_solomon_passes_the_differential_suite() {
    let rs: ReedSolomon = ReedSolomon::new(10, 4).unwrap();
    differential_suite(&rs, "rs(10,4)");
}

#[test]
fn lrc_passes_the_differential_suite() {
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    differential_suite(&lrc, "lrc(10,6,5)");
}

#[test]
fn piggyback_passes_the_differential_suite() {
    let pb: PiggybackRs = PiggybackRs::new(10, 4).unwrap();
    differential_suite(&pb, "pb(10,4)");
}

#[test]
fn replication_passes_the_differential_suite() {
    let rep = Replication::new(3).unwrap();
    differential_suite(&rep, "replication(3)");
}

/// Repair-read costs pinned exactly, per family, for every lane.
#[test]
fn repair_read_costs_are_exact_per_family() {
    // RS: every repair is a heavy k-lane read at full volume.
    let rs: ReedSolomon = ReedSolomon::new(10, 4).unwrap();
    for lost in 0..rs.total_blocks() {
        let plan = rs.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), 10, "rs lane {lost}");
        assert_eq!(plan.read_volume(), 10.0, "rs lane {lost}");
        assert!(!plan.tasks[0].light, "rs lane {lost}");
    }

    // LRC: every single loss decodes light from its 5-lane local group.
    let lrc = Lrc::xorbas_10_6_5().unwrap();
    for lost in 0..lrc.total_blocks() {
        let plan = lrc.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), 5, "lrc lane {lost}");
        assert_eq!(plan.read_volume(), 5.0, "lrc lane {lost}");
        assert!(plan.tasks[0].light, "lrc lane {lost}");
    }

    // Piggyback: a lost data lane touches k+1 = 11 lanes but moves
    // (k + group)/2 < k lane-volumes — out-of-group lanes contribute a
    // single substripe half. Parity losses fall back to RS cost.
    let pb: PiggybackRs = PiggybackRs::new(10, 4).unwrap();
    let k = 10;
    let mut total_volume = 0.0;
    for lost in 0..k {
        let plan = pb.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), k + 1, "pb data lane {lost}");
        let volume = plan.read_volume();
        assert!(
            volume < k as f64,
            "pb data lane {lost}: volume {volume} not below k"
        );
        // Group sizes at (10,4) are {4,3,3}: volume is (10+g)/2.
        let group = [4.0, 3.0, 3.0][lost % 3];
        assert_eq!(volume, (10.0 + group) / 2.0, "pb data lane {lost}");
        total_volume += volume;
    }
    // The headline: 6.7 mean vs RS's 10.0 — the ~33% byte saving.
    assert!((total_volume / k as f64 - 6.7).abs() < 1e-12);
    for lost in k..pb.total_blocks() {
        let plan = pb.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), 10, "pb parity lane {lost}");
        assert_eq!(plan.read_volume(), 10.0, "pb parity lane {lost}");
    }

    // Replication: every loss copies one surviving replica, light.
    let rep = Replication::new(3).unwrap();
    for lost in 0..rep.total_blocks() {
        let plan = rep.repair_plan(&[lost]).unwrap();
        assert_eq!(plan.blocks_read(), 1, "replication lane {lost}");
        assert_eq!(plan.read_volume(), 1.0, "replication lane {lost}");
        assert!(plan.tasks[0].light, "replication lane {lost}");
    }
}

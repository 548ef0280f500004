//! [`CodecInstance`]: the one codec handle, built from a [`CodeSpec`].
//!
//! Every consumer that starts from a spec — the simulator, the node's
//! client and repair agent, the benchmark — builds through
//! [`CodecInstance::build`] and then talks to the [`ErasureCodec`] trait
//! through `Deref`. The enum exists only to pick the field by
//! blocklength and to own the concrete codec; it restates no trait
//! method.

use crate::error::Result;
use crate::session::RepairSession;
use crate::spec::CodeSpec;
use crate::{
    ErasureCodec, Lrc, PiggybackRs, ReedSolomon, Replication, WideLrc, WidePiggyback,
    WideReedSolomon,
};
use std::ops::Deref;

/// Highest stripe blocklength GF(2^8) supports (`q - 1`); wider specs
/// build over GF(2^16).
const GF256_MAX_LANES: usize = 255;

/// The codec for one [`CodeSpec`], usable as a
/// `dyn ErasureCodec + Send + Sync` through `Deref`.
///
/// [`CodecInstance::build`] picks the field from the geometry: specs
/// whose blocklength fits GF(2^8) use it (one-byte symbols, the paper's
/// deployment); wider stripes — e.g. [`CodeSpec::RS_200_60`] or the
/// [`CodeSpec::LRC_WIDE`] layout at 260 lanes — build over GF(2^16).
#[derive(Debug, Clone)]
pub enum CodecInstance {
    /// Plain replication: repair copies a surviving replica.
    Replication(Replication),
    /// Reed-Solomon ("HDFS-RS").
    Rs(ReedSolomon),
    /// Locally repairable code ("HDFS-Xorbas").
    Lrc(Lrc),
    /// Reed-Solomon over GF(2^16) (wide stripes).
    RsWide(WideReedSolomon),
    /// Locally repairable code over GF(2^16) (wide stripes).
    LrcWide(WideLrc),
    /// Piggybacked Reed-Solomon (repair-bandwidth-optimal RS).
    Piggyback(PiggybackRs),
    /// Piggybacked Reed-Solomon over GF(2^16) (wide stripes).
    PiggybackWide(WidePiggyback),
}

impl CodecInstance {
    /// Builds the codec for a spec (Appendix-D constructions), choosing
    /// GF(2^8) or GF(2^16) by the spec's blocklength. Fails on any spec
    /// [`CodeSpec::validate`] rejects.
    pub fn build(spec: CodeSpec) -> Result<Self> {
        spec.validate()?;
        let narrow = spec.total_blocks() <= GF256_MAX_LANES;
        Ok(match spec {
            CodeSpec::Replication { replicas } => Self::Replication(Replication::new(replicas)?),
            CodeSpec::ReedSolomon { k, m } if narrow => Self::Rs(ReedSolomon::new(k, m)?),
            CodeSpec::ReedSolomon { k, m } => Self::RsWide(WideReedSolomon::new(k, m)?),
            CodeSpec::Lrc(lrc) if narrow => Self::Lrc(Lrc::new(lrc)?),
            CodeSpec::Lrc(lrc) => Self::LrcWide(WideLrc::new(lrc)?),
            CodeSpec::Piggyback { k, m } if narrow => Self::Piggyback(PiggybackRs::new(k, m)?),
            CodeSpec::Piggyback { k, m } => Self::PiggybackWide(WidePiggyback::new(k, m)?),
        })
    }

    /// The concrete codec behind the handle, as a trait object.
    pub fn as_dyn(&self) -> &(dyn ErasureCodec + Send + Sync + 'static) {
        match self {
            Self::Replication(c) => c,
            Self::Rs(c) => c,
            Self::Lrc(c) => c,
            Self::RsWide(c) => c,
            Self::LrcWide(c) => c,
            Self::Piggyback(c) => c,
            Self::PiggybackWide(c) => c,
        }
    }

    /// [`ErasureCodec::repair_session`], always `Some`: the `Option` is
    /// kept for perfbench's `CodecSetup`, which unwraps it.
    pub fn repair_session(&self, unavailable: &[usize]) -> Option<Result<RepairSession>> {
        Some(self.as_dyn().repair_session(unavailable))
    }
}

impl Deref for CodecInstance {
    type Target = dyn ErasureCodec + Send + Sync;

    fn deref(&self) -> &Self::Target {
        self.as_dyn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes `data`, erases `lost`, reconstructs through the owned
    /// wrapper and checks the erased lanes come back bit-identical.
    fn round_trip(codec: &CodecInstance, data: &[Vec<u8>], lost: &[usize]) {
        let stripe = codec.encode_stripe(data).unwrap();
        assert_eq!(stripe.len(), codec.total_blocks());
        let mut shards: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
        for &l in lost {
            shards[l] = None;
        }
        codec.reconstruct(&mut shards).unwrap();
        for &l in lost {
            assert_eq!(shards[l].as_ref().unwrap(), &stripe[l], "lane {l}");
        }
    }

    #[test]
    fn replication_plan_copies_one_survivor() {
        let c = CodecInstance::build(CodeSpec::REPLICATION_3).unwrap();
        let plan = c.repair_plan_for(&[0, 2], &[0, 2]).unwrap();
        assert_eq!(plan.tasks.len(), 2);
        for t in &plan.tasks {
            assert_eq!(t.reads, vec![1]);
            assert!(t.light);
        }
        assert!(c.repair_plan_for(&[0, 1, 2], &[0]).is_err());
        // The compiled session replays the same copy.
        let session = c.repair_session(&[0, 2]).unwrap().unwrap();
        assert_eq!(session.plan(), &plan);
        assert_eq!(session.solve_count(), 0);
    }

    #[test]
    fn payload_round_trip_all_schemes() {
        let data: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8 + 1; 16]).collect();
        for spec in [CodeSpec::RS_10_4, CodeSpec::LRC_10_6_5, CodeSpec::PB_10_4] {
            round_trip(&CodecInstance::build(spec).unwrap(), &data, &[0, 11]);
        }
        let c = CodecInstance::build(CodeSpec::REPLICATION_3).unwrap();
        round_trip(&c, &data[..1], &[2]);
        round_trip(&c, &data[..1], &[0, 1]);
    }

    #[test]
    fn build_rejects_what_validate_rejects() {
        assert!(CodecInstance::build(CodeSpec::Replication { replicas: 1 }).is_err());
        assert!(CodecInstance::build(CodeSpec::ReedSolomon { k: 10, m: 0 }).is_err());
        assert!(CodecInstance::build(CodeSpec::Piggyback { k: 10, m: 1 }).is_err());
        assert!(CodecInstance::build(CodeSpec::ReedSolomon { k: 40000, m: 40000 }).is_err());
    }

    #[test]
    fn wide_specs_build_over_gf65536_and_keep_repair_local() {
        // 260-lane stripes exceed GF(2^8); build must pick the wide
        // field automatically and plan with the real wide codecs.
        let lrc = CodecInstance::build(CodeSpec::LRC_WIDE).unwrap();
        assert!(matches!(lrc, CodecInstance::LrcWide(_)));
        assert_eq!(lrc.total_blocks(), 260);
        let plan = lrc.repair_plan_for(&[3], &[3]).unwrap();
        assert!(plan.is_light());
        assert_eq!(plan.blocks_read(), 10);

        let rs = CodecInstance::build(CodeSpec::RS_200_60).unwrap();
        assert!(matches!(rs, CodecInstance::RsWide(_)));
        let plan = rs.repair_plan_for(&[3], &[3]).unwrap();
        assert!(!plan.is_light());
        assert_eq!(plan.blocks_read(), 200);

        // Narrow specs keep the GF(2^8) instantiation.
        assert!(matches!(
            CodecInstance::build(CodeSpec::RS_10_4).unwrap(),
            CodecInstance::Rs(_)
        ));
        assert!(matches!(
            CodecInstance::build(CodeSpec::REPLICATION_3).unwrap(),
            CodecInstance::Replication(_)
        ));
    }

    #[test]
    fn piggyback_builds_both_fields_and_reads_fewer_bytes() {
        let pb = CodecInstance::build(CodeSpec::PB_10_4).unwrap();
        assert!(matches!(pb, CodecInstance::Piggyback(_)));
        let plan = pb.repair_plan_for(&[3], &[3]).unwrap();
        assert!(!plan.is_light());
        assert_eq!(plan.blocks_read(), 11);
        assert!(plan.read_volume() <= 7.0);

        let wide = CodecInstance::build(CodeSpec::PB_200_60).unwrap();
        assert!(matches!(wide, CodecInstance::PiggybackWide(_)));
        assert_eq!(wide.total_blocks(), 260);
        let plan = wide.repair_plan_for(&[3], &[3]).unwrap();
        // (k + group)/2 with groups of 200/59 rounded: far below k=200.
        assert!(plan.read_volume() < 0.52 * 200.0, "{}", plan.read_volume());
    }

    #[test]
    fn wide_lrc_payload_round_trip() {
        // Verify-mode arithmetic through the GF(2^16) codec: encode all
        // 260 lanes from 200 data payloads and restore a mixed failure
        // (a data lane and a global parity lane).
        let c = CodecInstance::build(CodeSpec::LRC_WIDE).unwrap();
        let data: Vec<Vec<u8>> = (0..200).map(|i| vec![(i % 251) as u8 + 1; 16]).collect();
        round_trip(&c, &data, &[0, 230]);
    }
}

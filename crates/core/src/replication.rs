//! [`Replication`]: `f`-way replication as a repetition code.
//!
//! The paper's 3-replication baseline (§4) runs through the same
//! HDFS-RAID repair machinery as the two erasure codes. Behind the
//! [`ErasureCodec`] trait it is the `(f, 1)` repetition code: one data
//! lane, `f - 1` "parity" lanes that copy it, and a repair that reads a
//! single surviving replica. Its [`RepairSession`] steps are
//! coefficient-1 copies, so replicated stripes replay through the same
//! session path as every other family.

use crate::codec::{
    check_data_lanes, check_parity_lanes, normalize_indices, ErasureCodec, RepairPlan, RepairTask,
};
use crate::error::{CodeError, Result};
use crate::session::{CompiledStep, RepairSession};
use crate::spec::CodeSpec;
use xorbas_gf::{Field, Gf256};

/// `replicas`-way replication: lane 0 is the data, lanes `1..replicas`
/// are copies of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replication {
    replicas: usize,
}

impl Replication {
    /// A replication codec with `replicas` copies (at least 2).
    pub fn new(replicas: usize) -> Result<Self> {
        CodeSpec::Replication { replicas }.validate()?;
        Ok(Self { replicas })
    }
}

impl ErasureCodec for Replication {
    fn data_blocks(&self) -> usize {
        1
    }

    fn total_blocks(&self) -> usize {
        self.replicas
    }

    fn spec(&self) -> CodeSpec {
        CodeSpec::Replication {
            replicas: self.replicas,
        }
    }

    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<()> {
        let len = check_data_lanes(data, 1)?;
        check_parity_lanes(parity, self.replicas - 1, len)?;
        for lane in parity.iter_mut() {
            lane.copy_from_slice(data[0]);
        }
        Ok(())
    }

    /// Every target copies the first replica not in `unavailable`.
    fn repair_plan_for(&self, unavailable: &[usize], targets: &[usize]) -> Result<RepairPlan> {
        let n = self.replicas;
        let unavailable = normalize_indices(unavailable, n)?;
        let targets = normalize_indices(targets, n)?;
        if let Some(&bad) = targets.iter().find(|t| !unavailable.contains(t)) {
            return Err(CodeError::InvalidParameters(format!(
                "target block {bad} is not among the unavailable blocks"
            )));
        }
        let Some(survivor) = (0..n).find(|p| !unavailable.contains(p)) else {
            return Err(CodeError::Unrecoverable {
                erased: unavailable,
            });
        };
        Ok(RepairPlan {
            tasks: targets
                .iter()
                .map(|&t| RepairTask {
                    repairs: vec![t],
                    reads: vec![survivor],
                    half_reads: vec![],
                    light: true,
                })
                .collect(),
            missing: targets,
        })
    }

    fn repair_session(&self, unavailable: &[usize]) -> Result<RepairSession> {
        let plan = self.repair_plan(unavailable)?;
        let steps = plan
            .tasks
            .iter()
            .map(|t| CompiledStep {
                target: t.repairs[0],
                sources: vec![(t.reads[0], Gf256::ONE.index())],
            })
            .collect();
        Ok(RepairSession::from_parts::<Gf256>(
            self.replicas,
            plan.missing.clone(),
            plan,
            steps,
            0,
        ))
    }
}

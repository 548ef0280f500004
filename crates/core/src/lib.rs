//! Locally Repairable Codes and their Reed-Solomon baseline — the core
//! of the "XORing Elephants" (VLDB 2013) reproduction.
//!
//! # What this crate provides
//!
//! * [`ReedSolomon`] — the `(k, m)` MDS baseline ("HDFS-RS"), including
//!   the Appendix-D aligned construction whose blocks XOR to zero.
//! * [`Lrc`] — `(k, n-k, r)` Locally Repairable Codes with local XOR
//!   parities, the implied-parity optimization, a peeling *light
//!   decoder* and a full-rank *heavy decoder* (§2.1, §3.1.2).
//! * [`PiggybackRs`] — the repair-bandwidth-optimal third family: a
//!   2-substripe piggybacked RS at RS storage whose single-data-loss
//!   repairs read ~0.67x the bytes.
//! * [`Replication`] — the `f`-way replication baseline as a
//!   repetition code behind the same trait.
//! * [`CodecInstance`] — the one codec handle: built from a
//!   [`CodeSpec`], field chosen by blocklength, used as a
//!   `dyn ErasureCodec` through `Deref`.
//! * [`analysis`] — brute-force ground truth: minimum distance
//!   (Definition 1), block locality (Definition 2), and the expected
//!   single-repair read counts that drive the §4 reliability model.
//! * [`bounds`] — Theorem 1/2 formulas and the Figure-8 certificate.
//! * [`construction`] — Theorem-4 randomized constructions and the
//!   exponential deterministic search.
//!
//! # Module map (paper section → item)
//!
//! | Paper | Item | What it provides |
//! |---|---|---|
//! | §2.1 / App. D codes | [`Lrc`], [`ReedSolomon`] | the two contenders, Appendix-D constructions |
//! | §3, §4 baselines | [`CodecInstance`], [`Replication`] | one handle per spec; replication as a codec |
//! | §3.1.2 decoders | [`ErasureCodec`], [`peeling`] | light/heavy repair planning and execution |
//! | §3.1.2 hot path | [`ErasureCodec::encode_into`], [`RepairSession`], [`StripeViewMut`] | the zero-copy surface (see `docs/ARCHITECTURE.md`) |
//! | Defs. 1–2 | [`analysis`] | brute-force distance / locality ground truth |
//! | Thms. 1–2, Fig. 8 | [`bounds`] | bound formulas and certificates |
//! | Thm. 4 | [`construction`] | randomized/deterministic constructions |
//! | — | [`encode_into_parallel`] | thread-sharded encode for multi-core hosts |
//!
//! Field arithmetic and the SIMD payload kernels live below in
//! [`xorbas_gf`]; matrix solves in [`xorbas_linalg`]. The simulator
//! (`xorbas_sim`) and the reliability model (`xorbas_reliability`)
//! consume this crate's planners, so every simulated repair and every
//! MTTDL row is backed by the real decoders.
//!
//! # Example: repair cost of RS vs LRC
//!
//! ```
//! use xorbas_core::{ErasureCodec, Lrc, ReedSolomon};
//!
//! let rs: ReedSolomon = ReedSolomon::new(10, 4).unwrap();
//! let lrc = Lrc::xorbas_10_6_5().unwrap();
//!
//! // One lost block: RS reads 10 blocks, the LRC reads 5 (§1).
//! assert_eq!(rs.repair_plan(&[0]).unwrap().blocks_read(), 10);
//! assert_eq!(lrc.repair_plan(&[0]).unwrap().blocks_read(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bounds;
mod codec;
pub mod construction;
mod error;
mod handle;
mod linear;
mod lrc;
mod parallel;
pub mod peeling;
mod piggyback;
mod reed_solomon;
mod replication;
mod session;
mod spec;

pub use codec::{
    ErasureCodec, LaneMask, RepairPlan, RepairReport, RepairTask, StripeView, StripeViewMut,
};
pub use error::{CodeError, Result};
pub use handle::CodecInstance;
pub use linear::decode_solve_count;
pub use lrc::Lrc;
pub use parallel::encode_into_parallel;
pub use piggyback::PiggybackRs;
pub use reed_solomon::ReedSolomon;
pub use replication::Replication;

/// A Reed-Solomon codec over GF(2^16) — for wide stripes past GF(2^8)'s
/// 255-lane ceiling (e.g. [`CodeSpec::RS_200_60`]).
pub type WideReedSolomon = ReedSolomon<xorbas_gf::Gf65536>;

/// An LRC over GF(2^16) — for wide stripes past GF(2^8)'s 255-lane
/// ceiling (e.g. [`LrcSpec::WIDE`]).
pub type WideLrc = Lrc<xorbas_gf::Gf65536>;

/// A piggybacked RS over GF(2^16) — for wide stripes past GF(2^8)'s
/// 255-lane ceiling (e.g. [`CodeSpec::PB_200_60`]).
pub type WidePiggyback = PiggybackRs<xorbas_gf::Gf65536>;
pub use session::RepairSession;
pub use spec::{CodeSpec, LrcSpec};

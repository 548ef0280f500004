//! The one place the benchmark turns a [`CodeSpec`] into a codec. The
//! cluster, the repair agent and the codec workload all build through
//! [`build`]; the owned-`Vec` reference path used by the checks goes
//! through [`owned_encode`]. A change to how codecs are constructed
//! touches only this file.

use xorbas_core::{CodeSpec, ErasureCodec};
use xorbas_sim::CodecInstance;

/// The codec for `spec`.
pub fn build(spec: CodeSpec) -> Result<CodecInstance, String> {
    CodecInstance::build(spec).map_err(|e| format!("building {}: {e}", spec.name()))
}

/// The owned [`ErasureCodec::encode_stripe`] path of `codec`: all `n`
/// lanes from the `k` data lanes, for comparing against `encode_into`.
pub fn owned_encode(codec: &CodecInstance, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, String> {
    let stripe = match codec {
        CodecInstance::Lrc(c) => c.encode_stripe(data),
        CodecInstance::LrcWide(c) => c.encode_stripe(data),
        CodecInstance::Rs(c) => c.encode_stripe(data),
        CodecInstance::RsWide(c) => c.encode_stripe(data),
        CodecInstance::Piggyback(c) => c.encode_stripe(data),
        CodecInstance::PiggybackWide(c) => c.encode_stripe(data),
        CodecInstance::Replication { .. } => return Err("replication has no encoder".into()),
    };
    stripe.map_err(|e| e.to_string())
}

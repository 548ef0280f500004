//! The stripe manifest: the durable record a put produces and a get
//! consumes.
//!
//! A manifest pins everything needed to read the file back — the code
//! spec, the chunk size, the exact file length (the last stripe is
//! zero-padded on the wire but trimmed on read), and each stripe's
//! lane→server assignment:
//!
//! ```text
//! magic "XBMF" | version u32
//! spec: tag u8 (0 replication | 1 reed-solomon | 2 lrc) + fields (u16 each;
//!       lrc adds an implied-parity flag byte)
//! chunk_bytes u64 | file_len u64 | stripe_count u32
//! per stripe: id u64 | lane_count u16 | server u32 × lane_count
//! ```
//!
//! Decoding is defensive to the same standard as the wire protocol:
//! every length is validated before use, truncation and bad magic are
//! typed [`NodeError::Malformed`] errors, and a hostile stripe count
//! cannot trigger an oversized allocation because the decoder checks
//! the remaining byte budget before reserving. The spec, chunk size
//! (bounded by [`MAX_CHUNK`]) and per-stripe lane counts are
//! sanity-checked during decode, so downstream geometry arithmetic
//! cannot overflow.

use crate::directory::ServerId;
use crate::error::{NodeError, Result};
use crate::protocol::MAX_CHUNK;
use xorbas_core::{CodeSpec, LrcSpec};

const MAGIC: [u8; 4] = *b"XBMF";
const VERSION: u32 = 1;

/// One stripe's placement record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StripeEntry {
    /// Stripe id (the directory's and the chunk servers' key).
    pub id: u64,
    /// Lane → server assignment, one entry per lane.
    pub servers: Vec<ServerId>,
}

/// Everything needed to read an erasure-coded file back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The code the file was striped with.
    pub spec: CodeSpec,
    /// Bytes per chunk (every lane of every stripe).
    pub chunk_bytes: u64,
    /// Exact byte length of the original file.
    pub file_len: u64,
    /// The stripes, in file order.
    pub stripes: Vec<StripeEntry>,
}

impl Manifest {
    /// User-data bytes each stripe carries. Saturates instead of
    /// overflowing: [`Manifest::decode`] bounds `chunk_bytes`, but a
    /// hand-built manifest must not wrap (or panic) here either.
    pub fn stripe_payload(&self) -> u64 {
        self.chunk_bytes
            .saturating_mul(self.spec.data_blocks() as u64)
    }

    /// Serializes to the binary format above.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        match self.spec {
            CodeSpec::Replication { replicas } => {
                out.push(0);
                out.extend_from_slice(&(replicas as u16).to_le_bytes());
            }
            CodeSpec::ReedSolomon { k, m } => {
                out.push(1);
                out.extend_from_slice(&(k as u16).to_le_bytes());
                out.extend_from_slice(&(m as u16).to_le_bytes());
            }
            CodeSpec::Lrc(lrc) => {
                out.push(2);
                out.extend_from_slice(&(lrc.k as u16).to_le_bytes());
                out.extend_from_slice(&(lrc.global_parities as u16).to_le_bytes());
                out.extend_from_slice(&(lrc.group_size as u16).to_le_bytes());
                out.push(u8::from(lrc.implied_parity));
            }
            CodeSpec::Piggyback { k, m } => {
                out.push(3);
                out.extend_from_slice(&(k as u16).to_le_bytes());
                out.extend_from_slice(&(m as u16).to_le_bytes());
            }
        }
        out.extend_from_slice(&self.chunk_bytes.to_le_bytes());
        out.extend_from_slice(&self.file_len.to_le_bytes());
        out.extend_from_slice(&(self.stripes.len() as u32).to_le_bytes());
        for stripe in &self.stripes {
            out.extend_from_slice(&stripe.id.to_le_bytes());
            out.extend_from_slice(&(stripe.servers.len() as u16).to_le_bytes());
            for &sid in &stripe.servers {
                out.extend_from_slice(&(sid as u32).to_le_bytes());
            }
        }
        out
    }

    /// Parses the binary format, validating every length against the
    /// bytes actually present.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut c = Dec { b: bytes, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(NodeError::Malformed("bad manifest magic"));
        }
        if c.u32()? != VERSION {
            return Err(NodeError::Malformed("unsupported manifest version"));
        }
        let spec = match c.u8()? {
            0 => CodeSpec::Replication {
                replicas: c.u16()? as usize,
            },
            1 => CodeSpec::ReedSolomon {
                k: c.u16()? as usize,
                m: c.u16()? as usize,
            },
            2 => CodeSpec::Lrc(LrcSpec {
                k: c.u16()? as usize,
                global_parities: c.u16()? as usize,
                group_size: c.u16()? as usize,
                implied_parity: c.u8()? != 0,
            }),
            3 => CodeSpec::Piggyback {
                k: c.u16()? as usize,
                m: c.u16()? as usize,
            },
            _ => return Err(NodeError::Malformed("unknown code spec tag")),
        };
        // A hostile spec or chunk size must die here, not downstream:
        // stripe_payload() and scratch sizing multiply these together.
        // Decode builds no codec: validation checks the geometry only.
        if spec.validate().is_err() {
            return Err(NodeError::Malformed("invalid code spec parameters"));
        }
        let chunk_bytes = c.u64()?;
        if chunk_bytes == 0 || chunk_bytes > MAX_CHUNK as u64 {
            return Err(NodeError::Malformed("chunk size out of bounds"));
        }
        let file_len = c.u64()?;
        let stripe_count = c.u32()? as usize;
        // Each stripe needs at least its 10-byte header; a hostile
        // count is rejected before any reservation.
        if stripe_count > c.remaining() / 10 {
            return Err(NodeError::Malformed("stripe count exceeds manifest size"));
        }
        let mut stripes = Vec::with_capacity(stripe_count);
        for _ in 0..stripe_count {
            let id = c.u64()?;
            let lane_count = c.u16()? as usize;
            if lane_count != spec.total_blocks() {
                return Err(NodeError::Malformed(
                    "stripe lane count does not match spec",
                ));
            }
            if lane_count > c.remaining() / 4 {
                return Err(NodeError::Malformed("lane count exceeds manifest size"));
            }
            let mut servers = Vec::with_capacity(lane_count);
            for _ in 0..lane_count {
                servers.push(c.u32()? as ServerId);
            }
            stripes.push(StripeEntry { id, servers });
        }
        if c.remaining() != 0 {
            return Err(NodeError::Malformed("trailing bytes in manifest"));
        }
        Ok(Self {
            spec,
            chunk_bytes,
            file_len,
            stripes,
        })
    }
}

/// Bounds-checked little-endian decoder.
struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn remaining(&self) -> usize {
        self.b.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let s = self
            .b
            .get(self.pos..self.pos + n)
            .ok_or(NodeError::Malformed("manifest truncated"))?;
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        let mut w = [0u8; 2];
        w.copy_from_slice(s);
        Ok(u16::from_le_bytes(w))
    }

    fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        let mut w = [0u8; 4];
        w.copy_from_slice(s);
        Ok(u32::from_le_bytes(w))
    }

    fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(s);
        Ok(u64::from_le_bytes(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(spec: CodeSpec) -> Manifest {
        let lanes = spec.total_blocks();
        Manifest {
            spec,
            chunk_bytes: 1 << 20,
            file_len: 3 * 10 * (1 << 20) - 777,
            stripes: (0..3)
                .map(|i| StripeEntry {
                    id: i,
                    servers: (0..lanes).map(|l| (l * 7 + i as usize) % 5).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn round_trips_every_spec() {
        for spec in [
            CodeSpec::Replication { replicas: 3 },
            CodeSpec::ReedSolomon { k: 10, m: 4 },
            CodeSpec::Lrc(LrcSpec::XORBAS),
            CodeSpec::Piggyback { k: 10, m: 4 },
        ] {
            let m = sample(spec);
            let bytes = m.encode();
            assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn corrupt_manifests_are_typed_errors() {
        let m = sample(CodeSpec::Lrc(LrcSpec::XORBAS));
        let good = m.encode();

        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Manifest::decode(&bad).unwrap_err(),
            NodeError::Malformed("bad manifest magic")
        ));

        // Truncation at every prefix length must error, never panic.
        for len in 0..good.len() {
            assert!(
                Manifest::decode(&good[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            Manifest::decode(&bad).unwrap_err(),
            NodeError::Malformed("trailing bytes in manifest")
        ));

        // A hostile stripe count cannot drive allocation: claim u32::MAX
        // stripes with no bytes behind them.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&MAGIC);
        hostile.extend_from_slice(&VERSION.to_le_bytes());
        hostile.push(0);
        hostile.extend_from_slice(&3u16.to_le_bytes());
        hostile.extend_from_slice(&(1u64 << 20).to_le_bytes());
        hostile.extend_from_slice(&0u64.to_le_bytes());
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Manifest::decode(&hostile).unwrap_err(),
            NodeError::Malformed("stripe count exceeds manifest size")
        ));
    }

    #[test]
    fn payload_math() {
        let m = sample(CodeSpec::ReedSolomon { k: 10, m: 4 });
        assert_eq!(m.stripe_payload(), 10 << 20);
    }

    #[test]
    fn hostile_geometry_is_rejected() {
        // A chunk size near u64::MAX used to overflow stripe_payload;
        // it now saturates in the accessor and is refused by decode.
        let mut m = sample(CodeSpec::ReedSolomon { k: 10, m: 4 });
        m.chunk_bytes = u64::MAX - 3;
        assert_eq!(m.stripe_payload(), u64::MAX);
        assert!(matches!(
            Manifest::decode(&m.encode()).unwrap_err(),
            NodeError::Malformed("chunk size out of bounds")
        ));

        m.chunk_bytes = 0;
        assert!(matches!(
            Manifest::decode(&m.encode()).unwrap_err(),
            NodeError::Malformed("chunk size out of bounds")
        ));

        // Structurally invalid specs: RS without parity, an LRC whose
        // group size does not divide k.
        let m = sample(CodeSpec::ReedSolomon { k: 10, m: 0 });
        assert!(matches!(
            Manifest::decode(&m.encode()).unwrap_err(),
            NodeError::Malformed("invalid code spec parameters")
        ));
        let m = sample(CodeSpec::Lrc(LrcSpec {
            k: 10,
            global_parities: 4,
            group_size: 3,
            implied_parity: true,
        }));
        assert!(matches!(
            Manifest::decode(&m.encode()).unwrap_err(),
            NodeError::Malformed("invalid code spec parameters")
        ));

        // A piggyback without its clean parity 0 plus one piggybacked
        // parity cannot build its fast repair path.
        let m = sample(CodeSpec::Piggyback { k: 10, m: 1 });
        assert!(matches!(
            Manifest::decode(&m.encode()).unwrap_err(),
            NodeError::Malformed("invalid code spec parameters")
        ));

        // Specs no codec can be built for: a single copy, and (in a
        // zero-stripe manifest, so no lane count trips first) a
        // blocklength past GF(2^16).
        let m = sample(CodeSpec::Replication { replicas: 1 });
        assert!(matches!(
            Manifest::decode(&m.encode()).unwrap_err(),
            NodeError::Malformed("invalid code spec parameters")
        ));
        let mut m = sample(CodeSpec::ReedSolomon { k: 40000, m: 40000 });
        m.stripes.clear();
        assert!(matches!(
            Manifest::decode(&m.encode()).unwrap_err(),
            NodeError::Malformed("invalid code spec parameters")
        ));

        // A stripe whose lane count disagrees with the spec's geometry.
        let mut m = sample(CodeSpec::ReedSolomon { k: 10, m: 4 });
        m.stripes[0].servers.pop();
        assert!(matches!(
            Manifest::decode(&m.encode()).unwrap_err(),
            NodeError::Malformed("stripe lane count does not match spec")
        ));
    }
}

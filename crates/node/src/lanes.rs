//! Lane I/O shared by the client's degraded reads and the repair agent,
//! which in the paper are one operation: read the blocks the repair
//! plan names, decode, hand the result on (§3). [`Conns`] is the one
//! connection cache, [`Conns::fetch_lane`] the one lane fetch, and
//! [`fetch_and_decode`] the one fetch-and-decode. What a failed fetch
//! means stays with the caller: the client updates the directory, the
//! repair agent leaves it alone and retries next round.

use crate::client::{NodeConn, RetryPolicy};
use crate::directory::{Directory, ServerId};
use crate::error::{NodeError, Result};
use crate::lock;
use std::net::SocketAddr;
use std::sync::Mutex;
use xorbas_core::{RepairSession, StripeViewMut};

/// A failed lane fetch: the error, and the server the request went to
/// (`None` when no request was sent, e.g. the directory refused the
/// lane, or when decoding failed).
#[derive(Debug)]
pub(crate) struct LaneError {
    pub(crate) server: Option<ServerId>,
    pub(crate) error: NodeError,
}

impl From<NodeError> for LaneError {
    fn from(error: NodeError) -> Self {
        Self {
            server: None,
            error,
        }
    }
}

/// Connections to chunk servers, one slot per server id, dialed on
/// first use.
pub(crate) struct Conns {
    pub(crate) slots: Vec<Option<NodeConn>>,
    retry: RetryPolicy,
    /// Connections dialed so far.
    pub(crate) opened: u64,
}

impl Conns {
    /// An empty cache dialing with `retry`.
    pub(crate) fn new(retry: RetryPolicy) -> Self {
        Self {
            slots: Vec::new(),
            retry,
            opened: 0,
        }
    }

    /// Runs one request on the connection to `sid`, dialing it if the
    /// slot is empty. Any error drops the connection: a request that
    /// timed out may still be answered later, and a reply carries no
    /// stripe or lane, so a reused socket could hand that late reply to
    /// the next request.
    pub(crate) fn request<T>(
        &mut self,
        sid: ServerId,
        addr: SocketAddr,
        op: impl FnOnce(&mut NodeConn) -> Result<T>,
    ) -> Result<T> {
        if self.slots.len() <= sid {
            self.slots.resize_with(sid + 1, || None);
        }
        let slot = self
            .slots
            .get_mut(sid)
            .ok_or(NodeError::Malformed("server id out of roster"))?;
        let conn = match slot {
            Some(conn) => conn,
            None => {
                let conn = NodeConn::connect(addr, &self.retry)?;
                self.opened += 1;
                slot.insert(conn)
            }
        };
        let res = op(conn);
        if res.is_err() {
            *slot = None;
        }
        res
    }

    /// Fetches `(stripe, lane)` into `out` from the server the
    /// directory assigns it. A lane on a dead server or flagged corrupt
    /// is refused without a request.
    // xlint::hot-path(repair-fetch)
    pub(crate) fn fetch_lane(
        &mut self,
        dir: &Mutex<Directory>,
        stripe: u64,
        lane: u32,
        out: &mut Vec<u8>,
    ) -> std::result::Result<(), LaneError> {
        let (sid, addr) = {
            let d = lock(dir);
            let sid = *d
                .servers_of(stripe)
                .ok_or(NodeError::UnknownStripe(stripe))?
                .get(lane as usize)
                .ok_or(NodeError::Malformed("lane out of range for stripe"))?;
            if d.is_corrupt(stripe, lane) {
                return Err(NodeError::ChunkCorrupt { stripe, lane }.into());
            }
            let addr = d
                .addr_of(sid)
                .ok_or(NodeError::Malformed("server id out of roster"))?;
            if !d.is_alive(sid) {
                return Err(NodeError::ConnectFailed { addr, attempts: 0 }.into());
            }
            (sid, addr)
        };
        self.request(sid, addr, |c| c.get_chunk(stripe, lane, out).map(|_| ()))
            .map_err(|error| LaneError {
                server: Some(sid),
                error,
            })
    }
}

/// Fetches, with `fetch(lane, buf)`, the lanes `session`'s plan reads
/// plus the `targets` it does not cover into `lanes`, then reconstructs
/// the missing lanes in place. Returns the bytes fetched. On `Ok` every
/// missing lane and every target holds this stripe's bytes; any other
/// lane may still hold an earlier stripe's (a light LRC plan reads one
/// local group, so a caller needing data lanes outside it names them).
pub(crate) fn fetch_and_decode(
    session: &RepairSession,
    targets: &[usize],
    chunk_bytes: usize,
    lanes: &mut Vec<Vec<u8>>,
    mut fetch: impl FnMut(u32, &mut Vec<u8>) -> std::result::Result<(), LaneError>,
) -> std::result::Result<u64, LaneError> {
    lanes.resize_with(session.lane_count(), Vec::new);
    let mut fetched = 0u64;
    // xlint::hot-path(repair-stream) begin
    // Stream-in: the lane buffers and server connections belong to the
    // caller and are reused by every stripe it reads or repairs; this
    // loop must not allocate.
    for (lane, buf) in lanes.iter_mut().enumerate() {
        let needed = (session.plan().tasks.iter().any(|t| t.reads.contains(&lane))
            || targets.contains(&lane))
            && !session.missing().contains(&lane);
        if needed {
            fetch(lane as u32, buf)?;
            fetched += buf.len() as u64;
        }
    }
    // xlint::hot-path(repair-stream) end
    for buf in lanes.iter_mut() {
        buf.resize(chunk_bytes, 0);
    }
    let mut refs: Vec<&mut [u8]> = lanes.iter_mut().map(Vec::as_mut_slice).collect();
    let mut view = StripeViewMut::new(&mut refs, session.missing()).map_err(NodeError::from)?;
    session.repair(&mut view).map_err(NodeError::from)?;
    Ok(fetched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbas_core::{CodeSpec, CodecInstance};

    const CHUNK: usize = 64;

    /// The fetch-set rule, checked at the routine both callers share:
    /// for every single and every recoverable double erasure, every lane
    /// the routine does not fetch starts as junk, and still every
    /// missing lane and every target comes back bit-exact. A rule that
    /// skipped a lane the decode or the caller needs reads junk here.
    #[test]
    fn unfetched_lanes_never_reach_a_missing_lane_or_a_target() {
        for spec in [
            CodeSpec::RS_10_4,
            CodeSpec::LRC_10_6_5,
            CodeSpec::PB_10_4,
            CodeSpec::REPLICATION_3,
        ] {
            let codec = CodecInstance::build(spec).unwrap();
            let (k, n) = (codec.data_blocks(), codec.total_blocks());
            let data: Vec<Vec<u8>> = (0..k)
                .map(|i| (0..CHUNK).map(|b| (i * 131 + b * 7 + 1) as u8).collect())
                .collect();
            let stripe = codec.encode_stripe(&data).unwrap();

            // The empty pattern is what a degraded read meets when its
            // direct read failed without marking anything unavailable.
            let mut patterns: Vec<Vec<usize>> = vec![Vec::new()];
            patterns.extend((0..n).map(|i| vec![i]));
            for i in 0..n {
                patterns.extend((i + 1..n).map(|j| vec![i, j]));
            }
            // The repair agent names no targets; a whole-file get names
            // every data lane; a chunk read names one.
            let mut target_sets: Vec<Vec<usize>> = vec![Vec::new(), (0..k).collect()];
            target_sets.extend((0..k).map(|t| vec![t]));

            let mut checked = 0;
            for missing in &patterns {
                let Ok(session) = codec.as_dyn().repair_session(missing) else {
                    continue;
                };
                for targets in &target_sets {
                    let mut lanes: Vec<Vec<u8>> = (0..n)
                        .map(|l| vec![0xA5 ^ (l as u8).wrapping_mul(29); CHUNK])
                        .collect();
                    let fetched =
                        fetch_and_decode(&session, targets, CHUNK, &mut lanes, |lane, buf| {
                            let lane = lane as usize;
                            assert!(
                                !missing.contains(&lane),
                                "{spec:?}: fetched missing lane {lane}"
                            );
                            buf.clear();
                            buf.extend_from_slice(&stripe[lane]);
                            Ok(())
                        })
                        .unwrap();
                    assert_eq!(fetched % CHUNK as u64, 0);
                    for &lane in missing.iter().chain(targets) {
                        assert!(
                            lanes[lane] == stripe[lane],
                            "{spec:?}: lane {lane} wrong with {missing:?} missing, targets {targets:?}"
                        );
                    }
                }
                checked += 1;
            }
            assert!(
                checked >= n,
                "{spec:?}: only {checked} patterns recoverable"
            );
        }
    }
}

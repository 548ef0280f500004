//! Seeded inputs: a SplitMix64 stream for choices and a seekable byte
//! generator, so any byte range of any file can be regenerated for a
//! check without keeping the file in memory.

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Fills `out` with bytes `offset..offset + out.len()` of the stream
/// identified by `key`. Byte `i` of a stream depends only on `key` and
/// `i`, so ranges can be regenerated independently.
pub fn fill_bytes(key: u64, offset: u64, out: &mut [u8]) {
    let base = mix64(key);
    let mut pos = offset;
    let mut rest = out;
    while !rest.is_empty() {
        let word = mix64(base ^ (pos / 8)).to_le_bytes();
        let skip = (pos % 8) as usize;
        let take = (8 - skip).min(rest.len());
        rest[..take].copy_from_slice(&word[skip..skip + take]);
        rest = &mut rest[take..];
        pos += take as u64;
    }
}

/// Which population a cluster read belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadClass {
    /// The chunk's server is alive.
    Direct,
    /// The chunk's server is dead: the read is served degraded.
    Degraded,
}

/// The seeded read sequence of one read phase: `direct` picks from
/// `live` and `degraded` picks from `dead` (chunk locators), interleaved
/// in a seeded order. The same seed and candidates give the same
/// sequence.
pub fn read_sequence<T: Copy>(
    seed: u64,
    cycle: u64,
    live: &[T],
    dead: &[T],
    direct: usize,
    degraded: usize,
) -> Vec<(ReadClass, T)> {
    let mut rng = Rng::new(seed, 0x5EAD_0000 + cycle);
    let mut out = Vec::with_capacity(direct + degraded);
    if !live.is_empty() {
        out.extend((0..direct).map(|_| (ReadClass::Direct, live[rng.below(live.len())])));
    }
    if !dead.is_empty() {
        out.extend((0..degraded).map(|_| (ReadClass::Degraded, dead[rng.below(dead.len())])));
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_ranges_regenerate_identically() {
        let mut whole = vec![0u8; 1000];
        fill_bytes(42, 0, &mut whole);
        for (start, len) in [(0, 1), (3, 17), (8, 8), (13, 500), (999, 1)] {
            let mut part = vec![0u8; len];
            fill_bytes(42, start as u64, &mut part);
            assert_eq!(part, whole[start..start + len]);
        }
        let mut other = vec![0u8; 1000];
        fill_bytes(43, 0, &mut other);
        assert_ne!(other, whole);
    }

    #[test]
    fn read_sequence_is_seed_deterministic() {
        let live: Vec<(u64, u32)> = (0..50).map(|s| (s, (s % 10) as u32)).collect();
        let dead: Vec<(u64, u32)> = (0..7).map(|s| (100 + s, 3)).collect();
        let a = read_sequence(7, 0, &live, &dead, 40, 40);
        let b = read_sequence(7, 0, &live, &dead, 40, 40);
        assert_eq!(a, b);
        assert_eq!(a.len(), 80);
        let degraded = a.iter().filter(|(c, _)| *c == ReadClass::Degraded).count();
        assert_eq!(degraded, 40);
        assert!(a
            .iter()
            .all(|(c, loc)| (*c == ReadClass::Degraded) == dead.contains(loc)));
        assert_ne!(a, read_sequence(8, 0, &live, &dead, 40, 40));
        assert_ne!(a, read_sequence(7, 1, &live, &dead, 40, 40));
    }
}

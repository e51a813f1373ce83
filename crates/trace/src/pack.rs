//! A hand-rolled LZ77 block compressor for the on-disk trace format.
//!
//! The zero-dependency rule forbids pulling in `zstd`/`lz4`, so trace
//! blocks are squeezed by a deliberately small, deterministic
//! byte-oriented LZ77 variant. Trace blocks are extremely compressible:
//! the [`file`](crate::file) encoding emits one tag byte per
//! instruction plus short address varints, so compute runs and
//! repeating access patterns collapse into long back-references.
//!
//! # Token stream
//!
//! The compressed form is a sequence of tokens, each led by a control
//! byte:
//!
//! ```text
//! 0x00..=0x7F  literal run:  control + 1 (1..=128) raw bytes follow
//! 0x80..=0xFF  match:        length = (control & 0x7F) + 4 (4..=131),
//!                            followed by a u16 LE distance (1..=65535)
//!                            back into the output produced so far
//! ```
//!
//! Matches may overlap their own output (`distance < length`), RLE
//! style. The format is self-terminating only at the block boundary:
//! callers must know the expected decompressed size, which the block
//! header records. Both directions are deterministic — identical input
//! always yields identical compressed bytes, which the byte-identical
//! crash-resume guarantee of trace generation rests on.

use std::fmt;

/// Shortest back-reference worth encoding (a match token costs 3 bytes).
const MIN_MATCH: usize = 4;
/// Longest match one token can encode.
const MAX_MATCH: usize = 131;
/// Furthest a distance field can reach back.
const MAX_DISTANCE: usize = u16::MAX as usize;
/// Longest literal run one token can carry.
const MAX_LITERAL_RUN: usize = 128;
/// Hash-table size for match-candidate positions (power of two).
const HASH_SLOTS: usize = 1 << 15;

/// A malformed compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackError {
    /// What was wrong with the stream.
    pub reason: String,
}

impl PackError {
    fn new(reason: impl fmt::Display) -> Self {
        Self {
            reason: reason.to_string(),
        }
    }
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pack: {}", self.reason)
    }
}

impl std::error::Error for PackError {}

/// Hashes the 4 bytes at `input[pos..]` into a table slot.
fn hash4(input: &[u8], pos: usize) -> usize {
    let word = u32::from_le_bytes([input[pos], input[pos + 1], input[pos + 2], input[pos + 3]]);
    // Knuth multiplicative hash, folded to the table width.
    (word.wrapping_mul(0x9e37_79b1) >> (32 - 15)) as usize & (HASH_SLOTS - 1)
}

/// Compresses `input` into the token stream described in the module
/// docs. Deterministic: equal inputs produce equal outputs.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Most recent input position whose 4-byte prefix hashed to a slot;
    // u32::MAX marks an empty slot (traces blocks are far below 4 GiB).
    let mut table = vec![u32::MAX; HASH_SLOTS];
    let mut literal_start = 0usize;
    let mut pos = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        let mut at = from;
        while at < to {
            let run = (to - at).min(MAX_LITERAL_RUN);
            out.push((run - 1) as u8);
            out.extend_from_slice(&input[at..at + run]);
            at += run;
        }
    };

    while pos + MIN_MATCH <= input.len() {
        let slot = hash4(input, pos);
        let candidate = table[slot];
        table[slot] = pos as u32;

        let mut match_len = 0usize;
        let mut match_dist = 0usize;
        if candidate != u32::MAX {
            let cand = candidate as usize;
            let dist = pos - cand;
            if (1..=MAX_DISTANCE).contains(&dist) {
                let limit = (input.len() - pos).min(MAX_MATCH);
                let mut len = 0usize;
                while len < limit && input[cand + len] == input[pos + len] {
                    len += 1;
                }
                if len >= MIN_MATCH {
                    match_len = len;
                    match_dist = dist;
                }
            }
        }

        if match_len == 0 {
            pos += 1;
            continue;
        }

        flush_literals(&mut out, literal_start, pos);
        out.push(0x80 | (match_len - MIN_MATCH) as u8);
        out.extend_from_slice(&(match_dist as u16).to_le_bytes());
        // Seed the table with the covered positions so later matches
        // can reference into this span too.
        let end = pos + match_len;
        pos += 1;
        while pos < end && pos + MIN_MATCH <= input.len() {
            table[hash4(input, pos)] = pos as u32;
            pos += 1;
        }
        pos = end;
        literal_start = end;
    }

    flush_literals(&mut out, literal_start, input.len());
    out
}

/// Decompresses a token stream produced by [`compress`], appending the
/// `expected_len` bytes it holds to `out`.
///
/// `expected_len` is the exact decompressed size recorded by the block
/// header, which readers bound before calling: `out` grows by at most
/// that much, so a reused buffer allocates only when it must grow, and
/// any mismatch is an error. Match distances reach back only into the
/// bytes this call appends — blocks are self-contained.
///
/// # Errors
///
/// [`PackError`] on a truncated stream, a distance reaching before the
/// start of the block, or a decompressed size differing from
/// `expected_len`. `out` may then hold part of the block.
pub fn decompress_into(
    data: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), PackError> {
    let start = out.len();
    out.reserve(expected_len);
    let mut pos = 0usize;
    while pos < data.len() {
        let produced = out.len() - start;
        let control = data[pos];
        pos += 1;
        if control < 0x80 {
            let run = control as usize + 1;
            if pos + run > data.len() {
                return Err(PackError::new("literal run past end of stream"));
            }
            if produced + run > expected_len {
                return Err(PackError::new("output exceeds declared block size"));
            }
            out.extend_from_slice(&data[pos..pos + run]);
            pos += run;
        } else {
            let len = (control & 0x7F) as usize + MIN_MATCH;
            if pos + 2 > data.len() {
                return Err(PackError::new("match token truncated"));
            }
            let dist = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
            pos += 2;
            if dist == 0 || dist > produced {
                return Err(PackError::new(format!(
                    "match distance {dist} outside the {produced} bytes produced"
                )));
            }
            if produced + len > expected_len {
                return Err(PackError::new("output exceeds declared block size"));
            }
            // Byte-by-byte so overlapping (RLE-style) matches replicate
            // bytes produced earlier in this same copy.
            let from = out.len() - dist;
            for i in 0..len {
                let byte = out[from + i];
                out.push(byte);
            }
        }
    }
    let produced = out.len() - start;
    if produced != expected_len {
        return Err(PackError::new(format!(
            "decompressed {produced} bytes, block declared {expected_len}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::TraceRng;

    fn decompress(data: &[u8], expected_len: usize) -> Result<Vec<u8>, PackError> {
        let mut out = Vec::new();
        decompress_into(data, expected_len, &mut out)?;
        Ok(out)
    }

    fn roundtrip(input: &[u8]) {
        let packed = compress(input);
        let unpacked = decompress(&packed, input.len()).expect("decompress");
        assert_eq!(unpacked, input);
        // Appending after other bytes: distances stay inside the block.
        let mut out = b"prefix".to_vec();
        decompress_into(&packed, input.len(), &mut out).expect("append");
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], input);
    }

    #[test]
    fn empty_input_roundtrips() {
        roundtrip(b"");
        assert!(compress(b"").is_empty());
    }

    #[test]
    fn short_inputs_roundtrip() {
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_input_compresses_well() {
        let input: Vec<u8> = std::iter::repeat_n(b"untangle-trace-block".as_slice(), 200)
            .flatten()
            .copied()
            .collect();
        let packed = compress(&input);
        assert!(
            packed.len() * 10 < input.len(),
            "expected >10x on repetitive input, got {} -> {}",
            input.len(),
            packed.len()
        );
        roundtrip(&input);
    }

    #[test]
    fn constant_input_uses_overlapping_matches() {
        let input = vec![0x42u8; 10_000];
        let packed = compress(&input);
        assert!(
            packed.len() < 300,
            "RLE case must collapse: {}",
            packed.len()
        );
        roundtrip(&input);
    }

    #[test]
    fn random_input_roundtrips() {
        let mut rng = TraceRng::new(0xdead_beef);
        for len in [1usize, 7, 128, 129, 1000, 65_537] {
            let input: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            roundtrip(&input);
        }
    }

    #[test]
    fn structured_random_input_roundtrips() {
        // Mix of runs and noise, the shape real trace blocks have.
        let mut rng = TraceRng::new(7);
        let mut input = Vec::new();
        for _ in 0..500 {
            if rng.unit_f64() < 0.5 {
                let byte = (rng.next_u64() & 0xFF) as u8;
                let run = rng.below(100) as usize + 1;
                input.extend(std::iter::repeat_n(byte, run));
            } else {
                for _ in 0..rng.below(40) {
                    input.push((rng.next_u64() & 0xFF) as u8);
                }
            }
        }
        roundtrip(&input);
    }

    #[test]
    fn compression_is_deterministic() {
        let mut rng = TraceRng::new(3);
        let input: Vec<u8> = (0..50_000).map(|_| (rng.next_u64() & 0x0F) as u8).collect();
        assert_eq!(compress(&input), compress(&input));
    }

    #[test]
    fn decompress_rejects_bad_distance() {
        // A match token reaching back before any output exists.
        let data = [0x80u8, 0x05, 0x00];
        let e = decompress(&data, 4).expect_err("must reject");
        assert!(e.reason.contains("distance"), "{e}");
    }

    #[test]
    fn decompress_rejects_truncated_literals() {
        let data = [0x05u8, b'a', b'b'];
        assert!(decompress(&data, 6).is_err());
    }

    #[test]
    fn decompress_rejects_wrong_declared_len() {
        let packed = compress(b"hello world");
        assert!(decompress(&packed, 5).is_err());
        assert!(decompress(&packed, 50).is_err());
    }
}

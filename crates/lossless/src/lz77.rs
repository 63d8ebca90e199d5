//! Greedy LZ77 matching with hash chains (DEFLATE limits).
//!
//! Produces a token stream of literals and `(length, distance)` matches with
//! `length` in `3..=258` and `distance` in `1..=32768`. The matcher hashes
//! 3-byte prefixes into chains and walks a bounded number of candidates,
//! which is the classic zlib "good enough" strategy.

/// Maximum look-back distance.
pub const WINDOW: usize = 32 * 1024;
/// Minimum match length worth encoding.
pub const MIN_MATCH: usize = 3;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;
/// Maximum chain positions examined per match attempt.
const MAX_CHAIN: usize = 64;
/// "Good enough" match length: once a candidate reaches this, stop walking
/// the chain (zlib's `nice_length`). Long-run inputs otherwise burn the
/// whole chain budget polishing matches that are already near-optimal; the
/// token stream may differ slightly but expansion is identical.
const NICE_LEN: usize = 66;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A single byte emitted verbatim.
    Literal(u8),
    /// A back-reference copying `len` bytes from `dist` bytes back.
    Match {
        /// Copy length, `3..=258`.
        len: u16,
        /// Back-reference distance, `1..=32768`.
        dist: u16,
    },
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Tokenizes `data` greedily.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2 + 4);
    if n < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    // head[h] = most recent position with hash h (+1; 0 = empty).
    let mut head = vec![0u32; HASH_SIZE];
    // prev[i & (WINDOW-1)] = previous position in this chain (+1; 0 = none).
    let mut prev = vec![0u32; WINDOW];

    let mut i = 0usize;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash3(data, i);
            let mut cand = head[h] as usize;
            let mut chain = 0;
            while cand > 0 && chain < MAX_CHAIN {
                let pos = cand - 1;
                if i - pos > WINDOW {
                    break;
                }
                let limit = (n - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && data[pos + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - pos;
                    if l >= limit || l >= NICE_LEN {
                        break;
                    }
                }
                cand = prev[pos & (WINDOW - 1)] as usize;
                chain += 1;
            }
            // Insert current position into the chain.
            prev[i & (WINDOW - 1)] = head[h];
            head[h] = (i + 1) as u32;
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            // Insert the skipped positions so future matches can find them.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i + 1;
            while j < end {
                let h = hash3(data, j);
                prev[j & (WINDOW - 1)] = head[h];
                head[h] = (j + 1) as u32;
                j += 1;
            }
            i += best_len;
        } else {
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Expands a token stream back into bytes.
///
/// Returns `None` if a match refers before the start of the output.
// dz-lint: allow(dead-pub, "reference token decoder the LZ77 round-trip tests check tokenization against")
pub fn expand(tokens: &[Token]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                // Byte-by-byte copy: overlapping matches (dist < len) must
                // see bytes produced earlier in this same copy.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let tokens = tokenize(data);
        let restored = expand(&tokens).expect("expand failed");
        assert_eq!(restored, data);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_input_produces_matches() {
        let data = b"abcabcabcabcabcabc";
        let tokens = tokenize(data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "{tokens:?}"
        );
        round_trip(data);
    }

    #[test]
    fn overlapping_match_run() {
        // "aaaa..." forces dist=1 matches with len > dist.
        let data = vec![b'a'; 1000];
        let tokens = tokenize(&data);
        assert!(
            tokens.len() < 20,
            "run should compress to few tokens: {}",
            tokens.len()
        );
        round_trip(&data);
    }

    #[test]
    fn random_bytes_round_trip() {
        // Pseudo-random (incompressible) data must still round-trip.
        let mut x = 123456789u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_match_capped_at_max() {
        let data = vec![b'z'; MAX_MATCH * 3 + 10];
        for t in tokenize(&data) {
            if let Token::Match { len, .. } = t {
                assert!((len as usize) <= MAX_MATCH);
            }
        }
        round_trip(&data);
    }

    #[test]
    fn distant_repeat_found_within_window() {
        let mut data = Vec::new();
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        data.extend(std::iter::repeat_n(b'.', 1024));
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        let tokens = tokenize(&data);
        let matched: usize = tokens
            .iter()
            .map(|t| match t {
                Token::Match { len, .. } => *len as usize,
                _ => 0,
            })
            .sum();
        assert!(matched > 1000, "matched only {matched} bytes");
        round_trip(&data);
    }

    #[test]
    fn nice_len_keeps_long_runs_compact() {
        // A long run still collapses to few tokens even though chaining
        // stops at the first NICE_LEN-byte candidate.
        let data = vec![b'q'; 64 * 1024];
        let tokens = tokenize(&data);
        let matched: usize = tokens
            .iter()
            .map(|t| match t {
                Token::Match { len, .. } => *len as usize,
                _ => 0,
            })
            .sum();
        assert!(matched + 16 >= data.len(), "matched only {matched}");
        round_trip(&data);
    }

    #[test]
    fn expand_rejects_bad_distance() {
        let bad = vec![Token::Match { len: 3, dist: 5 }];
        assert_eq!(expand(&bad), None);
    }

    #[test]
    fn text_like_data_round_trip() {
        let data = "DeltaZip serves many fine-tuned variants. ".repeat(200);
        round_trip(data.as_bytes());
    }
}

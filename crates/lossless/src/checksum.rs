//! The 64-bit checksum of the page container and the `.dza` manifest.
//!
//! The page container stores a checksum of the raw payload so corruption
//! that still decodes (a flipped literal bit, a flipped stored byte) is
//! caught instead of silently producing wrong weights. [`hash64`] is a
//! four-lane multiply–rotate hash in the XXH64 family: four independent
//! 64-bit lanes fold the input 32 bytes at a time, so the hot loop has
//! four dependency chains of one multiply–add–rotate–multiply round each
//! and runs several times faster than a table-driven CRC-32.
//!
//! # Layout
//!
//! The input is read as little-endian 8-byte words; `P1`–`P4` are XXH64's
//! odd primes.
//!
//! 1. **Stripes.** Each 32-byte stripe feeds word `k` to lane `k`:
//!    `lane = round(lane, w)`, where `round(acc, w) = rotl(acc + w·P2,
//!    31)·P1`.
//! 2. **Lane merge.** `h = lane₀`, then `h = round(h, lane_k)` for
//!    `k = 1, 2, 3`.
//! 3. **Tail words.** Each remaining whole word: `h = rotl(h ^ round(0,
//!    w), 27)·P1 + P4`.
//! 4. **Tail bytes.** The last 1–7 bytes, zero-padded to one word, take
//!    the same step.
//! 5. **Length.** `h ^= len`.
//! 6. **Avalanche.** XXH64's final xor-shift–multiply mix.
//!
//! # Why any change within one word is detected
//!
//! Call a step *injective in its input* when, for a fixed incoming state,
//! distinct inputs give distinct outgoing states, and *a bijection of the
//! state* when, for a fixed input, it permutes the 2⁶⁴ states. Every step
//! above is both:
//!
//! * `round(acc, w)`: `w ↦ w·P2` is a bijection because `P2` is odd, adding
//!   `acc` and rotating are bijections, and so is multiplying by the odd
//!   `P1`. With `w` fixed, the same argument runs over `acc`.
//! * The merge enters each lane exactly once, through `round`, so the
//!   merged state is injective in any one lane with the other three fixed.
//!   XXH64's own merge adds a lane's rotation into a sum and then folds the
//!   same lane in again with xor; that composite is not known to be
//!   injective in the lane, so it is not used here.
//! * The tail steps xor `round(0, w)`, itself a bijection of `w`, into `h`
//!   and then rotate, multiply by an odd prime and add a constant: a
//!   bijection of `w` for fixed `h`, and of `h` for fixed `w`. Zero-padding
//!   the last 1–7 bytes is injective for a fixed length.
//! * `h ^= len` and each avalanche step (xor with a right shift, multiply by
//!   an odd prime) are bijections of `h`.
//!
//! Now change the input only within one aligned 8-byte word, at a fixed
//! length. If the word sits in a stripe, it enters its lane through one
//! injective round; the lane's later rounds are bijections of the lane; the
//! other lanes do not change; the merge is injective in that lane; and
//! every later step is a bijection of `h`. If it is a tail word or the
//! zero-padded tail, the state before it is unchanged, its step is
//! injective, and the later steps are bijections. Either way the
//! composition is injective in that word, so the checksum changes: a
//! single-bit flip, or any burst within one word, is always detected.
//! Changes spread over several words are detected with probability about
//! 1 − 2⁻⁶⁴, which no checksum of this width can beat.
//!
//! The checksum is not a MAC: someone who rewrites a payload can rewrite
//! its checksum too.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

/// The four lanes' starting states (XXH64's, with seed 0).
const LANES: [u64; 4] = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];

/// One lane round: injective in `w` for fixed `acc`, and a bijection of
/// `acc` for fixed `w`.
#[inline(always)]
fn round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// One tail step, for a whole word or the zero-padded last bytes.
fn tail(h: u64, w: u64) -> u64 {
    (h ^ round(0, w))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

/// The lane merge: each lane enters once, through [`round`].
fn merge([v0, v1, v2, v3]: [u64; 4]) -> u64 {
    round(round(round(v0, v1), v2), v3)
}

/// XXH64's final mix: xor-shifts and odd multiplies, each a bijection.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The 64-bit checksum of `data` (see the module docs for its layout and
/// what it is guaranteed to detect).
pub fn hash64(data: &[u8]) -> u64 {
    let (words, bytes) = data.as_chunks::<8>();
    let (stripes, tail_words) = words.as_chunks::<4>();
    let mut lanes = LANES;
    for [a, b, c, d] in stripes {
        lanes[0] = round(lanes[0], u64::from_le_bytes(*a));
        lanes[1] = round(lanes[1], u64::from_le_bytes(*b));
        lanes[2] = round(lanes[2], u64::from_le_bytes(*c));
        lanes[3] = round(lanes[3], u64::from_le_bytes(*d));
    }
    let mut h = merge(lanes);
    for w in tail_words {
        h = tail(h, u64::from_le_bytes(*w));
    }
    if !bytes.is_empty() {
        let mut last = [0u8; 8];
        last[..bytes.len()].copy_from_slice(bytes);
        h = tail(h, u64::from_le_bytes(last));
    }
    avalanche(h ^ data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same hash, one word at a time: word `k` of the stripes goes to
    /// lane `k % 4`, read byte by byte.
    fn hash64_wordwise(data: &[u8]) -> u64 {
        let word = |k: usize| -> u64 {
            (0..8)
                .map(|i| data.get(8 * k + i).map_or(0, |&b| u64::from(b)) << (8 * i))
                .fold(0, |w, b| w | b)
        };
        let n_words = data.len() / 8;
        let striped = n_words / 4 * 4;
        let mut lanes = LANES;
        for k in 0..striped {
            lanes[k % 4] = round(lanes[k % 4], word(k));
        }
        let mut h = merge(lanes);
        for k in striped..n_words {
            h = tail(h, word(k));
        }
        if !data.len().is_multiple_of(8) {
            h = tail(h, word(n_words));
        }
        avalanche(h ^ data.len() as u64)
    }

    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 40) as u8
            })
            .collect()
    }

    #[test]
    fn known_values_are_stable() {
        // Pinned: a change to the function makes every stored checksum
        // unreadable, so it must come with a format version bump.
        let all: Vec<u8> = (0..=255).collect();
        assert_eq!(hash64(b""), 0x47fc_eaba_a869_25c1);
        assert_eq!(hash64(b"123456789"), 0xfafa_9058_7a56_2dee);
        assert_eq!(hash64(&all), 0x6897_a396_cf80_08ca);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let reference = hash64(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(hash64(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn concatenation_differs_from_parts() {
        assert_ne!(hash64(b"ab"), hash64(b"a") ^ hash64(b"b"));
        let data = noise(96);
        let (a, b) = data.split_at(40);
        assert_ne!(hash64(&data), hash64(a) ^ hash64(b));
    }

    #[test]
    fn stripes_match_the_wordwise_reference_at_every_alignment() {
        let data = noise(1024 + 8);
        for start in 0..8 {
            let data = &data[start..];
            // Lengths straddling the 8-byte word and 32-byte stripe
            // boundaries in both directions.
            for n in (0..=72).chain([95, 96, 97, 127, 128, 255, 512, 1000, 1024]) {
                let s = &data[..n];
                assert_eq!(hash64(s), hash64_wordwise(s), "start {start} len {n}");
            }
        }
    }

    #[test]
    fn every_change_within_one_word_is_detected() {
        // At each length, every aligned word (and the partial last word)
        // is xored with 16 masks: low bit, high bit, one byte, every bit,
        // a byte pattern and 11 seeded words. Covers stripes, tail words
        // and tail bytes.
        let base = noise(1000);
        let mut edits = vec![1, 1 << 63, 0xFF << 24, u64::MAX, 0x0101_0101_0101_0101];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        edits.extend((0..11).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        for n in (0..=200).chain([1000]) {
            let data = &base[..n];
            let reference = hash64(data);
            for k in 0..n.div_ceil(8) {
                let span = 8 * k..(8 * k + 8).min(n);
                for &edit in &edits {
                    let mut changed = data.to_vec();
                    let mask = &edit.to_le_bytes()[..span.len()];
                    if mask.iter().all(|&m| m == 0) {
                        continue;
                    }
                    for (b, m) in changed[span.clone()].iter_mut().zip(mask) {
                        *b ^= m;
                    }
                    assert_ne!(
                        hash64(&changed),
                        reference,
                        "len {n} word {k} edit {edit:#x}"
                    );
                }
            }
        }
    }
}

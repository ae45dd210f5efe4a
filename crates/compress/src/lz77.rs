//! LZ77 dictionary matching.
//!
//! The gzip-class codec first factors the input into a stream of tokens — literals and
//! back-references `(length, distance)` into a sliding window — then entropy-codes the
//! serialized token stream. Matching parameters mirror DEFLATE's: a 32 KiB window, minimum
//! match of 3 and maximum match of 258 bytes.
//!
//! Match finding is greedy over hash buckets. Every position with a full 3-byte prefix is
//! hashed once, up front, and a counting sort lays the positions out bucket by bucket in one
//! flat array, ascending within each bucket. The candidates for position `p` are then the
//! entries just before `p` in its own bucket: they are walked newest first, at most
//! `MAX_CHAIN` of them and none older than the window, and the longest match wins, the
//! nearest on a tie. Walking a contiguous list instead of a linked chain keeps the loads
//! sequential, and a match length comes from one 8-byte XOR and its trailing zeros; only a
//! candidate that agrees on all 8 bytes, or one within 8 bytes of the end, is compared byte
//! by byte.

/// Sliding window size (32 KiB, as in DEFLATE).
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum back-reference length worth emitting.
pub const MIN_MATCH: usize = 3;
/// Maximum back-reference length.
pub const MAX_MATCH: usize = 258;
/// Number of hash buckets for match finding.
const HASH_BITS: usize = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Limit on how many bucket entries are examined per position (greedy, bounded effort).
const MAX_CHAIN: usize = 64;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte copied verbatim.
    Literal(u8),
    /// A back-reference: copy `length` bytes starting `distance` bytes back.
    Match {
        /// Number of bytes to copy (between [`MIN_MATCH`] and [`MAX_MATCH`]).
        length: u16,
        /// How far back the copy starts (1..=[`WINDOW_SIZE`]).
        distance: u16,
    },
}

fn hash(data: &[u8], pos: usize) -> usize {
    let a = data[pos] as usize;
    let b = data[pos + 1] as usize;
    let c = data[pos + 2] as usize;
    (a.wrapping_mul(2654435761) ^ b.wrapping_mul(40503) ^ c.wrapping_mul(2246822519))
        & (HASH_SIZE - 1)
}

/// Factor `data` into LZ77 tokens using greedy hash-bucket matching.
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
    factor(data, |token| tokens.push(token));
    tokens
}

/// Factor `data` into LZ77 tokens, handing each to `sink` in order.
pub(crate) fn factor(data: &[u8], mut sink: impl FnMut(Token)) {
    let n = data.len();
    if n < MIN_MATCH {
        data.iter().for_each(|&b| sink(Token::Literal(b)));
        return;
    }
    // Positions 0..hashed have a full 3-byte prefix and so a bucket.
    let hashed = n - MIN_MATCH + 1;
    let hashes: Vec<u16> = (0..hashed).map(|p| hash(data, p) as u16).collect();
    // bucket_start[h]..bucket_start[h + 1] is bucket h's run of `positions`; slot[p] is where
    // position p sits in it, so its candidates are the entries just below.
    let mut bucket_start = vec![0u32; HASH_SIZE + 1];
    for &h in &hashes {
        bucket_start[h as usize + 1] += 1;
    }
    for h in 0..HASH_SIZE {
        bucket_start[h + 1] += bucket_start[h];
    }
    let mut fill = bucket_start.clone();
    let mut positions = vec![0u32; hashed];
    let mut slot = vec![0u32; hashed];
    for (p, &h) in hashes.iter().enumerate() {
        let at = &mut fill[h as usize];
        positions[*at as usize] = p as u32;
        slot[p] = *at;
        *at += 1;
    }

    let mut pos = 0usize;
    while pos < n {
        if pos >= hashed {
            sink(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let max_len = MAX_MATCH.min(n - pos);
        let window_start = pos.saturating_sub(WINDOW_SIZE);
        let end = slot[pos] as usize;
        let first =
            (bucket_start[hashes[pos] as usize] as usize).max(end.saturating_sub(MAX_CHAIN));
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let near_end = max_len < 8;
        let here = if near_end { 0 } else { word(data, pos) };
        for &candidate in positions[first..end].iter().rev() {
            let candidate = candidate as usize;
            if candidate < window_start {
                break;
            }
            let diff = if near_end {
                0
            } else {
                word(data, candidate) ^ here
            };
            let len = if diff != 0 {
                (diff.trailing_zeros() / 8) as usize
            } else {
                match_len(data, candidate, pos, max_len)
            };
            if len > best_len {
                best_len = len;
                best_dist = pos - candidate;
                if len >= max_len {
                    break;
                }
            }
        }

        if best_len >= MIN_MATCH {
            sink(Token::Match {
                length: best_len as u16,
                distance: best_dist as u16,
            });
            pos += best_len;
        } else {
            sink(Token::Literal(data[pos]));
            pos += 1;
        }
    }
}

/// The 8 bytes at `at`, first byte lowest.
fn word(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().unwrap())
}

/// Length of the common prefix of `data[earlier..]` and `data[pos..]`, at most `max_len`
/// (`pos + max_len <= data.len()`, `earlier < pos`).
fn match_len(data: &[u8], earlier: usize, pos: usize, max_len: usize) -> usize {
    let mut len = 0usize;
    while len + 8 <= max_len {
        let diff = word(data, earlier + len) ^ word(data, pos + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < max_len && data[earlier + len] == data[pos + len] {
        len += 1;
    }
    len
}

/// Reconstruct the original bytes from a token stream.
pub fn detokenize(tokens: &[Token]) -> Result<Vec<u8>, crate::CompressError> {
    let mut out: Vec<u8> = Vec::new();
    for token in tokens {
        match *token {
            Token::Literal(b) => out.push(b),
            Token::Match { length, distance } => {
                let distance = distance as usize;
                let length = length as usize;
                if distance == 0 || distance > out.len() {
                    return Err(crate::CompressError::new(format!(
                        "invalid back-reference distance {distance} at output length {}",
                        out.len()
                    )));
                }
                let start = out.len() - distance;
                for i in 0..length {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

/// Statistics about a token stream, useful for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenStats {
    /// Number of literal tokens.
    pub literals: usize,
    /// Number of match tokens.
    pub matches: usize,
    /// Total bytes covered by matches.
    pub match_bytes: usize,
}

/// Compute [`TokenStats`] for a token stream.
pub fn token_stats(tokens: &[Token]) -> TokenStats {
    let mut stats = TokenStats::default();
    for t in tokens {
        match t {
            Token::Literal(_) => stats.literals += 1,
            Token::Match { length, .. } => {
                stats.matches += 1;
                stats.match_bytes += *length as usize;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests;

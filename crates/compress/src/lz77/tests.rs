use proptest::prelude::*;

use super::*;

/// The linked hash-chain tokenizer the bucket lists replaced, kept as the exactness oracle:
/// `head[h]` is the newest position with hash `h` and `prev[p % WINDOW_SIZE]` the one before.
fn hash_chain_tokenize(data: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
    if data.len() < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }

    // head[h] = most recent position with hash h; prev[pos % WINDOW] = previous position in chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW_SIZE];
    let mut pos = 0usize;

    while pos < data.len() {
        if pos + MIN_MATCH > data.len() {
            tokens.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let h = hash(data, pos);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut candidate = head[h];
        let mut chain = 0usize;
        let window_start = pos.saturating_sub(WINDOW_SIZE);
        while candidate != usize::MAX && candidate >= window_start && chain < MAX_CHAIN {
            let max_len = MAX_MATCH.min(data.len() - pos);
            let mut len = 0usize;
            while len < max_len && data[candidate + len] == data[pos + len] {
                len += 1;
            }
            if len > best_len {
                best_len = len;
                best_dist = pos - candidate;
                if len >= max_len {
                    break;
                }
            }
            let next = prev[candidate % WINDOW_SIZE];
            if next >= candidate {
                break; // stale entry from a previous window lap
            }
            candidate = next;
            chain += 1;
        }

        // Insert the current position into the chain before moving on.
        prev[pos % WINDOW_SIZE] = head[h];
        head[h] = pos;

        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                length: best_len as u16,
                distance: best_dist as u16,
            });
            // Insert the skipped positions into the hash chains so later matches can refer to
            // them (bounded to keep this O(n) in practice).
            let insert_until = (pos + best_len).min(data.len().saturating_sub(MIN_MATCH));
            for p in (pos + 1)..insert_until {
                let hp = hash(data, p);
                prev[p % WINDOW_SIZE] = head[hp];
                head[hp] = p;
            }
            pos += best_len;
        } else {
            tokens.push(Token::Literal(data[pos]));
            pos += 1;
        }
    }
    tokens
}

fn roundtrip(data: &[u8]) {
    let tokens = tokenize(data);
    let back = detokenize(&tokens).unwrap();
    assert_eq!(back, data);
}

#[test]
fn empty_and_tiny_inputs() {
    roundtrip(b"");
    roundtrip(b"a");
    roundtrip(b"ab");
    roundtrip(b"abc");
}

#[test]
fn repetitive_input_produces_matches() {
    let data = b"abcabcabcabcabcabcabcabc".to_vec();
    let tokens = tokenize(&data);
    let stats = token_stats(&tokens);
    assert!(
        stats.matches >= 1,
        "expected at least one back-reference, got {stats:?}"
    );
    assert_eq!(detokenize(&tokens).unwrap(), data);
}

#[test]
fn overlapping_match_is_handled() {
    // "aaaaa..." forces distance-1 matches that overlap their own output.
    let data = vec![b'a'; 500];
    let tokens = tokenize(&data);
    let stats = token_stats(&tokens);
    assert!(stats.match_bytes > 400);
    assert_eq!(detokenize(&tokens).unwrap(), data);
}

#[test]
fn random_like_input_roundtrips() {
    let data: Vec<u8> = (0..10_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    roundtrip(&data);
}

#[test]
fn long_input_exceeding_window() {
    let mut data = Vec::new();
    for i in 0..(WINDOW_SIZE * 3) {
        data.push(((i * 7) % 251) as u8);
    }
    roundtrip(&data);
}

#[test]
fn protein_like_text_roundtrips_and_compacts() {
    let motif = b"MKVLAAGGSTLLQN";
    let mut data = Vec::new();
    for i in 0..2000 {
        data.extend_from_slice(motif);
        data.push(b'A' + (i % 20) as u8);
    }
    let tokens = tokenize(&data);
    assert!(
        tokens.len() < data.len() / 2,
        "token stream should be much shorter than input"
    );
    assert_eq!(detokenize(&tokens).unwrap(), data);
}

#[test]
fn detokenize_rejects_bad_distances() {
    let bad = vec![Token::Match {
        length: 5,
        distance: 3,
    }];
    assert!(detokenize(&bad).is_err());
    let bad = vec![
        Token::Literal(b'x'),
        Token::Match {
            length: 3,
            distance: 0,
        },
    ];
    assert!(detokenize(&bad).is_err());
}

#[test]
fn match_lengths_respect_bounds() {
    let data = vec![b'z'; 4096];
    for token in tokenize(&data) {
        if let Token::Match { length, distance } = token {
            assert!((MIN_MATCH..=MAX_MATCH).contains(&(length as usize)));
            assert!(distance as usize >= 1 && (distance as usize) <= WINDOW_SIZE);
        }
    }
}

/// Inputs that stress the match finder: arbitrary bytes, small alphabets (many equal-length
/// candidates, so the tie rule decides), and long runs past two windows (maximal matches,
/// window expiry).
fn match_finder_inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(prop::num::u8::ANY, 0..3000),
        (2u8..7, prop::collection::vec(prop::num::u8::ANY, 0..6000))
            .prop_map(|(k, bytes)| bytes.into_iter().map(|b| b'A' + b % k).collect()),
        (
            prop::collection::vec((prop::num::u8::ANY, 1usize..3000), 1..40),
            2u8..5
        )
            .prop_map(|(runs, k)| runs
                .into_iter()
                .flat_map(|(b, len)| std::iter::repeat_n(b % k, len))
                .collect()),
        (
            2u8..7,
            2 * WINDOW_SIZE..2 * WINDOW_SIZE + 5000,
            0u64..u64::MAX
        )
            .prop_map(|(k, len, seed)| {
                let mut state = seed;
                (0..len)
                    .map(|i| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // Long runs interleaved with short noise.
                        if (i / 700) % 3 == 0 {
                            b'A' + ((state >> 33) % k as u64) as u8
                        } else {
                            b'A' + ((i / 700) % k as usize) as u8
                        }
                    })
                    .collect()
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    #[test]
    fn bucket_lists_match_the_hash_chains_token_for_token(data in match_finder_inputs()) {
        prop_assert_eq!(tokenize(&data), hash_chain_tokenize(&data));
    }
}

//! Standard base64 (the RFC 4648 alphabet with `=` padding): the textual form of a byte run.
//!
//! An element's byte run ([`crate::xml::XmlNode::Bytes`]) travels as raw bytes in the binary
//! codec and in process; only the textual XML form spells it out, as base64 text, which never
//! needs escaping. This is the one base64 codec of the workspace: the XML serializer encodes
//! with it, and readers of a textual peer's byte run decode with it.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet (padding included) in [`DECODE`].
const INVALID: u8 = 0xFF;

/// Six-bit value of every alphabet byte, [`INVALID`] for every other byte.
static DECODE: [u8; 256] = decode_table();

const fn decode_table() -> [u8; 256] {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// Base64 text that does not decode: a length that is not a multiple of four, padding
/// anywhere but the end of the final quad, more than two padding bytes, or a byte outside the
/// alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Base64Error;

impl std::fmt::Display for Base64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed base64 text")
    }
}

impl std::error::Error for Base64Error {}

/// Length of the base64 text of `len` bytes.
pub fn encoded_len(len: usize) -> usize {
    len.div_ceil(3) * 4
}

/// The base64 text of `bytes`.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(encoded_len(bytes.len()));
    encode_into(bytes, &mut out);
    out
}

/// Append the base64 text of `bytes` to `out`.
pub fn encode_into(bytes: &[u8], out: &mut String) {
    out.reserve(encoded_len(bytes.len()));
    let sextet = |word: u32, shift: u32| ALPHABET[(word >> shift) as usize & 0x3f] as char;
    let mut chunks = bytes.chunks_exact(3);
    for chunk in &mut chunks {
        let word = (u32::from(chunk[0]) << 16) | (u32::from(chunk[1]) << 8) | u32::from(chunk[2]);
        for shift in [18, 12, 6, 0] {
            out.push(sextet(word, shift));
        }
    }
    match *chunks.remainder() {
        [] => {}
        [a] => {
            let word = u32::from(a) << 16;
            out.push(sextet(word, 18));
            out.push(sextet(word, 12));
            out.push_str("==");
        }
        [a, b] => {
            let word = (u32::from(a) << 16) | (u32::from(b) << 8);
            out.push(sextet(word, 18));
            out.push(sextet(word, 12));
            out.push(sextet(word, 6));
            out.push('=');
        }
        _ => unreachable!("chunks_exact(3) leaves at most 2 bytes"),
    }
}

/// Decode base64 text, ignoring surrounding whitespace.
pub fn decode(text: &str) -> Result<Vec<u8>, Base64Error> {
    let text = text.trim().as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(Base64Error);
    }
    let Some((body, last)) = text.split_last_chunk::<4>() else {
        return Ok(Vec::new());
    };
    // Only the final quad may be padded. Padding is not in the alphabet, so an `=` anywhere
    // else — a third one in the final quad included — fails the table lookup below.
    let pad = match last {
        [_, _, b'=', b'='] => 2,
        [_, _, _, b'='] => 1,
        _ => 0,
    };
    let mut out = vec![0u8; body.len() / 4 * 3 + 3 - pad];
    let (body_out, last_out) = out.split_at_mut(body.len() / 4 * 3);
    for (quad, dst) in body.chunks_exact(4).zip(body_out.chunks_exact_mut(3)) {
        let word = quad_word(quad)?;
        dst.copy_from_slice(&word.to_be_bytes()[1..]);
    }
    let mut tail = *last;
    tail[4 - pad..].fill(ALPHABET[0]);
    let word = quad_word(&tail)?;
    last_out.copy_from_slice(&word.to_be_bytes()[1..4 - pad]);
    Ok(out)
}

/// The 24 bits four alphabet bytes spell, or an error when any byte is outside the alphabet.
fn quad_word(quad: &[u8]) -> Result<u32, Base64Error> {
    let [a, b, c, d] = [0, 1, 2, 3].map(|i| DECODE[usize::from(quad[i])]);
    if (a | b | c | d) == INVALID {
        return Err(Base64Error);
    }
    Ok((u32::from(a) << 18) | (u32::from(b) << 12) | (u32::from(c) << 6) | u32::from(d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_all_lengths() {
        for len in 0..48usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let text = encode(&bytes);
            assert_eq!(text.len(), encoded_len(len));
            assert_eq!(decode(&text).unwrap(), bytes, "len {len}");
        }
        let every_byte: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&every_byte)).unwrap(), every_byte);
    }

    #[test]
    fn known_vectors() {
        for (plain, text) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(plain.as_bytes()), text);
            assert_eq!(decode(text).unwrap(), plain.as_bytes());
        }
        assert_eq!(
            decode(" \n Zm9v\t").unwrap(),
            b"foo",
            "surrounding whitespace"
        );
    }

    #[test]
    fn rejects_malformed_text() {
        for bad in [
            "abc",      // length not a multiple of 4
            "ab=c",     // padding inside a quad
            "ab==cdef", // padding before the end
            "a===",     // over-padded quad
            "====",     // a quad of padding
            "a\u{e9}=", // non-alphabet byte
            "Zm9 Zm9v", // inner whitespace
            "Zm9-",     // URL-safe alphabet
        ] {
            assert_eq!(decode(bad), Err(Base64Error), "{bad:?}");
        }
    }
}

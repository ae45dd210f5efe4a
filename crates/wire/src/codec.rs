//! Compact binary encoding of [`Envelope`]s — the payload format of wire version 2 of the
//! TCP frame protocol.
//!
//! The textual wire form ([`Envelope::to_wire`]) is the interoperability baseline, but it
//! pays XML escaping and a full parse on every hop — for JSON payloads (the common case) the
//! quote-escaping alone inflates the message by a third. The binary form is a direct
//! length-prefixed serialization of the envelope structure:
//!
//! ```text
//! envelope := u32 header_count, header*, element          (body)
//! header   := str name, str value
//! element  := str name, u32 attr_count, (str key, str value)*, u32 child_count, node*
//! node     := u8 tag, element            (tag 0)
//!           | u8 tag, str                (tag 1, a text run)
//!           | u8 tag, bytes              (tag 2, a byte run)
//! str      := u32 len LE, len bytes of UTF-8
//! bytes    := u32 len LE, len bytes
//! ```
//!
//! A byte run crosses as its raw bytes; only the textual form spells it out as base64.
//!
//! Decoding is hardened the same way the frame decoder is: every claimed length is checked
//! against the bytes actually remaining **before** any allocation, claimed counts are
//! rejected when the remaining bytes could not possibly hold that many items, nesting is
//! capped at [`MAX_DEPTH`], and every failure is a clean [`CodecError`] — the decoder never
//! panics and never treats a short read as success. Corruption *within* a string is caught
//! one level up by the frame CRC; this module only guarantees memory safety and structural
//! validity.
//!
//! [`decode_envelope`] returns the bytes consumed, so several envelopes can be decoded
//! back-to-back from one multi-envelope frame payload.

use std::collections::BTreeMap;

use crate::envelope::{Envelope, Header};
use crate::xml::{XmlElement, XmlNode};

/// Ceiling on element nesting depth, in this codec and in the textual form's parser — far
/// above any real envelope (bodies are one or two levels deep), low enough that a crafted
/// deeply-nested payload cannot overflow the stack.
pub const MAX_DEPTH: usize = 128;

const TAG_ELEMENT: u8 = 0;
const TAG_TEXT: u8 = 1;
const TAG_BYTES: u8 = 2;

/// Why a binary envelope could not be decoded. Every variant is a clean, reportable error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a section's claimed length: `got` of `expected` bytes remain.
    Truncated {
        /// Bytes the section needed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A claimed item count could not fit in the remaining bytes. Rejected before any
    /// allocation or iteration.
    CountOverflow {
        /// Claimed number of items.
        count: usize,
        /// Bytes remaining — too few for that many items.
        remaining: usize,
    },
    /// A string section was not valid UTF-8.
    BadUtf8,
    /// A child-node tag byte was neither element, text nor byte run.
    BadTag(u8),
    /// Element nesting exceeded [`MAX_DEPTH`].
    TooDeep(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated binary envelope: got {got} of {expected} bytes"
                )
            }
            CodecError::CountOverflow { count, remaining } => {
                write!(
                    f,
                    "binary envelope claims {count} items in {remaining} remaining bytes"
                )
            }
            CodecError::BadUtf8 => write!(f, "binary envelope string is not valid UTF-8"),
            CodecError::BadTag(tag) => write!(f, "unknown binary envelope node tag {tag}"),
            CodecError::TooDeep(depth) => {
                write!(f, "binary envelope nesting exceeds {depth} levels")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append the binary encoding of `envelope` to `out` (the buffer is NOT cleared, so callers
/// can pack several envelopes into one payload and reuse the allocation across calls).
pub fn encode_envelope(envelope: &Envelope, out: &mut Vec<u8>) {
    write_u32(out, envelope.headers.len());
    for header in &envelope.headers {
        write_str(out, &header.name);
        write_str(out, &header.value);
    }
    encode_element(&envelope.body, out);
}

/// Decode one binary envelope from the front of `buf`. Returns the envelope and the bytes it
/// occupied, so callers can resume at the next envelope of a multi-envelope payload.
pub fn decode_envelope(buf: &[u8]) -> Result<(Envelope, usize), CodecError> {
    let mut reader = Reader { buf, pos: 0 };
    // A header is at least two length prefixes (8 bytes); reject impossible counts before
    // iterating or allocating.
    let header_count = reader.read_count(8)?;
    let mut headers = Vec::new();
    for _ in 0..header_count {
        let name = reader.read_str()?;
        let value = reader.read_str()?;
        headers.push(Header { name, value });
    }
    let body = decode_element(&mut reader, 0)?;
    Ok((Envelope { headers, body }, reader.pos))
}

fn encode_element(element: &XmlElement, out: &mut Vec<u8>) {
    write_str(out, &element.name);
    write_u32(out, element.attributes.len());
    for (key, value) in &element.attributes {
        write_str(out, key);
        write_str(out, value);
    }
    write_u32(out, element.children.len());
    for child in &element.children {
        match child {
            XmlNode::Element(child) => {
                out.push(TAG_ELEMENT);
                encode_element(child, out);
            }
            XmlNode::Text(text) => {
                out.push(TAG_TEXT);
                write_str(out, text);
            }
            XmlNode::Bytes(bytes) => {
                out.push(TAG_BYTES);
                write_bytes(out, bytes);
            }
        }
    }
}

fn decode_element(reader: &mut Reader<'_>, depth: usize) -> Result<XmlElement, CodecError> {
    if depth >= MAX_DEPTH {
        return Err(CodecError::TooDeep(MAX_DEPTH));
    }
    let name = reader.read_str()?;
    // An attribute is at least two length prefixes (8 bytes).
    let attr_count = reader.read_count(8)?;
    let mut attributes = BTreeMap::new();
    for _ in 0..attr_count {
        let key = reader.read_str()?;
        let value = reader.read_str()?;
        attributes.insert(key, value);
    }
    // A child is at least a tag byte plus a length prefix (5 bytes).
    let child_count = reader.read_count(5)?;
    let mut children = Vec::new();
    for _ in 0..child_count {
        match reader.read_u8()? {
            TAG_ELEMENT => children.push(XmlNode::Element(decode_element(reader, depth + 1)?)),
            TAG_TEXT => children.push(XmlNode::Text(reader.read_str()?)),
            TAG_BYTES => children.push(XmlNode::Bytes(reader.read_bytes()?.to_vec())),
            other => return Err(CodecError::BadTag(other)),
        }
    }
    Ok(XmlElement {
        name,
        attributes,
        children,
    })
}

fn write_u32(out: &mut Vec<u8>, value: usize) {
    out.extend_from_slice(
        &u32::try_from(value)
            .expect("envelope section count fits u32")
            .to_le_bytes(),
    );
}

fn write_str(out: &mut Vec<u8>, value: &str) {
    write_bytes(out, value.as_bytes());
}

fn write_bytes(out: &mut Vec<u8>, value: &[u8]) {
    write_u32(out, value.len());
    out.extend_from_slice(value);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                expected: n,
                got: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn read_u32(&mut self) -> Result<usize, CodecError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")) as usize)
    }

    /// Read an item count and reject it if `count * min_item_bytes` cannot fit in the
    /// remaining input — a hostile count fails here, before any loop or allocation.
    fn read_count(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
        let count = self.read_u32()?;
        if count > self.remaining() / min_item_bytes {
            return Err(CodecError::CountOverflow {
                count,
                remaining: self.remaining(),
            });
        }
        Ok(count)
    }

    /// Read a length-prefixed byte section, borrowed; the length is validated against the
    /// remaining input before the caller can size an allocation from it.
    fn read_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.read_u32()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string; the bytes are UTF-8-checked *before* the owned
    /// allocation.
    fn read_str(&mut self) -> Result<String, CodecError> {
        let bytes = self.read_bytes()?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|_| CodecError::BadUtf8)?
            .to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Envelope {
        Envelope::request("provenance-store", "record")
            .with_header("message-id", "m-1")
            .with_header("empty", "")
            .with_body(
                XmlElement::new("data")
                    .attr("kind", "script")
                    .child(XmlElement::new("inner").text("a<b&c\"d'é 環 💡"))
                    .child(XmlElement::new("packed").bytes(vec![0, 0xFF, b'<', 7]))
                    .text("tail"),
            )
    }

    #[test]
    fn roundtrip_is_identity() {
        let envelope = sample();
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        let (decoded, consumed) = decode_envelope(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(decoded, envelope);
        assert_eq!(decoded.to_wire(), envelope.to_wire());
    }

    #[test]
    fn two_envelopes_decode_back_to_back() {
        let a = sample();
        let b = Envelope::response("record").with_body(XmlElement::new("ok"));
        let mut buf = Vec::new();
        encode_envelope(&a, &mut buf);
        let first_len = buf.len();
        encode_envelope(&b, &mut buf);
        let (first, consumed) = decode_envelope(&buf).unwrap();
        assert_eq!(consumed, first_len);
        let (second, rest) = decode_envelope(&buf[consumed..]).unwrap();
        assert_eq!(consumed + rest, buf.len());
        assert_eq!(first, a);
        assert_eq!(second, b);
    }

    #[test]
    fn truncation_at_any_offset_is_a_clean_error() {
        let mut buf = Vec::new();
        encode_envelope(&sample(), &mut buf);
        for cut in 0..buf.len() {
            assert!(
                decode_envelope(&buf[..cut]).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // A tiny input claiming u32::MAX headers must fail from the count alone.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            decode_envelope(&buf).unwrap_err(),
            CodecError::CountOverflow { .. }
        ));
        // Same for a hostile string length inside an otherwise valid envelope.
        let mut good = Vec::new();
        encode_envelope(&sample(), &mut good);
        // The first header's name length sits right after the header count.
        good[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_envelope(&good).unwrap_err(),
            CodecError::Truncated { .. }
        ));
    }

    #[test]
    fn unknown_tags_and_bad_utf8_are_clean_errors() {
        let envelope = Envelope::request("s", "a").with_body(XmlElement::new("d").text("t"));
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        // The text child's tag byte precedes the final length-prefixed string.
        let tag_pos = buf.len() - (4 + 1) - 1;
        assert_eq!(buf[tag_pos], TAG_TEXT);
        let mut bad_tag = buf.clone();
        bad_tag[tag_pos] = 7;
        assert_eq!(
            decode_envelope(&bad_tag).unwrap_err(),
            CodecError::BadTag(7)
        );
        let mut bad_utf8 = buf.clone();
        let last = bad_utf8.len() - 1;
        bad_utf8[last] = 0xFF;
        assert_eq!(decode_envelope(&bad_utf8).unwrap_err(), CodecError::BadUtf8);
    }

    #[test]
    fn nesting_past_the_depth_cap_is_rejected() {
        let mut body = XmlElement::new("leaf");
        for i in 0..(MAX_DEPTH + 8) {
            body = XmlElement::new(format!("level-{i}")).child(body);
        }
        let envelope = Envelope::request("s", "a").with_body(body);
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        assert_eq!(
            decode_envelope(&buf).unwrap_err(),
            CodecError::TooDeep(MAX_DEPTH)
        );
    }
}

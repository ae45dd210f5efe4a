//! Binary↔textual codec parity properties.
//!
//! The TCP tier negotiates between two wire formats for the same `Envelope` type: the
//! textual XML form (version 1) and the compact binary form (version 2). Mixed-version
//! clusters only stay correct if the two codecs agree *exactly* on what an envelope is —
//! a record shipped binary to one replica and textual to another must reconstruct the
//! identical envelope, byte-for-byte in its canonical wire form. These properties pin that
//! parity, plus the binary decoder's robustness against truncation, corruption and hostile
//! length claims. Byte runs (packed message bodies) are the one node the two forms carry
//! differently — raw in binary, base64 text in XML — and their properties say exactly how.

use proptest::prelude::*;

use pasoa_wire::base64;
use pasoa_wire::codec::{decode_envelope, encode_envelope};
use pasoa_wire::envelope::Envelope;
use pasoa_wire::xml::{XmlElement, XmlNode};
use pasoa_wire::CodecError;

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_.-]{0,12}"
}

fn text_strategy() -> impl Strategy<Value = String> {
    // XML-hostile characters, whitespace and multi-width UTF-8: anything that survives the
    // textual codec must survive the binary codec identically.
    prop::collection::vec(
        prop_oneof![
            Just('<'),
            Just('>'),
            Just('&'),
            Just('"'),
            Just('\''),
            prop::char::range('a', 'z'),
            prop::char::range('0', '9'),
            Just(' '),
            Just('\n'),
            Just('\t'),
            Just('\r'),
            Just('é'),
            Just('λ'),
            Just('環'),
            Just('💡'),
        ],
        0..40,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn element_strategy() -> impl Strategy<Value = XmlElement> {
    // Text runs are only pushed when non-empty: the textual parser cannot represent an
    // empty text node, and parity is only claimed for envelopes both codecs can express.
    let leaf = (
        name_strategy(),
        text_strategy(),
        prop::collection::btree_map(name_strategy(), text_strategy(), 0..3),
    )
        .prop_map(|(name, text, attrs)| {
            let mut el = XmlElement::new(name);
            el.attributes = attrs;
            if !text.is_empty() {
                el.push_text(text);
            }
            el
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            prop::collection::vec(inner, 0..4),
            text_strategy(),
        )
            .prop_map(|(name, children, text)| {
                let mut el = XmlElement::new(name);
                for c in children {
                    el.push_child(c);
                }
                if !text.is_empty() {
                    el.push_text(text);
                }
                el
            })
    })
}

fn envelope_strategy() -> impl Strategy<Value = Envelope> {
    envelope_with_body(element_strategy())
}

fn envelope_with_body(body: impl Strategy<Value = XmlElement>) -> impl Strategy<Value = Envelope> {
    (
        name_strategy(),
        name_strategy(),
        text_strategy(),
        text_strategy(),
        body,
    )
        .prop_map(|(service, action, msg_id, sender, body)| {
            Envelope::request(&service, &action)
                .with_header("message-id", msg_id)
                .with_header("sender", sender)
                .with_body(body)
        })
}

/// Trees whose leaves are text leaves or byte-run leaves: an element whose only child is a
/// run of arbitrary bytes (possibly empty), the shape of a packed message body.
fn element_with_bytes_strategy() -> impl Strategy<Value = XmlElement> {
    let byte_leaf = (
        name_strategy(),
        prop::collection::vec(prop::num::u8::ANY, 0..96),
    )
        .prop_map(|(name, bytes)| XmlElement::new(name).bytes(bytes));
    let leaf = prop_oneof![element_strategy(), byte_leaf];
    leaf.prop_recursive(3, 24, 4, |inner| {
        (name_strategy(), prop::collection::vec(inner, 0..4)).prop_map(|(name, children)| {
            let mut el = XmlElement::new(name);
            for c in children {
                el.push_child(c);
            }
            el
        })
    })
}

/// `element` with every byte run replaced by a text run holding its base64 text.
fn as_base64_text(element: &XmlElement) -> XmlElement {
    let mut out = XmlElement::new(element.name.clone());
    out.attributes = element.attributes.clone();
    out.children = element
        .children
        .iter()
        .map(|node| match node {
            XmlNode::Element(e) => XmlNode::Element(as_base64_text(e)),
            XmlNode::Text(t) => XmlNode::Text(t.clone()),
            XmlNode::Bytes(b) => XmlNode::Text(base64::encode(b)),
        })
        .collect();
    out
}

/// Walk `original` and its textual round trip `parsed` together and check that every byte
/// run came back as text decoding to the same bytes.
fn check_byte_runs(original: &XmlElement, parsed: &XmlElement) -> Result<(), TestCaseError> {
    if let Some(bytes) = original.byte_run() {
        prop_assert!(
            parsed.byte_run().is_none(),
            "the textual parser yields text"
        );
        let text = parsed.text_content();
        prop_assert_eq!(base64::decode(&text).unwrap(), bytes.to_vec());
    }
    prop_assert_eq!(original.child_count(), parsed.child_count());
    for (o, p) in original.elements().zip(parsed.elements()) {
        check_byte_runs(o, p)?;
    }
    Ok(())
}

proptest! {
    /// The binary codec is loss-free and exact about consumption: decoding reproduces the
    /// envelope and reports exactly the bytes the encoder produced, even with trailing
    /// data appended (as in a multi-envelope frame).
    #[test]
    fn binary_roundtrip_is_lossless(envelope in envelope_strategy()) {
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        let encoded_len = buf.len();
        buf.extend_from_slice(b"trailing bytes of the next envelope");
        let (decoded, consumed) = decode_envelope(&buf).unwrap();
        prop_assert_eq!(consumed, encoded_len);
        prop_assert_eq!(decoded, envelope);
    }

    /// Bit-for-bit parity between the codecs: shipping an envelope binary or textual and
    /// decoding on the other side yields envelopes whose canonical textual wire forms are
    /// identical bytes, and whose binary encodings are identical bytes. This is the
    /// mixed-version-cluster guarantee — the format on the wire never changes the record.
    #[test]
    fn binary_and_textual_agree_bit_for_bit(envelope in envelope_strategy()) {
        // Textual trip.
        let text = envelope.to_wire();
        let via_text = Envelope::from_wire(&text).unwrap();
        // Binary trip.
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        let (via_binary, _) = decode_envelope(&buf).unwrap();
        // Both trips reproduce the same envelope...
        prop_assert_eq!(&via_text, &via_binary);
        prop_assert_eq!(&via_binary, &envelope);
        // ...and agree on both canonical serializations, byte for byte.
        prop_assert_eq!(via_binary.to_wire(), text);
        let mut rebuf = Vec::new();
        encode_envelope(&via_text, &mut rebuf);
        prop_assert_eq!(rebuf, buf);
    }

    /// Truncating a binary envelope at any offset is a clean `Truncated` error — never a
    /// panic, never a partial decode passed off as success.
    #[test]
    fn binary_truncation_is_a_clean_error(
        envelope in envelope_strategy(),
        cut_seed in 0usize..1_000_000,
    ) {
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        let cut = cut_seed % buf.len(); // every prefix strictly shorter than the encoding
        match decode_envelope(&buf[..cut]) {
            Err(CodecError::Truncated { .. }) => {}
            Err(_) => {} // a shortened length prefix can surface as any clean codec error
            Ok((_, consumed)) => prop_assert!(
                false,
                "cut {}: a short read decoded successfully ({} bytes)",
                cut,
                consumed
            ),
        }
    }

    /// Flipping any byte never panics and never decodes to the original envelope while
    /// claiming the same length. (Unlike the frame layer there is no checksum here — a flip
    /// inside string *content* decodes to a different envelope; the frame CRC above this
    /// codec is what detects corruption in transit.)
    #[test]
    fn binary_corruption_never_panics(
        envelope in envelope_strategy(),
        pos_seed in 0usize..1_000_000,
        xor in 1u8..255,
    ) {
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        let pos = pos_seed % buf.len();
        buf[pos] ^= xor;
        if let Ok((decoded, consumed)) = decode_envelope(&buf) {
            prop_assert!(
                !(decoded == envelope && consumed == buf.len()),
                "flip of byte {} was silently absorbed",
                pos
            );
        }
    }

    /// Hostile count claims fail before they can size an allocation: a header-count or
    /// child-count field rewritten to a huge value is rejected from the remaining byte
    /// budget alone, in bounded time.
    #[test]
    fn hostile_counts_fail_before_allocation(
        envelope in envelope_strategy(),
        claimed in prop_oneof![Just(u32::MAX), Just(u32::MAX / 2), 1_000_000u32..2_000_000],
    ) {
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        // The first four bytes are the header count; every strategy-built envelope has two
        // headers and far fewer spare bytes than any hostile claim needs.
        buf[0..4].copy_from_slice(&claimed.to_le_bytes());
        match decode_envelope(&buf) {
            Err(CodecError::CountOverflow { .. }) | Err(CodecError::Truncated { .. }) => {}
            other => prop_assert!(false, "claim {}: unexpected {:?}", claimed, other),
        }
    }

    /// A byte run crosses the binary codec as it is: the round trip is the identity, byte
    /// runs included.
    #[test]
    fn byte_runs_roundtrip_binary_as_they_are(
        envelope in envelope_with_body(element_with_bytes_strategy()),
    ) {
        let mut buf = Vec::new();
        encode_envelope(&envelope, &mut buf);
        let (decoded, consumed) = decode_envelope(&buf).unwrap();
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(&decoded, &envelope);
        let mut rebuf = Vec::new();
        encode_envelope(&decoded, &mut rebuf);
        prop_assert_eq!(rebuf, buf);
    }

    /// The textual form of a byte run is exactly its base64 text: an envelope holding byte
    /// runs serializes to the same bytes as the envelope holding their base64 text runs
    /// instead, so the XML form — and every byte count taken from it — is what it was when
    /// packed bodies were base64 text in memory too.
    #[test]
    fn byte_runs_render_as_their_base64_text(
        envelope in envelope_with_body(element_with_bytes_strategy()),
    ) {
        let text_body = envelope.clone().with_body(as_base64_text(&envelope.body));
        prop_assert_eq!(envelope.to_wire(), text_body.to_wire());
        prop_assert_eq!(envelope.to_wire().len(), text_body.to_wire().len());
    }

    /// The textual round trip reads a byte run back as text, and that text decodes to the
    /// same bytes.
    #[test]
    fn byte_runs_survive_the_textual_trip_as_base64(
        envelope in envelope_with_body(element_with_bytes_strategy()),
    ) {
        let via_text = Envelope::from_wire(&envelope.to_wire()).unwrap();
        prop_assert_eq!(&via_text.headers, &envelope.headers);
        check_byte_runs(&envelope.body, &via_text.body)?;
    }
}

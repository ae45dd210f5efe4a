//! The PReP message translator: the one place that knows which form a message body is in.
//!
//! The generic envelope payload is JSON text ([`pasoa_wire::Envelope::with_json_payload`]),
//! which every client can produce but which costs a full text round trip — format on the
//! sender, re-parse through a value tree on the receiver — per hop. For the record submissions
//! that dominate a provenance store's traffic this tax is the difference between the TCP tier
//! keeping up with the in-process tier and falling behind it.
//!
//! So a [`RecordMessage`] (and its [`RecordAck`]) also has a packed form: a length-prefixed
//! binary layout shipped as base64 text inside a dedicated body element, which both wire
//! codecs — textual XML frames and binary envelope frames — carry unchanged. Every service
//! that speaks PReP decodes requests with [`decode_request`] and acknowledges records with
//! [`ack_envelope`], which answers in the form the request arrived in; senders that want the
//! packed form build their envelopes with [`request_envelope`]. Recorders that send JSON
//! `Record` messages are served unchanged, and nothing outside this module looks at a body
//! element's name.

use pasoa_wire::{Envelope, WireError, WireResult, XmlElement};

use crate::ids::{ActorId, DataId, InteractionKey, MessageId, SessionId};
use crate::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, RelationshipPAssertion, ViewKind,
};
use crate::prep::{PrepMessage, RecordAck, RecordMessage};

/// Body element name of a packed record submission.
const RECORD_ELEMENT: &str = "prep-record-packed";
/// Body element name of a packed record acknowledgement.
const ACK_ELEMENT: &str = "prep-ack-packed";

/// Layout version written as the first byte of every packed payload.
const PACK_VERSION: u8 = 1;

/// Why a packed payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The body element is not the expected packed carrier.
    WrongElement {
        /// Element name the decoder was asked for.
        expected: &'static str,
        /// Element name actually present.
        got: String,
    },
    /// The base64 text is malformed.
    BadBase64,
    /// The payload claims a layout version this decoder does not speak.
    BadVersion(u8),
    /// The payload ended before a declared field.
    Truncated {
        /// Bytes the field needed.
        expected: usize,
        /// Bytes that remained.
        got: usize,
    },
    /// A declared element count exceeds what the remaining bytes could possibly hold.
    CountOverflow {
        /// The declared count.
        count: u32,
        /// Bytes remaining in the payload.
        remaining: usize,
    },
    /// An enum tag byte is outside the known range.
    BadTag(u8),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Structured content carried JSON that does not parse.
    BadJson(String),
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::WrongElement { expected, got } => {
                write!(
                    f,
                    "body element <{got}> is not the packed carrier <{expected}>"
                )
            }
            PackError::BadBase64 => write!(f, "malformed base64 text"),
            PackError::BadVersion(v) => write!(f, "unknown packed layout version {v}"),
            PackError::Truncated { expected, got } => {
                write!(
                    f,
                    "payload truncated: field needs {expected} bytes, {got} remain"
                )
            }
            PackError::CountOverflow { count, remaining } => {
                write!(
                    f,
                    "declared count {count} exceeds the {remaining} remaining bytes"
                )
            }
            PackError::BadTag(tag) => write!(f, "unknown enum tag {tag}"),
            PackError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            PackError::BadJson(e) => write!(f, "structured content JSON: {e}"),
        }
    }
}

impl std::error::Error for PackError {}

/// Build the request envelope carrying `message` to `service`: record submissions in the
/// packed form, every other message as JSON.
pub fn request_envelope(
    service: &str,
    action: &str,
    message: &PrepMessage,
) -> WireResult<Envelope> {
    let envelope = Envelope::request(service, action);
    match message {
        PrepMessage::Record(record) => Ok(envelope.with_body(record_to_element(record))),
        other => envelope.with_json_payload(other),
    }
}

/// Decode the PReP message a request envelope carries, whichever form its body is in.
pub fn decode_request(request: &Envelope) -> WireResult<PrepMessage> {
    if request.body.name == RECORD_ELEMENT {
        record_from_element(&request.body)
            .map(PrepMessage::Record)
            .map_err(|e| WireError::Payload(format!("packed record: {e}")))
    } else {
        request.json_payload()
    }
}

/// Build the response acknowledging the record submission `request`, in the form the request
/// arrived in: a packed sender gets a packed ack, a JSON sender a JSON one.
pub fn ack_envelope(request: &Envelope, ack: &RecordAck) -> WireResult<Envelope> {
    let response = Envelope::response(request.action().unwrap_or("record"));
    if request.body.name == RECORD_ELEMENT {
        Ok(response.with_body(ack_to_element(ack)))
    } else {
        response.with_json_payload(ack)
    }
}

/// Pack a record submission into its wire body element.
pub fn record_to_element(message: &RecordMessage) -> XmlElement {
    let mut out = Vec::with_capacity(64 + message.assertions.len() * 256);
    out.push(PACK_VERSION);
    put_str(&mut out, message.message_id.as_str());
    put_str(&mut out, message.asserter.as_str());
    put_u32(&mut out, message.assertions.len());
    for recorded in &message.assertions {
        put_str(&mut out, recorded.session.as_str());
        put_assertion(&mut out, &recorded.assertion);
    }
    XmlElement::new(RECORD_ELEMENT).text(to_base64(&out))
}

/// Unpack a record submission from its wire body element.
pub fn record_from_element(element: &XmlElement) -> Result<RecordMessage, PackError> {
    let bytes = unpack_payload(element, RECORD_ELEMENT)?;
    let mut r = Reader::new(&bytes)?;
    let message_id = MessageId::new(r.str()?);
    let asserter = ActorId::new(r.str()?);
    let count = r.count()?;
    let mut assertions = Vec::with_capacity(count);
    for _ in 0..count {
        let session = SessionId::new(r.str()?);
        let assertion = take_assertion(&mut r)?;
        assertions.push(RecordedAssertion { session, assertion });
    }
    r.finish()?;
    Ok(RecordMessage {
        message_id,
        asserter,
        assertions,
    })
}

/// Pack a record acknowledgement into its wire body element.
pub fn ack_to_element(ack: &RecordAck) -> XmlElement {
    let mut out = Vec::with_capacity(64);
    out.push(PACK_VERSION);
    put_str(&mut out, ack.message_id.as_str());
    put_u64(&mut out, ack.accepted as u64);
    put_u32(&mut out, ack.rejected.len());
    for reason in &ack.rejected {
        put_str(&mut out, reason);
    }
    XmlElement::new(ACK_ELEMENT).text(to_base64(&out))
}

/// Unpack a record acknowledgement from its wire body element.
pub fn ack_from_element(element: &XmlElement) -> Result<RecordAck, PackError> {
    let bytes = unpack_payload(element, ACK_ELEMENT)?;
    let mut r = Reader::new(&bytes)?;
    let message_id = MessageId::new(r.str()?);
    let accepted = r.u64()? as usize;
    let count = r.count()?;
    let mut rejected = Vec::with_capacity(count);
    for _ in 0..count {
        rejected.push(r.str()?);
    }
    r.finish()?;
    Ok(RecordAck {
        message_id,
        accepted,
        rejected,
    })
}

fn unpack_payload(element: &XmlElement, expected: &'static str) -> Result<Vec<u8>, PackError> {
    if element.name != expected {
        return Err(PackError::WrongElement {
            expected,
            got: element.name.clone(),
        });
    }
    from_base64(&element.text_content())
}

fn put_assertion(out: &mut Vec<u8>, assertion: &PAssertion) {
    match assertion {
        PAssertion::Interaction(a) => {
            out.push(0);
            put_str(out, a.interaction_key.as_str());
            put_str(out, a.asserter.as_str());
            put_view(out, a.view);
            put_str(out, a.sender.as_str());
            put_str(out, a.receiver.as_str());
            put_str(out, &a.operation);
            put_content(out, &a.content);
            put_u32(out, a.data_ids.len());
            for id in &a.data_ids {
                put_str(out, id.as_str());
            }
        }
        PAssertion::ActorState(a) => {
            out.push(1);
            put_str(out, a.interaction_key.as_str());
            put_str(out, a.asserter.as_str());
            put_view(out, a.view);
            match &a.kind {
                ActorStateKind::Script => out.push(0),
                ActorStateKind::Workflow => out.push(1),
                ActorStateKind::ResourceUsage => out.push(2),
                ActorStateKind::Configuration => out.push(3),
                ActorStateKind::Other(name) => {
                    out.push(4);
                    put_str(out, name);
                }
            }
            put_content(out, &a.content);
        }
        PAssertion::Relationship(a) => {
            out.push(2);
            put_str(out, a.interaction_key.as_str());
            put_str(out, a.asserter.as_str());
            put_str(out, a.effect.as_str());
            put_u32(out, a.causes.len());
            for (key, id) in &a.causes {
                put_str(out, key.as_str());
                put_str(out, id.as_str());
            }
            put_str(out, &a.relation);
        }
    }
}

fn take_assertion(r: &mut Reader<'_>) -> Result<PAssertion, PackError> {
    match r.u8()? {
        0 => {
            let interaction_key = InteractionKey::new(r.str()?);
            let asserter = ActorId::new(r.str()?);
            let view = take_view(r)?;
            let sender = ActorId::new(r.str()?);
            let receiver = ActorId::new(r.str()?);
            let operation = r.str()?;
            let content = take_content(r)?;
            let count = r.count()?;
            let mut data_ids = Vec::with_capacity(count);
            for _ in 0..count {
                data_ids.push(DataId::new(r.str()?));
            }
            Ok(PAssertion::Interaction(InteractionPAssertion {
                interaction_key,
                asserter,
                view,
                sender,
                receiver,
                operation,
                content,
                data_ids,
            }))
        }
        1 => {
            let interaction_key = InteractionKey::new(r.str()?);
            let asserter = ActorId::new(r.str()?);
            let view = take_view(r)?;
            let kind = match r.u8()? {
                0 => ActorStateKind::Script,
                1 => ActorStateKind::Workflow,
                2 => ActorStateKind::ResourceUsage,
                3 => ActorStateKind::Configuration,
                4 => ActorStateKind::Other(r.str()?),
                tag => return Err(PackError::BadTag(tag)),
            };
            let content = take_content(r)?;
            Ok(PAssertion::ActorState(ActorStatePAssertion {
                interaction_key,
                asserter,
                view,
                kind,
                content,
            }))
        }
        2 => {
            let interaction_key = InteractionKey::new(r.str()?);
            let asserter = ActorId::new(r.str()?);
            let effect = DataId::new(r.str()?);
            let count = r.count()?;
            let mut causes = Vec::with_capacity(count);
            for _ in 0..count {
                let key = InteractionKey::new(r.str()?);
                let id = DataId::new(r.str()?);
                causes.push((key, id));
            }
            let relation = r.str()?;
            Ok(PAssertion::Relationship(RelationshipPAssertion {
                interaction_key,
                asserter,
                effect,
                causes,
                relation,
            }))
        }
        tag => Err(PackError::BadTag(tag)),
    }
}

fn put_view(out: &mut Vec<u8>, view: ViewKind) {
    out.push(match view {
        ViewKind::Sender => 0,
        ViewKind::Receiver => 1,
    });
}

fn take_view(r: &mut Reader<'_>) -> Result<ViewKind, PackError> {
    match r.u8()? {
        0 => Ok(ViewKind::Sender),
        1 => Ok(ViewKind::Receiver),
        tag => Err(PackError::BadTag(tag)),
    }
}

fn put_content(out: &mut Vec<u8>, content: &PAssertionContent) {
    match content {
        PAssertionContent::Text(text) => {
            out.push(0);
            put_str(out, text);
        }
        // Structured content is the cold variant; its value tree rides along as JSON text
        // rather than growing the layout a full value encoding.
        PAssertionContent::Structured(value) => {
            out.push(1);
            let json = serde_json::to_string(value)
                .expect("a JSON value tree always serializes to JSON text");
            put_str(out, &json);
        }
    }
}

fn take_content(r: &mut Reader<'_>) -> Result<PAssertionContent, PackError> {
    match r.u8()? {
        0 => Ok(PAssertionContent::Text(r.str()?)),
        1 => {
            let json = r.str()?;
            let value =
                serde_json::from_str(&json).map_err(|e| PackError::BadJson(e.to_string()))?;
            Ok(PAssertionContent::Structured(value))
        }
        tag => Err(PackError::BadTag(tag)),
    }
}

fn put_u32(out: &mut Vec<u8>, value: usize) {
    let value = u32::try_from(value).expect("field length exceeds the packed layout's u32 range");
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Result<Self, PackError> {
        let mut r = Reader { bytes, pos: 0 };
        match r.u8()? {
            PACK_VERSION => Ok(r),
            version => Err(PackError::BadVersion(version)),
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PackError> {
        if self.remaining() < n {
            return Err(PackError::Truncated {
                expected: n,
                got: self.remaining(),
            });
        }
        let chunk = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(chunk)
    }

    fn u8(&mut self) -> Result<u8, PackError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PackError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PackError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an element count, refusing counts no suffix of the payload could hold — every
    /// element occupies at least one byte, so a hostile count fails here instead of sizing
    /// an enormous allocation.
    fn count(&mut self) -> Result<usize, PackError> {
        let count = self.u32()?;
        if count as usize > self.remaining() {
            return Err(PackError::CountOverflow {
                count,
                remaining: self.remaining(),
            });
        }
        Ok(count as usize)
    }

    fn str(&mut self) -> Result<String, PackError> {
        let len = self.u32()? as usize;
        let chunk = self.take(len)?;
        std::str::from_utf8(chunk)
            .map(str::to_owned)
            .map_err(|_| PackError::BadUtf8)
    }

    fn finish(&self) -> Result<(), PackError> {
        if self.remaining() != 0 {
            // Trailing garbage means a layout mismatch; absorbing it silently would let
            // corrupted payloads pass as shorter valid ones.
            return Err(PackError::Truncated {
                expected: 0,
                got: self.remaining(),
            });
        }
        Ok(())
    }
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn to_base64(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    let mut chunks = bytes.chunks_exact(3);
    for chunk in &mut chunks {
        let word = (u32::from(chunk[0]) << 16) | (u32::from(chunk[1]) << 8) | u32::from(chunk[2]);
        for shift in [18, 12, 6, 0] {
            out.push(BASE64_ALPHABET[(word >> shift) as usize & 0x3f] as char);
        }
    }
    match chunks.remainder() {
        [] => {}
        [a] => {
            let word = u32::from(*a) << 16;
            out.push(BASE64_ALPHABET[(word >> 18) as usize & 0x3f] as char);
            out.push(BASE64_ALPHABET[(word >> 12) as usize & 0x3f] as char);
            out.push_str("==");
        }
        [a, b] => {
            let word = (u32::from(*a) << 16) | (u32::from(*b) << 8);
            out.push(BASE64_ALPHABET[(word >> 18) as usize & 0x3f] as char);
            out.push(BASE64_ALPHABET[(word >> 12) as usize & 0x3f] as char);
            out.push(BASE64_ALPHABET[(word >> 6) as usize & 0x3f] as char);
            out.push('=');
        }
        _ => unreachable!("chunks_exact(3) leaves at most 2 bytes"),
    }
    out
}

fn from_base64(text: &str) -> Result<Vec<u8>, PackError> {
    let bytes = text.trim().as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(PackError::BadBase64);
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (index, quad) in bytes.chunks_exact(4).enumerate() {
        let pad = quad.iter().rev().take_while(|&&b| b == b'=').count();
        if pad > 2 || quad[..4 - pad].contains(&b'=') {
            return Err(PackError::BadBase64);
        }
        if pad > 0 && (index + 1) * 4 != bytes.len() {
            // Padding may only close the final quad.
            return Err(PackError::BadBase64);
        }
        let mut word = 0u32;
        for &b in &quad[..4 - pad] {
            word = (word << 6) | u32::from(b64_value(b).ok_or(PackError::BadBase64)?);
        }
        word <<= 6 * pad;
        out.push((word >> 16) as u8);
        if pad < 2 {
            out.push((word >> 8) as u8);
        }
        if pad < 1 {
            out.push(word as u8);
        }
    }
    Ok(out)
}

fn b64_value(b: u8) -> Option<u8> {
    match b {
        b'A'..=b'Z' => Some(b - b'A'),
        b'a'..=b'z' => Some(b - b'a' + 26),
        b'0'..=b'9' => Some(b - b'0' + 52),
        b'+' => Some(62),
        b'/' => Some(63),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MessageId;

    fn full_record() -> RecordMessage {
        RecordMessage {
            message_id: MessageId::new("message:p:1"),
            asserter: ActorId::new("engine"),
            assertions: vec![
                RecordedAssertion {
                    session: SessionId::new("session:p:0"),
                    assertion: PAssertion::Interaction(InteractionPAssertion {
                        interaction_key: InteractionKey::new("interaction:p:1"),
                        asserter: ActorId::new("engine"),
                        view: ViewKind::Sender,
                        sender: ActorId::new("engine"),
                        receiver: ActorId::new("gzip"),
                        operation: "compress".into(),
                        content: PAssertionContent::text("payload with ünïcode 🦀 and \"quotes\""),
                        data_ids: vec![DataId::new("data:p:1"), DataId::new("data:p:2")],
                    }),
                },
                RecordedAssertion {
                    session: SessionId::new("session:p:0"),
                    assertion: PAssertion::ActorState(ActorStatePAssertion {
                        interaction_key: InteractionKey::new("interaction:p:1"),
                        asserter: ActorId::new("gzip"),
                        view: ViewKind::Receiver,
                        kind: ActorStateKind::Other("queue-depth".into()),
                        content: PAssertionContent::structured(&vec![1u32, 2, 3]),
                    }),
                },
                RecordedAssertion {
                    session: SessionId::new("session:p:0"),
                    assertion: PAssertion::Relationship(RelationshipPAssertion {
                        interaction_key: InteractionKey::new("interaction:p:2"),
                        asserter: ActorId::new("gzip"),
                        effect: DataId::new("data:p:3"),
                        causes: vec![
                            (
                                InteractionKey::new("interaction:p:1"),
                                DataId::new("data:p:1"),
                            ),
                            (
                                InteractionKey::new("interaction:p:1"),
                                DataId::new("data:p:2"),
                            ),
                        ],
                        relation: "compressed-from".into(),
                    }),
                },
            ],
        }
    }

    #[test]
    fn record_roundtrips_through_the_packed_element() {
        let message = full_record();
        let element = record_to_element(&message);
        assert_eq!(element.name, RECORD_ELEMENT);
        assert_eq!(record_from_element(&element).unwrap(), message);
    }

    #[test]
    fn every_actor_state_kind_roundtrips() {
        for kind in [
            ActorStateKind::Script,
            ActorStateKind::Workflow,
            ActorStateKind::ResourceUsage,
            ActorStateKind::Configuration,
            ActorStateKind::Other("custom".into()),
        ] {
            let message = RecordMessage {
                message_id: MessageId::new("message:k"),
                asserter: ActorId::new("a"),
                assertions: vec![RecordedAssertion {
                    session: SessionId::new("session:k"),
                    assertion: PAssertion::ActorState(ActorStatePAssertion {
                        interaction_key: InteractionKey::new("interaction:k"),
                        asserter: ActorId::new("a"),
                        view: ViewKind::Receiver,
                        kind: kind.clone(),
                        content: PAssertionContent::text(""),
                    }),
                }],
            };
            let back = record_from_element(&record_to_element(&message)).unwrap();
            assert_eq!(back, message, "kind {kind:?}");
        }
    }

    #[test]
    fn ack_roundtrips_through_the_packed_element() {
        for ack in [
            RecordAck {
                message_id: MessageId::new("message:a:1"),
                accepted: 64,
                rejected: vec![],
            },
            RecordAck {
                message_id: MessageId::new("message:a:2"),
                accepted: 1,
                rejected: vec!["duplicate".into(), "too large".into()],
            },
        ] {
            let element = ack_to_element(&ack);
            assert_eq!(element.name, ACK_ELEMENT);
            assert_eq!(ack_from_element(&element).unwrap(), ack);
        }
    }

    #[test]
    fn translator_decodes_both_body_forms_and_answers_in_the_form_of_the_request() {
        let message = PrepMessage::Record(full_record());
        let ack = RecordAck {
            message_id: MessageId::new("message:p:1"),
            accepted: 3,
            rejected: vec![],
        };
        let packed = request_envelope("provenance-store", "record", &message).unwrap();
        let json = Envelope::request("provenance-store", "record")
            .with_json_payload(&message)
            .unwrap();
        assert_eq!(packed.body.name, RECORD_ELEMENT);
        assert_ne!(json.body.name, RECORD_ELEMENT);
        for request in [&packed, &json] {
            assert_eq!(decode_request(request).unwrap(), message);
        }
        // A packed sender reads its ack with the packed decoder, a v1 JSON recorder with
        // `json_payload` — each gets the form it sent.
        let packed_ack = ack_envelope(&packed, &ack).unwrap();
        assert_eq!(packed_ack.action(), Some("record-response"));
        assert_eq!(ack_from_element(&packed_ack.body).unwrap(), ack);
        let json_ack = ack_envelope(&json, &ack).unwrap();
        assert_eq!(json_ack.json_payload::<RecordAck>().unwrap(), ack);

        // Everything but a record submission travels as JSON, and decodes the same way.
        let query = PrepMessage::Query(crate::prep::QueryRequest::Statistics);
        let request = request_envelope("provenance-store", "query", &query).unwrap();
        assert_eq!(request.json_payload::<PrepMessage>().unwrap(), query);
        assert_eq!(decode_request(&request).unwrap(), query);

        // A corrupt packed body is a payload error, never a fallback to the JSON decoder.
        let corrupt = Envelope::request("provenance-store", "record")
            .with_body(XmlElement::new(RECORD_ELEMENT).text("not base64!"));
        assert!(matches!(
            decode_request(&corrupt),
            Err(WireError::Payload(reason)) if reason.starts_with("packed record")
        ));
    }

    #[test]
    fn packed_element_survives_both_wire_codecs() {
        let message = full_record();
        let envelope = pasoa_wire::Envelope::request("provenance-store", "record")
            .with_body(record_to_element(&message));

        // Textual XML frames.
        let text = envelope.to_wire();
        let textual = pasoa_wire::Envelope::from_wire(&text).unwrap();
        assert_eq!(record_from_element(&textual.body).unwrap(), message);

        // Binary envelope frames.
        let mut bytes = Vec::new();
        pasoa_wire::codec::encode_envelope(&envelope, &mut bytes);
        let (binary, consumed) = pasoa_wire::codec::decode_envelope(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(record_from_element(&binary.body).unwrap(), message);
    }

    #[test]
    fn wrong_element_and_bad_payloads_are_clean_errors() {
        let other = XmlElement::new("json-payload").text("{}");
        assert!(matches!(
            record_from_element(&other),
            Err(PackError::WrongElement { .. })
        ));
        assert!(matches!(
            ack_from_element(&XmlElement::new(ACK_ELEMENT).text("not base64!")),
            Err(PackError::BadBase64)
        ));
        // A truncated but base64-valid payload fails structurally, never panics.
        let element = record_to_element(&full_record());
        let full = element.text_content();
        for cut in (4..full.len() - 4).step_by(7) {
            let clipped = XmlElement::new(RECORD_ELEMENT).text(full[..cut - cut % 4].to_string());
            assert!(record_from_element(&clipped).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_counts_fail_before_allocation() {
        // version + short strings + a count claiming u32::MAX assertions.
        let mut payload = vec![PACK_VERSION];
        put_str(&mut payload, "message:h");
        put_str(&mut payload, "attacker");
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let element = XmlElement::new(RECORD_ELEMENT).text(to_base64(&payload));
        assert!(matches!(
            record_from_element(&element),
            Err(PackError::CountOverflow {
                count: u32::MAX,
                ..
            })
        ));
    }

    #[test]
    fn version_drift_is_rejected() {
        let mut payload = vec![PACK_VERSION + 1];
        put_str(&mut payload, "message:v");
        let element = XmlElement::new(ACK_ELEMENT).text(to_base64(&payload));
        assert_eq!(
            ack_from_element(&element),
            Err(PackError::BadVersion(PACK_VERSION + 1))
        );
    }

    #[test]
    fn base64_roundtrips_all_lengths_and_rejects_malformed_text() {
        for len in 0..48usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let text = to_base64(&bytes);
            assert_eq!(from_base64(&text).unwrap(), bytes, "len {len}");
        }
        assert!(from_base64("abc").is_err(), "length not a multiple of 4");
        assert!(from_base64("ab=c").is_err(), "padding inside a quad");
        assert!(from_base64("ab==cdef").is_err(), "padding before the end");
        assert!(from_base64("a===").is_err(), "over-padded quad");
        assert!(from_base64("ab\u{e9}=").is_err(), "non-alphabet byte");
    }
}

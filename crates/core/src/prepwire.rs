//! The PReP message translator and the one packed layout of a p-assertion.
//!
//! The generic envelope payload is JSON text ([`pasoa_wire::Envelope::with_json_payload`]),
//! which every client can produce but which costs a full text round trip — format on the
//! sender, re-parse through a value tree on the receiver — per hop. So the messages that
//! dominate a provenance store's traffic also have a packed form: a length-prefixed binary
//! layout carried as a byte run inside a dedicated body element. Binary envelope frames and
//! in-process envelopes carry the bytes as they are; only the textual XML form spells them
//! out as base64 text, and the unpacking side reads either.
//!
//! This module owns three things:
//!
//! * **The translator.** Every service that speaks PReP decodes requests with
//!   [`decode_request`]; senders that want the packed form (the router's link to its shards,
//!   load generators) build their envelopes with [`request_envelope`], which packs record
//!   submissions and asks for query answers in stored form. Answers go back in the form the
//!   request arrived in: [`ack_envelope`] for records, [`documents_envelope`] for
//!   assertion-producing queries. Recorders and
//!   reasoners that send JSON are served unchanged, and nothing outside this module looks at
//!   a body element's name.
//! * **The stored form.** A stored p-assertion document is the record hop's packed layout of
//!   one assertion ([`encode_document`] / [`decode_document`]): the bytes a shard received
//!   are the bytes it stores.
//! * **The assertion answer bodies.** A query answer is built straight from stored bytes by
//!   [`documents_envelope`], for a lone store and for the router alike: towards a sender that
//!   asked for the stored form (the router asking a shard) it is the sort-keyed page carrier
//!   ([`page_from_response`] reads it back), towards a JSON client the packed documents are
//!   transcoded directly into the compact JSON text the typed answer serializes to —
//!   validated as strictly as a decode, but without building a single [`RecordedAssertion`].

use std::borrow::Cow;

use pasoa_wire::{base64, Envelope, WireError, WireResult, XmlElement};

use crate::ids::{ActorId, DataId, InteractionKey, MessageId, SessionId};
use crate::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, RelationshipPAssertion, ViewKind,
};
use crate::prep::{PageCursor, PrepMessage, RecordAck, RecordMessage, ShardQueryPage};

/// Body element name of a packed record submission.
const RECORD_ELEMENT: &str = "prep-record-packed";
/// Body element name of a packed record acknowledgement.
const ACK_ELEMENT: &str = "prep-ack-packed";
/// Body element name of a query or page request whose sender wants an assertion answer as
/// stored documents (the page carrier). The request itself rides as JSON text: it is small,
/// and only the answer is worth packing.
const QUERY_ELEMENT: &str = "prep-query-stored";
/// Body element name of the sort-keyed page of stored documents a shard answers a packed
/// query with.
const PAGE_ELEMENT: &str = "prep-page-packed";

/// Layout version written as the first byte of every packed payload and stored document.
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
    /// A textual carrier's base64 text is malformed.
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

/// A stored document that failed to transcode, named by its sort key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptDocument {
    /// The sort key the document is stored under.
    pub sort_key: String,
    /// What is wrong with its bytes.
    pub error: PackError,
}

impl std::fmt::Display for CorruptDocument {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stored document {}: {}", self.sort_key, self.error)
    }
}

impl std::error::Error for CorruptDocument {}

/// Build the request envelope carrying `message` to `service`: record submissions in the
/// packed form, queries asking for stored-form answers, group registrations as JSON.
pub fn request_envelope(
    service: &str,
    action: &str,
    message: &PrepMessage,
) -> WireResult<Envelope> {
    let envelope = Envelope::request(service, action);
    match message {
        PrepMessage::Record(record) => Ok(envelope.with_body(record_to_element(record))),
        PrepMessage::Query(_) | PrepMessage::QueryPage(_) => {
            let json = serde_json::to_string(message)
                .map_err(|e| WireError::Payload(format!("serialize: {e}")))?;
            Ok(envelope.with_body(XmlElement::new(QUERY_ELEMENT).text(json)))
        }
        other => envelope.with_json_payload(other),
    }
}

/// Decode the PReP message a request envelope carries, whichever form its body is in.
pub fn decode_request(request: &Envelope) -> WireResult<PrepMessage> {
    match request.body.name.as_str() {
        RECORD_ELEMENT => record_from_element(&request.body)
            .map(PrepMessage::Record)
            .map_err(|e| WireError::Payload(format!("packed record: {e}"))),
        QUERY_ELEMENT => serde_json::from_str(&request.body.text_content())
            .map_err(|e| WireError::Payload(format!("stored-form query: {e}"))),
        _ => request.json_payload(),
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

/// Build the response carrying the stored documents `page` that answer the query or page
/// request `request`, in the form the request arrived in: a stored-form request (the router's)
/// gets the sort-keyed page carrier, a JSON client exactly the text the typed answer serializes
/// to — a `QueryResponse` for `query`, a `QueryPage` with its `next` cursor for `query-page`.
pub fn documents_envelope(
    request: &Envelope,
    page: &ShardQueryPage,
) -> Result<Envelope, CorruptDocument> {
    let action = request.action().unwrap_or("query");
    let response = Envelope::response(action);
    if request.body.name == QUERY_ELEMENT {
        return Ok(response.with_body(page_to_element(page)));
    }
    let text = if action == "query-page" {
        page_json(&page.items, page.next().as_ref())?
    } else {
        assertions_json(&page.items)?
    };
    Ok(response.with_json_text(text))
}

/// Pack a record submission into its wire body element.
pub fn record_to_element(message: &RecordMessage) -> XmlElement {
    packed(RECORD_ELEMENT, |out| {
        out.reserve(64 + message.assertions.len() * 256);
        put_str(out, message.message_id.as_str());
        put_str(out, message.asserter.as_str());
        put_u32(out, message.assertions.len());
        for recorded in &message.assertions {
            put_str(out, recorded.session.as_str());
            put_assertion(out, &recorded.assertion);
        }
    })
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
    packed(ACK_ELEMENT, |out| {
        put_str(out, ack.message_id.as_str());
        put_u64(out, ack.accepted as u64);
        put_u32(out, ack.rejected.len());
        for reason in &ack.rejected {
            put_str(out, reason);
        }
    })
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

/// Pack one shard's page of stored documents into the router↔shard page carrier.
fn page_to_element(page: &ShardQueryPage) -> XmlElement {
    packed(PAGE_ELEMENT, |out| {
        let bytes: usize = page.items.iter().map(|(s, d)| 8 + s.len() + d.len()).sum();
        out.reserve(bytes + 8);
        out.push(u8::from(page.exhausted));
        put_u32(out, page.items.len());
        for (sort, document) in &page.items {
            put_str(out, sort);
            put_bytes(out, document);
        }
    })
}

/// Unpack a page carrier. The documents themselves are checked when they are transcoded or
/// decoded, not here.
fn page_from_element(element: &XmlElement) -> Result<ShardQueryPage, PackError> {
    let bytes = unpack_payload(element, PAGE_ELEMENT)?;
    let mut r = Reader::new(&bytes)?;
    let exhausted = match r.u8()? {
        0 => false,
        1 => true,
        tag => return Err(PackError::BadTag(tag)),
    };
    let count = r.count()?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let sort = r.str()?;
        items.push((sort, r.bytes()?.to_vec()));
    }
    r.finish()?;
    Ok(ShardQueryPage { items, exhausted })
}

/// The stored documents a shard answered a stored-form query with, or `None` when the answer is
/// not a page carrier (listings, groups and statistics answer as JSON).
pub fn page_from_response(response: &Envelope) -> WireResult<Option<ShardQueryPage>> {
    if response.body.name != PAGE_ELEMENT {
        return Ok(None);
    }
    page_from_element(&response.body)
        .map(Some)
        .map_err(|e| WireError::Payload(format!("packed page: {e}")))
}

/// The stored form of a p-assertion document: the layout version, then the assertion exactly
/// as a packed record submission lays it out (session, then assertion).
pub fn encode_document(recorded: &RecordedAssertion) -> Vec<u8> {
    let mut out = Vec::with_capacity(160 + recorded.assertion.content_len());
    out.push(PACK_VERSION);
    put_str(&mut out, recorded.session.as_str());
    put_assertion(&mut out, &recorded.assertion);
    out
}

/// Decode a stored document written by [`encode_document`].
pub fn decode_document(bytes: &[u8]) -> Result<RecordedAssertion, PackError> {
    let mut r = Reader::new(bytes)?;
    let session = SessionId::new(r.str()?);
    let assertion = take_assertion(&mut r)?;
    r.finish()?;
    Ok(RecordedAssertion { session, assertion })
}

/// The JSON text of the `QueryResponse` answering an assertion-producing query with
/// `documents` (`(sort key, stored document)` pairs, in answer order): `"Empty"` when there are
/// none, else `{"Assertions":[..]}` — byte-for-byte what `serde_json` writes for the decoded
/// answer.
fn assertions_json(documents: &[(String, Vec<u8>)]) -> Result<String, CorruptDocument> {
    if documents.is_empty() {
        return Ok("\"Empty\"".to_string());
    }
    let mut out = String::with_capacity(json_capacity(documents));
    out.push_str("{\"Assertions\":");
    push_documents_json(&mut out, documents)?;
    out.push('}');
    Ok(out)
}

/// The JSON text of the `QueryPage` carrying `documents` and resuming after `next` —
/// byte-for-byte what `serde_json` writes for the decoded page.
fn page_json(
    documents: &[(String, Vec<u8>)],
    next: Option<&PageCursor>,
) -> Result<String, CorruptDocument> {
    let mut out = String::with_capacity(json_capacity(documents) + 64);
    out.push_str("{\"assertions\":");
    push_documents_json(&mut out, documents)?;
    out.push_str(",\"next\":");
    match next {
        Some(cursor) => {
            out.push_str("{\"after\":");
            push_json_str(&mut out, &cursor.after);
            out.push('}');
        }
        None => out.push_str("null"),
    }
    out.push('}');
    Ok(out)
}

/// Room for the JSON text of `documents`: their text runs about 1.7× their packed size.
fn json_capacity(documents: &[(String, Vec<u8>)]) -> usize {
    32 + documents.iter().map(|(_, d)| d.len() * 2).sum::<usize>()
}

fn push_documents_json(
    out: &mut String,
    documents: &[(String, Vec<u8>)],
) -> Result<(), CorruptDocument> {
    out.push('[');
    for (i, (sort, document)) in documents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_document_json(document, out).map_err(|error| CorruptDocument {
            sort_key: sort.clone(),
            error,
        })?;
    }
    out.push(']');
    Ok(())
}

/// Append the compact JSON text of the stored document `bytes` — what `serde_json::to_string`
/// writes for the [`RecordedAssertion`] it encodes: object keys in sorted order, enums
/// externally tagged — checking every tag, count, string and the trailing bytes exactly as
/// [`decode_document`] does. On error `out` holds a partial document and must be discarded.
fn write_document_json(bytes: &[u8], out: &mut String) -> Result<(), PackError> {
    let mut r = Reader::new(bytes)?;
    let session = r.str_ref()?;
    out.push_str("{\"assertion\":");
    match r.u8()? {
        0 => {
            let interaction_key = r.str_ref()?;
            let asserter = r.str_ref()?;
            let view = view_json(r.u8()?)?;
            let sender = r.str_ref()?;
            let receiver = r.str_ref()?;
            let operation = r.str_ref()?;
            let content = take_content_ref(&mut r)?;
            out.push_str("{\"Interaction\":{\"asserter\":");
            push_json_str(out, asserter);
            out.push_str(",\"content\":");
            push_content_json(out, content)?;
            out.push_str(",\"data_ids\":[");
            for i in 0..r.count()? {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(out, r.str_ref()?);
            }
            out.push_str("],\"interaction_key\":");
            push_json_str(out, interaction_key);
            out.push_str(",\"operation\":");
            push_json_str(out, operation);
            out.push_str(",\"receiver\":");
            push_json_str(out, receiver);
            out.push_str(",\"sender\":");
            push_json_str(out, sender);
            out.push_str(",\"view\":");
            out.push_str(view);
        }
        1 => {
            let interaction_key = r.str_ref()?;
            let asserter = r.str_ref()?;
            let view = view_json(r.u8()?)?;
            enum Kind<'a> {
                Unit(&'static str),
                Other(&'a str),
            }
            let kind = match r.u8()? {
                0 => Kind::Unit("\"Script\""),
                1 => Kind::Unit("\"Workflow\""),
                2 => Kind::Unit("\"ResourceUsage\""),
                3 => Kind::Unit("\"Configuration\""),
                4 => Kind::Other(r.str_ref()?),
                tag => return Err(PackError::BadTag(tag)),
            };
            let content = take_content_ref(&mut r)?;
            out.push_str("{\"ActorState\":{\"asserter\":");
            push_json_str(out, asserter);
            out.push_str(",\"content\":");
            push_content_json(out, content)?;
            out.push_str(",\"interaction_key\":");
            push_json_str(out, interaction_key);
            out.push_str(",\"kind\":");
            match kind {
                Kind::Unit(json) => out.push_str(json),
                Kind::Other(name) => {
                    out.push_str("{\"Other\":");
                    push_json_str(out, name);
                    out.push('}');
                }
            }
            out.push_str(",\"view\":");
            out.push_str(view);
        }
        2 => {
            let interaction_key = r.str_ref()?;
            let asserter = r.str_ref()?;
            let effect = r.str_ref()?;
            out.push_str("{\"Relationship\":{\"asserter\":");
            push_json_str(out, asserter);
            out.push_str(",\"causes\":[");
            for i in 0..r.count()? {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                push_json_str(out, r.str_ref()?);
                out.push(',');
                push_json_str(out, r.str_ref()?);
                out.push(']');
            }
            out.push_str("],\"effect\":");
            push_json_str(out, effect);
            out.push_str(",\"interaction_key\":");
            push_json_str(out, interaction_key);
            out.push_str(",\"relation\":");
            push_json_str(out, r.str_ref()?);
        }
        tag => return Err(PackError::BadTag(tag)),
    }
    out.push_str("}},\"session\":");
    push_json_str(out, session);
    out.push('}');
    r.finish()
}

fn view_json(tag: u8) -> Result<&'static str, PackError> {
    match tag {
        0 => Ok("\"Sender\""),
        1 => Ok("\"Receiver\""),
        tag => Err(PackError::BadTag(tag)),
    }
}

fn push_content_json(out: &mut String, content: ContentRef<'_>) -> Result<(), PackError> {
    match content {
        ContentRef::Text(text) => {
            out.push_str("{\"Text\":");
            push_json_str(out, text);
        }
        // Re-serialized rather than spliced: the stored text is validated as a decode would,
        // and the answer carries the canonical form of the value whatever spacing it has.
        ContentRef::Structured(json) => {
            let value: serde_json::Value =
                serde_json::from_str(json).map_err(|e| PackError::BadJson(e.to_string()))?;
            out.push_str("{\"Structured\":");
            out.push_str(
                &serde_json::to_string(&value).expect("a JSON value tree always serializes"),
            );
        }
    }
    out.push('}');
    Ok(())
}

/// Append `s` as a JSON string literal, escaped exactly as `serde_json` escapes it: quote,
/// backslash and control characters only (`\n`, `\r`, `\t`, `\b`, `\f` by name, the rest as
/// lowercase `\u00XX`); every other character verbatim.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            other => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(other >> 4)] as char);
                out.push(HEX[usize::from(other & 0xf)] as char);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// The packed bytes of carrier element `expected`: its byte run as it is, or — from a textual
/// frame, which spells the run out — its base64 text decoded.
fn unpack_payload<'a>(
    element: &'a XmlElement,
    expected: &'static str,
) -> Result<Cow<'a, [u8]>, PackError> {
    if element.name != expected {
        return Err(PackError::WrongElement {
            expected,
            got: element.name.clone(),
        });
    }
    match element.byte_run() {
        Some(bytes) => Ok(Cow::Borrowed(bytes)),
        None => base64::decode(&element.text_content())
            .map(Cow::Owned)
            .map_err(|_| PackError::BadBase64),
    }
}

/// A packed body element: the layout version, then whatever `fill` writes, as a byte run.
fn packed(name: &str, fill: impl FnOnce(&mut Vec<u8>)) -> XmlElement {
    let mut out = vec![PACK_VERSION];
    fill(&mut out);
    XmlElement::new(name).bytes(out)
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

/// Content as it sits in the packed bytes: text, or the JSON text of a structured value.
enum ContentRef<'a> {
    Text(&'a str),
    Structured(&'a str),
}

fn take_content_ref<'a>(r: &mut Reader<'a>) -> Result<ContentRef<'a>, PackError> {
    match r.u8()? {
        0 => Ok(ContentRef::Text(r.str_ref()?)),
        1 => Ok(ContentRef::Structured(r.str_ref()?)),
        tag => Err(PackError::BadTag(tag)),
    }
}

fn take_content(r: &mut Reader<'_>) -> Result<PAssertionContent, PackError> {
    match take_content_ref(r)? {
        ContentRef::Text(text) => Ok(PAssertionContent::Text(text.to_owned())),
        ContentRef::Structured(json) => serde_json::from_str(json)
            .map(PAssertionContent::Structured)
            .map_err(|e| PackError::BadJson(e.to_string())),
    }
}

fn put_u32(out: &mut Vec<u8>, value: usize) {
    let value = u32::try_from(value).expect("field length exceeds the packed layout's u32 range");
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
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

    fn bytes(&mut self) -> Result<&'a [u8], PackError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn str_ref(&mut self) -> Result<&'a str, PackError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| PackError::BadUtf8)
    }

    fn str(&mut self) -> Result<String, PackError> {
        self.str_ref().map(str::to_owned)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MessageId;
    use crate::prep::{PagedQuery, QueryPage, QueryRequest, QueryResponse};
    use proptest::prelude::*;
    use serde_json::{Number, Value};

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

        // Queries ask for stored-form answers, whatever they request; a plain JSON query
        // decodes the same way, and a group registration still travels as JSON.
        for query in [
            PrepMessage::Query(QueryRequest::Statistics),
            PrepMessage::Query(QueryRequest::ByActor(ActorId::new("gzip"))),
            PrepMessage::QueryPage(PagedQuery {
                request: QueryRequest::BySession(SessionId::new("session:p:0")),
                cursor: Some(PageCursor {
                    after: "i:2/000000000007".into(),
                }),
                page_size: 64,
            }),
        ] {
            let packed = request_envelope("provenance-store", query.action(), &query).unwrap();
            assert_eq!(packed.body.name, QUERY_ELEMENT);
            assert_eq!(decode_request(&packed).unwrap(), query);
            let json = Envelope::request("provenance-store", query.action())
                .with_json_payload(&query)
                .unwrap();
            assert_eq!(decode_request(&json).unwrap(), query);
        }
        let group = PrepMessage::RegisterGroup(crate::group::Group::new(
            "session:p:0",
            crate::group::GroupKind::Session,
        ));
        let request = request_envelope("provenance-store", group.action(), &group).unwrap();
        assert_eq!(request.json_payload::<PrepMessage>().unwrap(), group);

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

        // Textual XML frames: the byte run arrives as its base64 text.
        let text = envelope.to_wire();
        let textual = pasoa_wire::Envelope::from_wire(&text).unwrap();
        assert!(textual.body.byte_run().is_none());
        assert_eq!(record_from_element(&textual.body).unwrap(), message);

        // Binary envelope frames.
        let mut bytes = Vec::new();
        pasoa_wire::codec::encode_envelope(&envelope, &mut bytes);
        let (binary, consumed) = pasoa_wire::codec::decode_envelope(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(binary, envelope, "the byte run crosses as it is");
        assert_eq!(record_from_element(&binary.body).unwrap(), message);
    }

    /// The two carriers of one packed payload: the byte run binary frames and in-process
    /// envelopes deliver, and the base64 text a textual frame delivers.
    fn carriers(name: &str, payload: &[u8]) -> [XmlElement; 2] {
        [
            XmlElement::new(name).bytes(payload.to_vec()),
            XmlElement::new(name).text(base64::encode(payload)),
        ]
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
        // A payload cut at any offset fails structurally in either carrier, never panics.
        let element = record_to_element(&full_record());
        let full = element.byte_run().expect("a packed body is a byte run");
        for cut in 0..full.len() {
            for clipped in carriers(RECORD_ELEMENT, &full[..cut]) {
                assert!(record_from_element(&clipped).is_err(), "cut at {cut}");
            }
        }
        // Base64 text cut off its quad boundary is malformed text, not a short payload.
        let text = base64::encode(full);
        for cut in (1..text.len()).filter(|cut| cut % 4 != 0) {
            let clipped = XmlElement::new(RECORD_ELEMENT).text(&text[..cut]);
            assert_eq!(
                record_from_element(&clipped),
                Err(PackError::BadBase64),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_counts_fail_before_allocation() {
        // version + short strings + a count claiming u32::MAX assertions.
        let mut payload = vec![PACK_VERSION];
        put_str(&mut payload, "message:h");
        put_str(&mut payload, "attacker");
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        for element in carriers(RECORD_ELEMENT, &payload) {
            assert!(matches!(
                record_from_element(&element),
                Err(PackError::CountOverflow {
                    count: u32::MAX,
                    ..
                })
            ));
        }
    }

    #[test]
    fn version_drift_is_rejected() {
        let mut payload = vec![PACK_VERSION + 1];
        put_str(&mut payload, "message:v");
        for element in carriers(ACK_ELEMENT, &payload) {
            assert_eq!(
                ack_from_element(&element),
                Err(PackError::BadVersion(PACK_VERSION + 1))
            );
        }
    }

    /// A textual frame's carrier holds base64 text: it unpacks to the bytes a byte run would
    /// have held, at every length, and malformed text is `BadBase64`.
    #[test]
    fn base64_roundtrips_all_lengths_and_rejects_malformed_text() {
        for len in 0..48usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            for element in carriers(ACK_ELEMENT, &bytes) {
                let unpacked = unpack_payload(&element, ACK_ELEMENT).unwrap();
                assert_eq!(unpacked.as_ref(), bytes.as_slice(), "len {len}");
            }
        }
        for (bad, why) in [
            ("abc", "length not a multiple of 4"),
            ("ab=c", "padding inside a quad"),
            ("ab==cdef", "padding before the end"),
            ("a===", "over-padded quad"),
            ("ab\u{e9}=", "non-alphabet byte"),
        ] {
            let element = XmlElement::new(ACK_ELEMENT).text(bad);
            assert_eq!(
                unpack_payload(&element, ACK_ELEMENT),
                Err(PackError::BadBase64),
                "{why}"
            );
        }
    }

    fn documents(assertions: &[RecordedAssertion]) -> Vec<(String, Vec<u8>)> {
        assertions
            .iter()
            .enumerate()
            .map(|(i, recorded)| (format!("interaction/{i:012}"), encode_document(recorded)))
            .collect()
    }

    fn transcode(document: &[u8]) -> Result<String, PackError> {
        let mut out = String::new();
        write_document_json(document, &mut out).map(|()| out)
    }

    #[test]
    fn stored_documents_roundtrip_and_transcode_to_serde_text() {
        for recorded in full_record().assertions {
            let stored = encode_document(&recorded);
            assert_eq!(decode_document(&stored).unwrap(), recorded);
            assert_eq!(
                transcode(&stored).unwrap(),
                serde_json::to_string(&recorded).unwrap()
            );
            // The stored form is the record hop's layout of one assertion, and smaller than
            // the JSON it replaces.
            assert!(stored.len() < serde_json::to_vec(&recorded).unwrap().len());
        }
    }

    #[test]
    fn spliced_answer_shapes_equal_serde_output() {
        let assertions = full_record().assertions;
        let docs = documents(&assertions);
        assert_eq!(
            assertions_json(&docs).unwrap(),
            serde_json::to_string(&QueryResponse::Assertions(assertions.clone())).unwrap()
        );
        assert_eq!(
            assertions_json(&[]).unwrap(),
            serde_json::to_string(&QueryResponse::Empty).unwrap()
        );
        for (docs, next) in [
            (&docs[..], None),
            (&docs[..2], Some("interaction/\"quoted\"/000000000001")),
            (&docs[..0], None),
        ] {
            let next = next.map(|after| PageCursor {
                after: after.to_string(),
            });
            let page = QueryPage {
                assertions: docs
                    .iter()
                    .map(|(_, d)| decode_document(d).unwrap())
                    .collect(),
                next: next.clone(),
            };
            assert_eq!(
                page_json(docs, next.as_ref()).unwrap(),
                serde_json::to_string(&page).unwrap()
            );
        }
    }

    #[test]
    fn documents_answer_in_the_form_of_the_request() {
        let assertions = full_record().assertions;
        let page = ShardQueryPage {
            items: documents(&assertions),
            exhausted: false,
        };
        let request = QueryRequest::BySession(SessionId::new("session:p:0"));
        let paged = PrepMessage::QueryPage(PagedQuery {
            request: request.clone(),
            cursor: None,
            page_size: 3,
        });
        // The router asks packed and gets the sort-keyed carrier back, bytes untouched.
        let packed = request_envelope("shard-0", "query-page", &paged).unwrap();
        let carried = documents_envelope(&packed, &page).unwrap();
        assert_eq!(carried.action(), Some("query-page-response"));
        assert_eq!(page_from_response(&carried).unwrap(), Some(page.clone()));
        // A JSON client gets the client page, `next` cursor included ...
        let json = Envelope::request("provenance-store", "query-page")
            .with_json_payload(&paged)
            .unwrap();
        let answered: QueryPage = documents_envelope(&json, &page)
            .unwrap()
            .json_payload()
            .unwrap();
        assert_eq!(answered.assertions, assertions);
        assert_eq!(answered.next, page.next());
        // ... or the query answer, and a typed answer is not mistaken for a carrier.
        let query = Envelope::request("provenance-store", "query")
            .with_json_payload(&PrepMessage::Query(request))
            .unwrap();
        let response = documents_envelope(&query, &page).unwrap();
        assert_eq!(page_from_response(&response).unwrap(), None);
        assert_eq!(
            response.json_payload::<QueryResponse>().unwrap(),
            QueryResponse::Assertions(assertions)
        );
    }

    #[test]
    fn garbled_documents_and_page_carriers_are_clean_errors() {
        for recorded in full_record().assertions {
            let stored = encode_document(&recorded);
            // Every truncation, and trailing garbage, fails both readers structurally.
            for cut in 0..stored.len() {
                assert!(decode_document(&stored[..cut]).is_err(), "cut at {cut}");
                assert!(transcode(&stored[..cut]).is_err(), "cut at {cut}");
            }
            let mut long = stored.clone();
            long.push(0);
            assert!(matches!(
                decode_document(&long),
                Err(PackError::Truncated { expected: 0, .. })
            ));
            assert_eq!(
                transcode(&long),
                decode_document(&long).map(|_| String::new())
            );
            // Flipping any single byte never panics, and the transcoder refuses exactly what
            // the decoder refuses.
            for at in 0..stored.len() {
                for flip in [0x01u8, 0x80, 0xff] {
                    let mut garbled = stored.clone();
                    garbled[at] ^= flip;
                    assert_eq!(
                        transcode(&garbled).is_ok(),
                        decode_document(&garbled).is_ok(),
                        "byte {at} ^ {flip:#x}"
                    );
                }
            }
        }
        // A legacy JSON document is not a stored document of this layout.
        let json = serde_json::to_vec(&full_record().assertions[0]).unwrap();
        assert_eq!(decode_document(&json), Err(PackError::BadVersion(b'{')));
        // A corrupt document inside an answer names its sort key.
        let mut docs = documents(&full_record().assertions);
        docs[1].1.truncate(9);
        let error = assertions_json(&docs).unwrap_err();
        assert_eq!(error.sort_key, docs[1].0);
        assert!(error
            .to_string()
            .starts_with("stored document interaction/"));

        // Page carriers: truncated, hostile counts and bad flags are errors, never panics.
        let page = ShardQueryPage {
            items: documents(&full_record().assertions),
            exhausted: true,
        };
        let element = page_to_element(&page);
        let full = element.byte_run().expect("a page carrier is a byte run");
        for cut in 0..full.len() {
            for clipped in carriers(PAGE_ELEMENT, &full[..cut]) {
                assert!(page_from_element(&clipped).is_err(), "cut at {cut}");
            }
        }
        let mut hostile = vec![PACK_VERSION, 1];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        for element in carriers(PAGE_ELEMENT, &hostile) {
            assert!(matches!(
                page_from_element(&element),
                Err(PackError::CountOverflow {
                    count: u32::MAX,
                    ..
                })
            ));
        }
        let mut flagged = full.to_vec();
        flagged[1] = 2;
        for element in carriers(PAGE_ELEMENT, &flagged) {
            assert_eq!(page_from_element(&element), Err(PackError::BadTag(2)));
            let response = Envelope::response("query").with_body(element);
            assert!(matches!(
                page_from_response(&response),
                Err(WireError::Payload(reason)) if reason.starts_with("packed page")
            ));
        }
        let garbled = XmlElement::new(PAGE_ELEMENT).text("not base64!");
        assert_eq!(page_from_element(&garbled), Err(PackError::BadBase64));
    }

    /// Strings over the characters that stress an escaper: ASCII controls, quotes and
    /// backslashes, multi-byte UTF-8 up to four bytes.
    const TEXT: &str = "[\u{0}-\u{7f}\u{e9}\u{fc}\u{4e00}-\u{4e0f}\u{1f980}-\u{1f98f}]{0,12}";

    fn json_value() -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            (0u8..2).prop_map(|b| Value::Bool(b == 1)),
            (0u64..u64::MAX).prop_map(|u| Value::Number(Number::U(u))),
            (0u64..u64::MAX).prop_map(|u| Value::Number(Number::I(-((u >> 1) as i64) - 1))),
            // Any finite float, subnormals and extreme exponents included (JSON has no NaN).
            (0u64..u64::MAX).prop_map(|bits| {
                let f = f64::from_bits(bits);
                Value::Number(Number::F(if f.is_finite() { f } else { bits as f64 }))
            }),
            TEXT.prop_map(Value::String),
        ];
        leaf.prop_recursive(3, 16, 4, |inner| {
            (prop::collection::vec(inner, 0..4), TEXT, 0u8..2).prop_map(|(items, key, object)| {
                match object {
                    0 => Value::Array(items),
                    _ => Value::Object(
                        items
                            .into_iter()
                            .enumerate()
                            .map(|(i, v)| (format!("{key}{i}"), v))
                            .collect(),
                    ),
                }
            })
        })
    }

    fn content() -> impl Strategy<Value = PAssertionContent> {
        prop_oneof![
            TEXT.prop_map(PAssertionContent::Text),
            json_value().prop_map(PAssertionContent::Structured),
        ]
    }

    fn view() -> impl Strategy<Value = ViewKind> {
        prop::sample::select(vec![ViewKind::Sender, ViewKind::Receiver])
    }

    fn recorded() -> impl Strategy<Value = RecordedAssertion> {
        let kind = prop_oneof![
            Just(ActorStateKind::Script),
            Just(ActorStateKind::Workflow),
            Just(ActorStateKind::ResourceUsage),
            Just(ActorStateKind::Configuration),
            TEXT.prop_map(ActorStateKind::Other),
        ];
        let interaction = (
            (TEXT, TEXT, view()),
            (TEXT, TEXT, TEXT),
            (content(), prop::collection::vec(TEXT, 0..4)),
        )
            .prop_map(
                |((key, asserter, view), (sender, receiver, operation), (content, ids))| {
                    PAssertion::Interaction(InteractionPAssertion {
                        interaction_key: InteractionKey::new(key),
                        asserter: ActorId::new(asserter),
                        view,
                        sender: ActorId::new(sender),
                        receiver: ActorId::new(receiver),
                        operation,
                        content,
                        data_ids: ids.into_iter().map(DataId::new).collect(),
                    })
                },
            );
        let actor_state = (TEXT, TEXT, view(), kind, content()).prop_map(
            |(key, asserter, view, kind, content)| {
                PAssertion::ActorState(ActorStatePAssertion {
                    interaction_key: InteractionKey::new(key),
                    asserter: ActorId::new(asserter),
                    view,
                    kind,
                    content,
                })
            },
        );
        let relationship = (
            TEXT,
            TEXT,
            TEXT,
            prop::collection::vec((TEXT, TEXT), 0..4),
            TEXT,
        )
            .prop_map(|(key, asserter, effect, causes, relation)| {
                PAssertion::Relationship(RelationshipPAssertion {
                    interaction_key: InteractionKey::new(key),
                    asserter: ActorId::new(asserter),
                    effect: DataId::new(effect),
                    causes: causes
                        .into_iter()
                        .map(|(k, d)| (InteractionKey::new(k), DataId::new(d)))
                        .collect(),
                    relation,
                })
            });
        (TEXT, prop_oneof![interaction, actor_state, relationship]).prop_map(
            |(session, assertion)| RecordedAssertion {
                session: SessionId::new(session),
                assertion,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        #[test]
        fn stored_form_is_lossless_and_transcodes_to_serde_text(recorded in recorded()) {
            let stored = encode_document(&recorded);
            prop_assert_eq!(decode_document(&stored).unwrap(), recorded.clone());
            prop_assert_eq!(
                transcode(&stored).unwrap(),
                serde_json::to_string(&recorded).unwrap()
            );
        }

        #[test]
        fn transcoded_answers_equal_serde_answers(
            assertions in prop::collection::vec(recorded(), 0..5),
            after in prop::option::of(TEXT),
        ) {
            let docs = documents(&assertions);
            let response = match assertions.is_empty() {
                true => QueryResponse::Empty,
                false => QueryResponse::Assertions(assertions.clone()),
            };
            prop_assert_eq!(
                assertions_json(&docs).unwrap(),
                serde_json::to_string(&response).unwrap()
            );
            let next = after.map(|after| PageCursor { after });
            let page = QueryPage { assertions, next: next.clone() };
            prop_assert_eq!(
                page_json(&docs, next.as_ref()).unwrap(),
                serde_json::to_string(&page).unwrap()
            );
        }
    }
}

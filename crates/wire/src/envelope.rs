//! Message envelopes — the SOAP-envelope stand-in.
//!
//! An [`Envelope`] carries a set of [`Header`]s (message id, sender, destination service and
//! action — the information PReServ's SOAP Message Translator inspects to choose a plug-in)
//! and a body element holding the actual payload. Helper constructors wrap serde-serializable
//! payloads as JSON text inside the body, which is how the higher layers (PReP messages,
//! registry queries) move structured data without caring about the wire format.

use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::error::{WireError, WireResult};
use crate::xml::XmlElement;

/// A single envelope header entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Header name, e.g. `message-id`.
    pub name: String,
    /// Header value.
    pub value: String,
}

/// A routable message: headers plus a body element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Ordered headers.
    pub headers: Vec<Header>,
    /// The payload.
    pub body: XmlElement,
}

/// Well-known header names used across the architecture.
pub mod header_names {
    /// Logical name of the sending actor.
    pub const SENDER: &str = "sender";
    /// Logical name of the destination service.
    pub const SERVICE: &str = "service";
    /// Operation requested of the destination service (the SOAP-action stand-in).
    pub const ACTION: &str = "action";
}

impl Envelope {
    /// Create an envelope addressed to `service` requesting `action`, with an empty body.
    pub fn request(service: &str, action: &str) -> Self {
        Envelope {
            headers: vec![
                Header {
                    name: header_names::SERVICE.into(),
                    value: service.into(),
                },
                Header {
                    name: header_names::ACTION.into(),
                    value: action.into(),
                },
            ],
            body: XmlElement::new("body"),
        }
    }

    /// Create a response envelope with an empty body.
    pub fn response(action: &str) -> Self {
        Envelope {
            headers: vec![Header {
                name: header_names::ACTION.into(),
                value: format!("{action}-response"),
            }],
            body: XmlElement::new("body"),
        }
    }

    /// Builder-style: set or replace a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.set_header(name, value);
        self
    }

    /// Set or replace a header in place.
    pub fn set_header(&mut self, name: &str, value: impl Into<String>) {
        let value = value.into();
        if let Some(h) = self.headers.iter_mut().find(|h| h.name == name) {
            h.value = value;
        } else {
            self.headers.push(Header {
                name: name.into(),
                value,
            });
        }
    }

    /// Look up a header value.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.value.as_str())
    }

    /// The destination service name, if present.
    pub fn service(&self) -> Option<&str> {
        self.header(header_names::SERVICE)
    }

    /// The requested action, if present.
    pub fn action(&self) -> Option<&str> {
        self.header(header_names::ACTION)
    }

    /// Builder-style: attach a trace context. Headers travel in both the textual wire form
    /// and the binary codec, and unknown headers are ignored on receipt, so traced envelopes
    /// interoperate with peers that predate tracing regardless of negotiated wire version.
    pub fn with_trace(mut self, trace: &pasoa_obs::TraceCtx) -> Self {
        self.set_header(pasoa_obs::TRACE_HEADER, trace.header_value());
        self
    }

    /// The trace context riding this envelope, if a well-formed one is present. A garbled
    /// trace header reads as `None` — tracing must never fail the request it annotates.
    pub fn trace_ctx(&self) -> Option<pasoa_obs::TraceCtx> {
        self.header(pasoa_obs::TRACE_HEADER)
            .and_then(pasoa_obs::TraceCtx::parse)
    }

    /// Builder-style: replace the body element.
    pub fn with_body(mut self, body: XmlElement) -> Self {
        self.body = body;
        self
    }

    /// Builder-style: serialize `payload` as JSON text into the body.
    pub fn with_json_payload<T: Serialize>(self, payload: &T) -> WireResult<Self> {
        let json = serde_json::to_string(payload)
            .map_err(|e| WireError::Payload(format!("serialize: {e}")))?;
        Ok(self.with_json_text(json))
    }

    /// Builder-style: put JSON text the caller built itself into the body, readable by
    /// [`Self::json_payload`] exactly as if [`Self::with_json_payload`] had written it.
    pub fn with_json_text(mut self, json: String) -> Self {
        self.body = XmlElement::new("json-payload").text(json);
        self
    }

    /// Deserialize the body's JSON payload, previously written by [`Self::with_json_payload`].
    pub fn json_payload<T: DeserializeOwned>(&self) -> WireResult<T> {
        if self.body.name != "json-payload" {
            return Err(WireError::Payload(format!(
                "body element <{}> does not carry a JSON payload",
                self.body.name
            )));
        }
        let text = self.body.text_content();
        serde_json::from_str(&text).map_err(|e| WireError::Payload(format!("deserialize: {e}")))
    }

    /// Whether this envelope represents a fault response.
    pub fn is_fault(&self) -> bool {
        self.body.name == "fault"
    }

    /// Build a fault response with a human-readable reason.
    pub fn fault(reason: impl Into<String>) -> Self {
        Envelope {
            headers: vec![Header {
                name: header_names::ACTION.into(),
                value: "fault".into(),
            }],
            body: XmlElement::new("fault").text(reason.into()),
        }
    }

    /// The fault reason, if this is a fault envelope.
    pub fn fault_reason(&self) -> Option<String> {
        if self.is_fault() {
            Some(self.body.text_content().into_owned())
        } else {
            None
        }
    }

    /// Serialize the whole envelope (headers + body) to its textual wire form.
    pub fn to_wire(&self) -> String {
        let mut root = XmlElement::new("envelope");
        let mut headers = XmlElement::new("headers");
        for h in &self.headers {
            headers.push_child(
                XmlElement::new("header")
                    .attr("name", &h.name)
                    .text(&h.value),
            );
        }
        root.push_child(headers);
        let mut body_wrapper = XmlElement::new("body-wrapper");
        body_wrapper.push_child(self.body.clone());
        root.push_child(body_wrapper);
        root.to_xml()
    }

    /// Parse an envelope from its textual wire form.
    pub fn from_wire(text: &str) -> WireResult<Self> {
        let root = XmlElement::parse(text)?;
        if root.name != "envelope" {
            return Err(WireError::InvalidEnvelope(format!(
                "root element is <{}>, expected <envelope>",
                root.name
            )));
        }
        let headers_el = root
            .find("headers")
            .ok_or_else(|| WireError::InvalidEnvelope("missing <headers>".into()))?;
        let mut headers = Vec::new();
        for h in headers_el.find_all("header") {
            let name = h
                .attribute("name")
                .ok_or_else(|| WireError::InvalidEnvelope("header without name".into()))?;
            headers.push(Header {
                name: name.to_string(),
                value: h.text_content().into_owned(),
            });
        }
        let body_wrapper = root
            .find("body-wrapper")
            .ok_or_else(|| WireError::InvalidEnvelope("missing <body-wrapper>".into()))?;
        let body = body_wrapper
            .elements()
            .next()
            .cloned()
            .ok_or_else(|| WireError::InvalidEnvelope("empty body".into()))?;
        Ok(Envelope { headers, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Debug, Serialize, Deserialize, PartialEq)]
    struct Payload {
        id: u32,
        name: String,
        values: Vec<f64>,
    }

    #[test]
    fn request_has_service_and_action() {
        let env = Envelope::request("provenance-store", "record");
        assert_eq!(env.service(), Some("provenance-store"));
        assert_eq!(env.action(), Some("record"));
        assert!(!env.is_fault());
    }

    #[test]
    fn set_header_replaces_existing() {
        let mut env = Envelope::request("s", "a");
        env.set_header("message-id", "1");
        env.set_header("message-id", "2");
        assert_eq!(env.header("message-id"), Some("2"));
        assert_eq!(
            env.headers
                .iter()
                .filter(|h| h.name == "message-id")
                .count(),
            1
        );
    }

    #[test]
    fn json_payload_roundtrip() {
        let payload = Payload {
            id: 9,
            name: "shuffle".into(),
            values: vec![1.5, 2.5],
        };
        let env = Envelope::request("store", "record")
            .with_json_payload(&payload)
            .unwrap();
        let back: Payload = env.json_payload().unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn json_payload_on_wrong_body_errors() {
        let env = Envelope::request("store", "record").with_body(XmlElement::new("other"));
        assert!(env.json_payload::<Payload>().is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let payload = Payload {
            id: 1,
            name: "a<b&c".into(),
            values: vec![0.25],
        };
        let env = Envelope::request("registry", "lookup")
            .with_header("message-id", "msg-001")
            .with_header("sender", "validator")
            .with_json_payload(&payload)
            .unwrap();
        let text = env.to_wire();
        let parsed = Envelope::from_wire(&text).unwrap();
        assert_eq!(parsed, env);
        let back: Payload = parsed.json_payload().unwrap();
        assert_eq!(back, payload);
        assert_eq!(env.to_wire().len(), text.len());
    }

    #[test]
    fn fault_envelope() {
        let env = Envelope::fault("store unavailable");
        assert!(env.is_fault());
        assert_eq!(env.fault_reason().unwrap(), "store unavailable");
        assert_eq!(Envelope::request("s", "a").fault_reason(), None);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // On a small stack, as a server worker runs: without the depth cap a v1 frame of
        // nested elements overflows it, which aborts the whole process.
        let wrap = |depth: usize| {
            format!(
                "<envelope><headers/><body-wrapper>{}{}</body-wrapper></envelope>",
                "<a>".repeat(depth),
                "</a>".repeat(depth)
            )
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                assert!(Envelope::from_wire(&wrap(100_000)).is_err());
                let body = Envelope::from_wire(&wrap(100)).unwrap().body;
                assert_eq!(body.name, "a");
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn from_wire_rejects_bad_structure() {
        assert!(Envelope::from_wire("<notenvelope/>").is_err());
        assert!(Envelope::from_wire("<envelope><headers/></envelope>").is_err());
        assert!(Envelope::from_wire(
            "<envelope><headers/><body-wrapper></body-wrapper></envelope>"
        )
        .is_err());
        assert!(Envelope::from_wire("not xml at all").is_err());
    }
}

//! A minimal XML-like element tree, serializer and parser.
//!
//! PReServ ships with "XML schemas for storing data in and retrieving data from the store"; its
//! SOAP Message Translator strips the HTTP and SOAP headers and hands the body to a plug-in.
//! This module provides the equivalent payload representation: a tree of named elements with
//! attributes, child elements, text content and byte runs, plus a compact textual encoding.
//! The encoding is a strict subset of XML (no namespaces, processing instructions, comments or
//! DTDs), which is all the provenance messages need. A byte run has no XML form of its own: it
//! is written as its base64 text, so it parses back as text.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::base64;
use crate::codec::MAX_DEPTH;
use crate::error::{WireError, WireResult};

/// A node in an element tree: a child element, a run of text or a run of bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A nested element.
    Element(XmlElement),
    /// Character data.
    Text(String),
    /// Binary data: carried as it is in process and by the binary codec, written as its
    /// base64 text in the textual form (whose parser reads it back as [`XmlNode::Text`]).
    Bytes(Vec<u8>),
}

/// An element with a name, attributes and ordered children.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlElement {
    /// Element name, e.g. `interactionPAssertion`.
    pub name: String,
    /// Attributes in name order.
    pub attributes: BTreeMap<String, String>,
    /// Ordered children (elements and text runs).
    pub children: Vec<XmlNode>,
}

impl XmlElement {
    /// Create an element with the given name and no content.
    pub fn new(name: impl Into<String>) -> Self {
        XmlElement {
            name: name.into(),
            attributes: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: add an attribute.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.insert(key.into(), value.into());
        self
    }

    /// Builder-style: append a child element.
    pub fn child(mut self, child: XmlElement) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Builder-style: append a text run.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Builder-style: append a byte run.
    pub fn bytes(mut self, bytes: Vec<u8>) -> Self {
        self.children.push(XmlNode::Bytes(bytes));
        self
    }

    /// Append a child element in place.
    pub fn push_child(&mut self, child: XmlElement) {
        self.children.push(XmlNode::Element(child));
    }

    /// Append a text run in place.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(XmlNode::Text(text.into()));
    }

    /// Look up an attribute value.
    pub fn attribute(&self, key: &str) -> Option<&str> {
        self.attributes.get(key).map(|s| s.as_str())
    }

    /// First child element with the given name.
    pub fn find(&self, name: &str) -> Option<&XmlElement> {
        self.children.iter().find_map(|node| match node {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements with the given name, in order.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlElement> + 'a {
        self.children.iter().filter_map(move |node| match node {
            XmlNode::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    /// All child elements regardless of name.
    pub fn elements(&self) -> impl Iterator<Item = &XmlElement> {
        self.children.iter().filter_map(|node| match node {
            XmlNode::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Concatenated text content of this element (direct text children only; byte runs are
    /// not text, see [`Self::byte_run`]), borrowed when there is a single text child — the
    /// shape of every payload body — so reading one never copies it.
    pub fn text_content(&self) -> Cow<'_, str> {
        let mut texts = self.children.iter().filter_map(|node| match node {
            XmlNode::Text(t) => Some(t.as_str()),
            XmlNode::Element(_) | XmlNode::Bytes(_) => None,
        });
        match (texts.next(), texts.next()) {
            (None, _) => Cow::Borrowed(""),
            (Some(only), None) => Cow::Borrowed(only),
            (Some(first), Some(second)) => {
                Cow::Owned(texts.fold(format!("{first}{second}"), |out, t| out + t))
            }
        }
    }

    /// The first byte run among the direct children, if there is one.
    pub fn byte_run(&self) -> Option<&[u8]> {
        self.children.iter().find_map(|node| match node {
            XmlNode::Bytes(b) => Some(b.as_slice()),
            _ => None,
        })
    }

    /// Number of element children.
    pub fn child_count(&self) -> usize {
        self.elements().count()
    }

    /// Serialize to the compact textual form.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            let _ = write!(out, " {}=\"{}\"", k, escape(v));
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for node in &self.children {
            match node {
                XmlNode::Element(e) => e.write_into(out),
                XmlNode::Text(t) => out.push_str(&escape(t)),
                XmlNode::Bytes(b) => base64::encode_into(b, out),
            }
        }
        let _ = write!(out, "</{}>", self.name);
    }

    /// Parse an element from its textual form.
    pub fn parse(input: &str) -> WireResult<Self> {
        let mut parser = Parser {
            input: input.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let element = parser.parse_element(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.input.len() {
            return Err(WireError::Parse {
                position: parser.pos,
                reason: "trailing content after root element".into(),
            });
        }
        Ok(element)
    }

    /// Approximate serialized size in bytes, without allocating the full string.
    pub fn encoded_size(&self) -> usize {
        // Cheap upper-bound estimate: tags + attributes + text.
        fn escaped_len(text: &str) -> usize {
            text.chars()
                .map(|c| match c {
                    '&' => 5,
                    '<' | '>' => 4,
                    '"' | '\'' => 6,
                    _ => c.len_utf8(),
                })
                .sum()
        }
        let mut size = 2 * self.name.len() + 5;
        for (k, v) in &self.attributes {
            size += k.len() + escaped_len(v) + 4;
        }
        for node in &self.children {
            size += match node {
                XmlNode::Element(e) => e.encoded_size(),
                XmlNode::Text(t) => escaped_len(t),
                XmlNode::Bytes(b) => base64::encoded_len(b.len()),
            };
        }
        size
    }
}

/// Escape the five XML special characters.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            other => out.push(other),
        }
    }
    out
}

/// Undo [`escape`].
pub fn unescape(text: &str) -> WireResult<String> {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let semi = rest.find(';').ok_or_else(|| WireError::Parse {
            position: idx,
            reason: "unterminated entity".into(),
        })?;
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            other => {
                return Err(WireError::Parse {
                    position: idx,
                    reason: format!("unknown entity &{other};"),
                })
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, reason: impl Into<String>) -> WireResult<T> {
        Err(WireError::Parse {
            position: self.pos,
            reason: reason.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> WireResult<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", byte as char))
        }
    }

    fn parse_name(&mut self) -> WireResult<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// Parse the element at the cursor, `depth` elements deep; nesting is capped at
    /// [`MAX_DEPTH`] so crafted input is an error rather than a stack overflow.
    fn parse_element(&mut self, depth: usize) -> WireResult<XmlElement> {
        if depth >= MAX_DEPTH {
            return self.err(format!("element nesting exceeds {MAX_DEPTH} levels"));
        }
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut element = XmlElement::new(name);

        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(element);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.expect(b'=')?;
                    self.expect(b'"')?;
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                    self.expect(b'"')?;
                    element.attributes.insert(key, unescape(&raw)?);
                }
                None => return self.err("unexpected end of input in tag"),
            }
        }

        // Children until the matching close tag.
        loop {
            match self.peek() {
                None => return self.err("unexpected end of input in element content"),
                Some(b'<') => {
                    if self.input.get(self.pos + 1) == Some(&b'/') {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        if close != element.name {
                            return self.err(format!(
                                "mismatched close tag: expected </{}>, found </{close}>",
                                element.name
                            ));
                        }
                        self.expect(b'>')?;
                        return Ok(element);
                    }
                    let child = self.parse_element(depth + 1)?;
                    element.children.push(XmlNode::Element(child));
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                    let text = unescape(&raw)?;
                    if !text.is_empty() {
                        element.children.push(XmlNode::Text(text));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let el = XmlElement::new("record")
            .attr("id", "7")
            .child(XmlElement::new("sender").text("encoder"))
            .child(XmlElement::new("receiver").text("store"))
            .child(XmlElement::new("sender").text("duplicate"));
        assert_eq!(el.attribute("id"), Some("7"));
        assert_eq!(el.find("receiver").unwrap().text_content(), "store");
        let split = XmlElement::new("t")
            .text("a")
            .child(XmlElement::new("skip").text("x"))
            .text("b")
            .text("c");
        assert_eq!(split.text_content(), "abc");
        assert_eq!(el.find_all("sender").count(), 2);
        assert_eq!(el.child_count(), 3);
        assert!(el.find("missing").is_none());
    }

    #[test]
    fn serialize_empty_element() {
        assert_eq!(XmlElement::new("empty").to_xml(), "<empty/>");
    }

    #[test]
    fn roundtrip_simple() {
        let el = XmlElement::new("a")
            .attr("x", "1")
            .child(XmlElement::new("b").text("hello world"))
            .text("tail");
        let xml = el.to_xml();
        let parsed = XmlElement::parse(&xml).unwrap();
        assert_eq!(parsed, el);
    }

    #[test]
    fn roundtrip_with_escapes() {
        let el = XmlElement::new("script")
            .attr("cmd", "gzip -9 < \"input\" > 'out'")
            .text("if a < b && b > c then \"quote\"");
        let xml = el.to_xml();
        assert!(xml.contains("&lt;"));
        assert!(xml.contains("&amp;"));
        let parsed = XmlElement::parse(&xml).unwrap();
        assert_eq!(parsed, el);
    }

    #[test]
    fn escape_unescape_inverse() {
        let original = "a<b>c&d\"e'f";
        assert_eq!(unescape(&escape(original)).unwrap(), original);
        assert!(unescape("&bogus;").is_err());
        assert!(unescape("&unterminated").is_err());
    }

    #[test]
    fn parse_rejects_mismatched_tags() {
        assert!(matches!(
            XmlElement::parse("<a></b>"),
            Err(WireError::Parse { .. })
        ));
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(XmlElement::parse("<a/>extra").is_err());
    }

    #[test]
    fn parse_rejects_truncated_input() {
        assert!(XmlElement::parse("<a><b>").is_err());
        assert!(XmlElement::parse("<a attr=\"x").is_err());
    }

    #[test]
    fn whitespace_between_attributes_is_tolerated() {
        let parsed = XmlElement::parse("<a  x=\"1\"   y=\"2\" ><b/></a>").unwrap();
        assert_eq!(parsed.attribute("x"), Some("1"));
        assert_eq!(parsed.attribute("y"), Some("2"));
        assert_eq!(parsed.child_count(), 1);
    }

    #[test]
    fn nested_structure_roundtrip() {
        let mut root = XmlElement::new("provenance");
        for i in 0..10 {
            let mut inter = XmlElement::new("interaction").attr("key", format!("k{i}"));
            inter.push_child(XmlElement::new("sender").text(format!("actor-{i}")));
            inter.push_text(format!("payload-{i}"));
            root.push_child(inter);
        }
        let xml = root.to_xml();
        let parsed = XmlElement::parse(&xml).unwrap();
        assert_eq!(parsed, root);
        assert_eq!(parsed.find_all("interaction").count(), 10);
    }

    #[test]
    fn encoded_size_is_an_upper_bound() {
        let el = XmlElement::new("x")
            .attr("a", "1")
            .child(XmlElement::new("y").text("abc"))
            .text("tail text");
        assert!(el.encoded_size() >= el.to_xml().len());
    }
}

//! Byte identity of the JSON codec, pinned by a golden fixture.
//!
//! A seeded generator builds values of every type that crosses the wire as JSON: p-assertions
//! of every kind (text and structured content with floats, escapes and 4-byte UTF-8), every
//! `QueryResponse`, pages with and without a cursor, every `PrepMessage`, groups, lineage
//! graphs, edge records, feed events and stats snapshots. From each value's canonical text it
//! derives hostile and non-canonical texts: truncations, byte flips, and structural variants
//! (whitespace, reordered, duplicated and unknown keys, dropped `null` fields, integers written
//! as floats, every character escaped). A list of hand-written edge texts covers the scalar
//! corners. Every text is decoded both as its own type and as a `serde_json::Value`.
//!
//! Each line of `tests/fixtures/json_canonical.txt` is
//! `type<TAB>input<TAB>typed verdict<TAB>value verdict`, where a verdict is `err`, `ok=` (the
//! re-encoding equals the input), `ok^` (it equals the canonical text the case was derived
//! from) or `ok:` followed by the re-encoding. Inputs and re-encodings are written with every
//! byte outside printable ASCII, and the backslash, as `\xHH`. Error wording is not pinned.
//!
//! Regenerate the fixture only when the canonical form changes on purpose:
//! `cargo test --release --test json_canonical -- --ignored bless`.

use std::collections::BTreeMap;

use pasoa::feed::{FeedEvent, FeedEventBody};
use pasoa::model::passertion::RecordedAssertion;
use pasoa::model::prep::StoreStatistics;
use pasoa::model::{
    ActorId, ActorStateKind, ActorStatePAssertion, DataId, Group, GroupKind, InteractionKey,
    InteractionPAssertion, MessageId, PAssertion, PAssertionContent, PageCursor, PagedQuery,
    PrepMessage, QueryPage, QueryRequest, QueryResponse, RecordAck, RecordMessage,
    RelationshipPAssertion, SessionId, ViewKind,
};
use pasoa::obs::{HistogramSnapshot, RegistrySnapshot, StatsSnapshot, TraceEvent};
use pasoa::preserv::{EdgeRecord, LineageGraph, LineageNode};
use serde_json::{Map, Number, Value};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/json_canonical.txt"
);

/// Base values generated per wire type.
const VALUES_PER_TYPE: usize = 6;

/// splitmix64: small, seeded, identical on every platform.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Characters that stress an escaper and a sorter: quotes, backslashes, control
    /// characters, `#` (sorts after `"` raw but before it escaped), multi-byte UTF-8 up to
    /// four bytes.
    fn text(&mut self, max: usize) -> String {
        const CHARS: &[char] = &[
            'a',
            'b',
            'z',
            'A',
            '0',
            '9',
            ' ',
            '/',
            ':',
            '-',
            '#',
            '<',
            '&',
            '"',
            '\\',
            '\n',
            '\t',
            '\r',
            '\u{0}',
            '\u{1}',
            '\u{8}',
            '\u{c}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '中',
            '\u{1f980}',
            '\u{1d11e}',
        ];
        let len = self.below(max + 1);
        (0..len).map(|_| self.pick(CHARS)).collect()
    }

    fn u64(&mut self) -> u64 {
        let shift = self.below(64) as u32;
        self.next() >> shift
    }

    fn f64(&mut self) -> f64 {
        const FLOATS: &[f64] = &[
            0.0,
            -0.0,
            0.5,
            1.0,
            5.0,
            -2.25,
            1e-7,
            1.5e300,
            123456789.125,
            f64::MIN_POSITIVE,
            5e-324,
            1e21,
            f64::NAN,
            f64::INFINITY,
        ];
        if self.chance(30) {
            let f = f64::from_bits(self.next());
            if f.is_finite() {
                return f;
            }
        }
        self.pick(FLOATS)
    }

    fn value(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(self.chance(50)),
            2 => Value::Number(Number::U(self.u64())),
            3 => Value::Number(Number::I(-((self.u64() >> 1) as i64) - 1)),
            4 => Value::Number(Number::F(self.f64())),
            5 => Value::String(self.text(6)),
            6 => Value::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => Value::Object(
                (0..self.below(4))
                    .map(|_| (self.text(4), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire values
// ---------------------------------------------------------------------------

fn view(rng: &mut Rng) -> ViewKind {
    rng.pick(&[ViewKind::Sender, ViewKind::Receiver])
}

fn content(rng: &mut Rng) -> PAssertionContent {
    match rng.chance(50) {
        true => PAssertionContent::Text(rng.text(10)),
        false => PAssertionContent::Structured(rng.value(2)),
    }
}

fn data_ids(rng: &mut Rng) -> Vec<DataId> {
    (0..rng.below(3))
        .map(|_| DataId::new(rng.text(5)))
        .collect()
}

fn assertion(rng: &mut Rng, kind: usize) -> PAssertion {
    let interaction_key = InteractionKey::new(rng.text(6));
    let asserter = ActorId::new(rng.text(5));
    match kind % 3 {
        0 => PAssertion::Interaction(InteractionPAssertion {
            interaction_key,
            asserter,
            view: view(rng),
            sender: ActorId::new(rng.text(5)),
            receiver: ActorId::new(rng.text(5)),
            operation: rng.text(6),
            content: content(rng),
            data_ids: data_ids(rng),
        }),
        1 => PAssertion::ActorState(ActorStatePAssertion {
            interaction_key,
            asserter,
            view: view(rng),
            kind: match rng.below(5) {
                0 => ActorStateKind::Script,
                1 => ActorStateKind::Workflow,
                2 => ActorStateKind::ResourceUsage,
                3 => ActorStateKind::Configuration,
                _ => ActorStateKind::Other(rng.text(5)),
            },
            content: content(rng),
        }),
        _ => PAssertion::Relationship(RelationshipPAssertion {
            interaction_key,
            asserter,
            effect: DataId::new(rng.text(5)),
            causes: (0..rng.below(3))
                .map(|_| (InteractionKey::new(rng.text(4)), DataId::new(rng.text(4))))
                .collect(),
            relation: rng.text(6),
        }),
    }
}

fn recorded(rng: &mut Rng, kind: usize) -> RecordedAssertion {
    RecordedAssertion {
        session: SessionId::new(rng.text(6)),
        assertion: assertion(rng, kind),
    }
}

fn recorded_list(rng: &mut Rng) -> Vec<RecordedAssertion> {
    (0..rng.below(3))
        .map(|_| {
            let kind = rng.below(3);
            recorded(rng, kind)
        })
        .collect()
}

fn group(rng: &mut Rng) -> Group {
    Group {
        id: rng.text(6),
        kind: match rng.below(3) {
            0 => GroupKind::Session,
            1 => GroupKind::Thread,
            _ => GroupKind::Custom(rng.text(5)),
        },
        members: (0..rng.below(3))
            .map(|_| InteractionKey::new(rng.text(5)))
            .collect(),
    }
}

fn request(rng: &mut Rng, kind: usize) -> QueryRequest {
    match kind % 8 {
        0 => QueryRequest::ByInteraction(InteractionKey::new(rng.text(6))),
        1 => QueryRequest::BySession(SessionId::new(rng.text(6))),
        2 => QueryRequest::ByActor(ActorId::new(rng.text(6))),
        3 => QueryRequest::ByRelation(rng.text(6)),
        4 => QueryRequest::ListInteractions {
            limit: rng.chance(50).then(|| rng.u64() as usize),
        },
        5 => QueryRequest::GroupsByKind(rng.text(6)),
        6 => QueryRequest::ActorStateByKind {
            interaction: InteractionKey::new(rng.text(6)),
            kind: rng.text(5),
        },
        _ => QueryRequest::Statistics,
    }
}

fn cursor(rng: &mut Rng) -> Option<PageCursor> {
    rng.chance(50).then(|| PageCursor { after: rng.text(8) })
}

fn prep_message(rng: &mut Rng, kind: usize) -> PrepMessage {
    match kind % 4 {
        0 => PrepMessage::Record(RecordMessage {
            message_id: MessageId::new(rng.text(6)),
            asserter: ActorId::new(rng.text(5)),
            assertions: recorded_list(rng),
        }),
        1 => PrepMessage::RegisterGroup(group(rng)),
        2 => {
            let kind = rng.below(8);
            PrepMessage::Query(request(rng, kind))
        }
        _ => {
            let kind = rng.below(8);
            PrepMessage::QueryPage(PagedQuery {
                request: request(rng, kind),
                cursor: cursor(rng),
                page_size: rng.below(20_000),
            })
        }
    }
}

fn response(rng: &mut Rng, kind: usize) -> QueryResponse {
    match kind % 5 {
        0 => QueryResponse::Assertions(recorded_list(rng)),
        1 => QueryResponse::Interactions(
            (0..rng.below(3))
                .map(|_| InteractionKey::new(rng.text(5)))
                .collect(),
        ),
        2 => QueryResponse::Groups((0..rng.below(3)).map(|_| group(rng)).collect()),
        3 => QueryResponse::Statistics(StoreStatistics {
            interaction_passertions: rng.u64(),
            actor_state_passertions: rng.u64(),
            relationship_passertions: rng.u64(),
            interactions: rng.u64(),
            groups: rng.u64(),
            content_bytes: rng.u64(),
        }),
        _ => QueryResponse::Empty,
    }
}

fn lineage(rng: &mut Rng) -> LineageGraph {
    LineageGraph {
        nodes: (0..rng.below(4))
            .map(|_| {
                let data = rng.text(5);
                let node = LineageNode {
                    data: DataId::new(data.clone()),
                    derived_from: data_ids(rng),
                    relations: (0..rng.below(3)).map(|_| rng.text(4)).collect(),
                };
                (data, node)
            })
            .collect(),
    }
}

fn stats(rng: &mut Rng) -> StatsSnapshot {
    let histogram = |rng: &mut Rng| HistogramSnapshot {
        counts: (0..rng.below(3))
            .map(|_| (rng.u64() as u32, rng.u64()))
            .collect(),
        count: rng.u64(),
        sum: rng.u64(),
        min: rng.u64(),
        max: rng.u64(),
    };
    StatsSnapshot {
        service: rng.text(6),
        registry: RegistrySnapshot {
            counters: (0..rng.below(3))
                .map(|_| (rng.text(5), rng.u64()))
                .collect(),
            gauges: (0..rng.below(3))
                .map(|_| (rng.text(5), rng.u64() as i64))
                .collect(),
            histograms: (0..rng.below(3))
                .map(|_| (rng.text(5), histogram(rng)))
                .collect::<BTreeMap<_, _>>(),
            events: (0..rng.below(3))
                .map(|_| TraceEvent {
                    trace_id: rng.text(6),
                    span_id: rng.u64(),
                    stage: rng.text(5),
                    detail: rng.text(8),
                    nanos: rng.u64(),
                    seq: rng.u64(),
                })
                .collect(),
        },
    }
}

// ---------------------------------------------------------------------------
// Texts derived from a canonical encoding
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Variant {
    /// Whitespace around every token.
    Spaced,
    /// Object keys in reverse order.
    Reversed,
    /// One key per object repeated with a decoy value, usually before the real one.
    Duplicated,
    /// An extra key per object.
    Unknown,
    /// Entries whose value is `null` left out.
    NullsDropped,
    /// Integers written as integral floats.
    FloatInts,
    /// Every string character written as a `\u` escape.
    Escaped,
}

const VARIANTS: [Variant; 7] = [
    Variant::Spaced,
    Variant::Reversed,
    Variant::Duplicated,
    Variant::Unknown,
    Variant::NullsDropped,
    Variant::FloatInts,
    Variant::Escaped,
];

fn write_string(s: &str, variant: Variant, out: &mut String) {
    match variant {
        Variant::Escaped => {
            out.push('"');
            let mut units = [0u16; 2];
            for c in s.chars() {
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
            out.push('"');
        }
        _ => out.push_str(&serde_json::to_string(s).unwrap()),
    }
}

fn space(rng: &mut Rng, variant: Variant, out: &mut String) {
    if let Variant::Spaced = variant {
        out.push_str(rng.pick(&["", " ", "\n", "\t", "\r\n  "]));
    }
}

fn write_variant(value: &Value, variant: Variant, rng: &mut Rng, out: &mut String) {
    space(rng, variant, out);
    match value {
        Value::Number(Number::U(u)) if matches!(variant, Variant::FloatInts) => {
            out.push_str(&format!("{u}{}", rng.pick(&[".0", "e0", ".000", "E+0"])));
        }
        Value::Number(Number::I(i)) if matches!(variant, Variant::FloatInts) => {
            out.push_str(&format!("{i}.0"));
        }
        Value::String(s) => write_string(s, variant, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    space(rng, variant, out);
                    out.push(',');
                }
                write_variant(item, variant, rng, out);
                space(rng, variant, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            let mut entries: Vec<(&str, Option<&Value>)> =
                map.iter().map(|(k, v)| (k.as_str(), Some(v))).collect();
            match variant {
                Variant::Reversed => entries.reverse(),
                Variant::NullsDropped => entries.retain(|(_, v)| !v.is_some_and(Value::is_null)),
                Variant::Duplicated if !entries.is_empty() => {
                    let at = rng.below(entries.len());
                    let decoy = (entries[at].0, None);
                    match rng.chance(75) {
                        true => entries.insert(at, decoy),
                        false => entries.insert(at + 1, decoy),
                    }
                }
                Variant::Unknown => {
                    let at = rng.below(entries.len() + 1);
                    entries.insert(at, ("unknown_field", None));
                }
                _ => {}
            }
            out.push('{');
            for (i, (key, item)) in entries.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                space(rng, variant, out);
                write_string(key, variant, out);
                space(rng, variant, out);
                out.push(':');
                match item {
                    Some(item) => write_variant(item, variant, rng, out),
                    None => out.push_str(rng.pick(&[
                        "\"decoy\"",
                        "[1,{\"x\":null}]",
                        "-3",
                        "true",
                        "null",
                        "{\"Text\":\"t\"}",
                        "2.5",
                    ])),
                }
                space(rng, variant, out);
            }
            out.push('}');
        }
        other => out.push_str(&serde_json::to_string(other).unwrap()),
    }
    space(rng, variant, out);
}

/// Bytes worth flipping to: structure, number and literal characters, and arbitrary ones.
fn flip_byte(rng: &mut Rng) -> u8 {
    match rng.chance(50) {
        true => rng.pick(b"{}[]\":,\\0123456789-+.eEnultrfa \t\n\xc3\xff"),
        false => rng.next() as u8,
    }
}

fn escape(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len());
    for &b in bytes {
        match b {
            b'\\' => out.push_str("\\\\"),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\x{b:02x}")),
        }
    }
    out
}

fn verdict(input: &[u8], base: &str, result: Option<String>) -> String {
    match result {
        None => "err".to_string(),
        Some(text) if text.as_bytes() == input => "ok=".to_string(),
        Some(text) if text == base => "ok^".to_string(),
        Some(text) => format!("ok:{}", escape(text.as_bytes())),
    }
}

/// Decoder under test for one type: bytes to its canonical re-encoding, `None` on error.
type Codec = fn(&[u8]) -> Option<String>;

macro_rules! codec {
    ($ty:ty) => {
        (|bytes: &[u8]| {
            serde_json::from_slice::<$ty>(bytes)
                .ok()
                .map(|v| serde_json::to_string(&v).unwrap())
        }) as Codec
    };
}

fn line(name: &str, codec: Codec, input: &[u8], base: &str) -> String {
    format!(
        "{name}\t{}\t{}\t{}",
        escape(input),
        verdict(input, base, codec(input)),
        verdict(input, base, codec!(Value)(input)),
    )
}

/// Every case derived from one value's canonical text.
fn cases(name: &str, codec: Codec, canonical: String, rng: &mut Rng, lines: &mut Vec<String>) {
    let bytes = canonical.as_bytes();
    let mut inputs = vec![bytes.to_vec()];
    for _ in 0..3 {
        inputs.push(bytes[..rng.below(bytes.len())].to_vec());
    }
    for _ in 0..3 {
        let mut flipped = bytes.to_vec();
        let at = rng.below(flipped.len());
        flipped[at] = flip_byte(rng);
        inputs.push(flipped);
    }
    let tree: Value = serde_json::from_str(&canonical).unwrap();
    for variant in VARIANTS {
        let mut text = String::new();
        write_variant(&tree, variant, rng, &mut text);
        inputs.push(text.into_bytes());
    }
    for input in inputs {
        lines.push(line(name, codec, &input, &canonical));
    }
}

macro_rules! wire_type {
    ($rng:ident, $lines:ident, $ty:ty, |$i:ident| $make:expr) => {
        for $i in 0..VALUES_PER_TYPE {
            let value: $ty = $make;
            let canonical = serde_json::to_string(&value).unwrap();
            cases(stringify!($ty), codec!($ty), canonical, $rng, $lines);
        }
    };
}

/// Hand-written texts for the scalar corners, decoded as several primitive types.
const EDGE_TEXTS: &[&str] = &[
    "",
    " ",
    "nul",
    "nullx",
    "true",
    " false ",
    "0",
    "-0",
    "01",
    "-",
    "1.",
    "1e",
    "1e+",
    "1.5e3",
    "7.0",
    "7.5",
    "-7.0",
    "1e999",
    "-1e999",
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709551615.0",
    "-9223372036854775808",
    "-9223372036854775809",
    "340282366920938463463374607431768211455",
    "\"340282366920938463463374607431768211455\"",
    "\"18446744073709551616\"",
    "\"x\"",
    "\"xy\"",
    "\"\\ud83e\\udd80\"",
    "\"\\ud800\"",
    "\"\\udc00\"",
    "\"\\ud800\\u0041\"",
    "\"\\u00zz\"",
    "\"\\q\"",
    "\"\\/\\b\\f\\n\\r\\t\\\"\\\\\"",
    "\"raw\ttab\"",
    "\"unterminated",
    "[]",
    "[ ]",
    "[1,]",
    "[1 2]",
    "[1,2,3]",
    "[]x",
    "{}",
    "{\"a\":1,}",
    "{\"a\" 1}",
    "{\"a\":1,\"a\":2}",
    "{1:2}",
    "{\"1\":2,\"01\":3}",
    "null",
];

fn edge_cases(lines: &mut Vec<String>) {
    let codecs: [(&str, Codec); 12] = [
        ("u8", codec!(u8)),
        ("u64", codec!(u64)),
        ("i64", codec!(i64)),
        ("u128", codec!(u128)),
        ("f64", codec!(f64)),
        ("bool", codec!(bool)),
        ("char", codec!(char)),
        ("String", codec!(String)),
        ("Option<u64>", codec!(Option<u64>)),
        ("Vec<u64>", codec!(Vec<u64>)),
        ("(u64, u64)", codec!((u64, u64))),
        ("BTreeMap<u64, u64>", codec!(BTreeMap<u64, u64>)),
    ];
    for text in EDGE_TEXTS {
        for (name, codec) in codecs {
            lines.push(line(name, codec, text.as_bytes(), text));
        }
    }
    // Nesting well inside the depth cap.
    let deep = format!("{}{}", "[".repeat(100), "]".repeat(100));
    lines.push(line("Vec<u64>", codec!(Vec<u64>), deep.as_bytes(), &deep));
}

fn generate() -> Vec<String> {
    let mut rng = Rng(0x005e_ed0f_c0de_2005);
    let (rng, lines) = (&mut rng, &mut Vec::new());
    edge_cases(lines);
    wire_type!(rng, lines, RecordedAssertion, |i| recorded(rng, i));
    wire_type!(rng, lines, QueryResponse, |i| response(rng, i));
    wire_type!(rng, lines, QueryPage, |_i| QueryPage {
        assertions: recorded_list(rng),
        next: cursor(rng),
    });
    wire_type!(rng, lines, PrepMessage, |i| prep_message(rng, i));
    wire_type!(rng, lines, RecordAck, |_i| RecordAck {
        message_id: MessageId::new(rng.text(6)),
        accepted: rng.u64() as usize,
        rejected: (0..rng.below(3)).map(|_| rng.text(6)).collect(),
    });
    wire_type!(rng, lines, Group, |_i| group(rng));
    wire_type!(rng, lines, LineageGraph, |_i| lineage(rng));
    wire_type!(rng, lines, EdgeRecord, |_i| EdgeRecord {
        effect: DataId::new(rng.text(5)),
        causes: data_ids(rng),
        relation: rng.text(6),
    });
    wire_type!(rng, lines, FeedEvent, |i| FeedEvent {
        body: match i % 2 {
            0 => FeedEventBody::Change(recorded(rng, i / 2)),
            _ => FeedEventBody::Overflow { dropped: rng.u64() },
        },
        event_id: rng.text(8),
        enqueued_nanos: rng.u64(),
    });
    wire_type!(rng, lines, StatsSnapshot, |_i| stats(rng));
    wire_type!(rng, lines, Value, |_i| {
        let mut object = Map::new();
        object.insert(rng.text(3), rng.value(3));
        object.insert(rng.text(3), rng.value(3));
        Value::Object(object)
    });
    std::mem::take(lines)
}

#[test]
fn fixture_holds() {
    let fixture = std::fs::read_to_string(FIXTURE)
        .expect("tests/fixtures/json_canonical.txt is present (see the module docs)");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = generate();
    for (i, (actual, expected)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(actual, expected, "fixture case {} differs", i + 1);
    }
    assert_eq!(actual.len(), expected.len(), "fixture case count");
}

#[test]
#[ignore = "writes the fixture; run only when the canonical form changes on purpose"]
fn bless() {
    let mut text = String::from("# type\tinput\ttyped verdict\tvalue verdict\n");
    for line in generate() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, text).unwrap();
}

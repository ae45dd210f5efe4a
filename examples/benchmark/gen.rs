//! Seeded inputs. Everything the program under test receives — session ids, payload bytes,
//! the corpus, the query op sequence — is generated here from `--seed` and the round number,
//! so the same seed replays byte-identical inputs and the program sees only generated data.

use pasoa::model::ids::{ActorId, DataId, InteractionKey, MessageId, SessionId};
use pasoa::model::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, RelationshipPAssertion, ViewKind,
};
use pasoa::model::prep::RecordMessage;

/// SplitMix64: a small, well-mixed generator with no dependency outside `std`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for one named stream of one round: streams never share state, so adding
    /// a stream to a workload leaves every other stream's bytes unchanged.
    pub fn stream(seed: u64, round: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.0 ^= rng
            .next()
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` ≥ 1); the modulo bias is below 2^-40 for the bounds used.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// `len` bytes of `[a-z0-9]`: no character the XML or JSON codecs would escape, so encoded
    /// sizes depend on `len` alone.
    pub fn payload(&mut self, len: usize) -> String {
        const ALPHABET: &[u8; 36] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(36) as usize] as char)
            .collect()
    }
}

/// Shape of a record workload's load: `sessions` sessions of `per_session` interaction
/// p-assertions each, shipped `per_message` to a `Record` message with `payload_bytes` of
/// content per assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordShape {
    pub sessions: usize,
    pub per_session: usize,
    pub per_message: usize,
    pub payload_bytes: usize,
}

impl RecordShape {
    pub fn assertions(&self) -> usize {
        self.sessions * self.per_session
    }

    pub fn user_bytes(&self) -> usize {
        self.assertions() * self.payload_bytes
    }
}

/// One session of record traffic. `tag` keeps the sessions of different lanes (warm-up, load,
/// paced writer) disjoint; the 48-bit nonce makes the session id — and so its ring placement —
/// depend on the seed.
pub fn session_messages(
    rng: &mut Rng,
    tag: &str,
    index: usize,
    shape: RecordShape,
) -> Vec<RecordMessage> {
    let nonce = rng.next() & 0xFFFF_FFFF_FFFF;
    let stem = format!("{tag}:{nonce:012x}:{index:04}");
    let session = SessionId::new(format!("session:{stem}"));
    let asserter = ActorId::new(format!("recorder-{}", index % 8));
    let assertions: Vec<RecordedAssertion> = (0..shape.per_session)
        .map(|i| RecordedAssertion {
            session: session.clone(),
            assertion: PAssertion::Interaction(InteractionPAssertion {
                interaction_key: InteractionKey::new(format!("interaction:{stem}:{i:06}")),
                asserter: asserter.clone(),
                view: ViewKind::Sender,
                sender: asserter.clone(),
                receiver: ActorId::new("measure-service"),
                operation: "measure".into(),
                content: PAssertionContent::text(rng.payload(shape.payload_bytes)),
                data_ids: vec![DataId::new(format!("data:{stem}:{i:06}"))],
            }),
        })
        .collect();
    assertions
        .chunks(shape.per_message.max(1))
        .enumerate()
        .map(|(m, chunk)| RecordMessage {
            message_id: MessageId::new(format!("message:{stem}:{m:06}")),
            asserter: asserter.clone(),
            assertions: chunk.to_vec(),
        })
        .collect()
}

/// Every message of a record round, split over `lanes` load-generator threads by session
/// (session `s` goes to lane `s % lanes`), in send order.
pub fn record_lanes(
    seed: u64,
    round: u64,
    tag: &str,
    shape: RecordShape,
    lanes: usize,
) -> Vec<Vec<RecordMessage>> {
    let mut rng = Rng::stream(seed, round, 1);
    let mut out: Vec<Vec<RecordMessage>> = (0..lanes).map(|_| Vec::new()).collect();
    for index in 0..shape.sessions {
        out[index % lanes].extend(session_messages(&mut rng, tag, index, shape));
    }
    out
}

/// The query corpus: `sessions` sessions of `per_session` p-assertions, cycling interaction →
/// actor state → `derived-from` relationship, each relationship extending its session's
/// single derivation chain by one edge (so the deepest data item's closure is the whole chain).
#[derive(Debug, Clone)]
pub struct Corpus {
    pub sessions: Vec<SessionId>,
    stems: Vec<String>,
    pub per_session: usize,
}

impl Corpus {
    pub fn new(seed: u64, round: u64, sessions: usize, per_session: usize) -> Self {
        assert!(per_session >= 3, "a corpus session needs one full cycle");
        let mut rng = Rng::stream(seed, round, 2);
        let stems: Vec<String> = (0..sessions)
            .map(|s| format!("q:{:012x}:{s:04}", rng.next() & 0xFFFF_FFFF_FFFF))
            .collect();
        Corpus {
            sessions: stems
                .iter()
                .map(|stem| SessionId::new(format!("session:{stem}")))
                .collect(),
            stems,
            per_session,
        }
    }

    pub fn total(&self) -> usize {
        self.sessions.len() * self.per_session
    }

    /// Assertion `k` of session `s`.
    pub fn assertion(&self, s: usize, k: usize) -> RecordedAssertion {
        let stem = &self.stems[s];
        let key = |i: usize| InteractionKey::new(format!("interaction:{stem}:{i:06}"));
        let data = |i: usize| DataId::new(format!("data:{stem}:{i:06}"));
        let asserter = ActorId::new(format!("client-{:02}", s % 8));
        let assertion = match k % 3 {
            0 => PAssertion::Interaction(InteractionPAssertion {
                interaction_key: key(k),
                asserter: asserter.clone(),
                view: ViewKind::Sender,
                sender: asserter,
                receiver: ActorId::new("measure-service"),
                operation: "measure".into(),
                content: PAssertionContent::text(format!("payload s{s}k{k}")),
                data_ids: vec![data(k)],
            }),
            1 => PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: key(k - 1),
                asserter,
                view: ViewKind::Receiver,
                kind: ActorStateKind::Script,
                content: PAssertionContent::text(format!("script s{s}k{k}")),
            }),
            _ => PAssertion::Relationship(RelationshipPAssertion {
                interaction_key: key(k),
                asserter,
                effect: data(k),
                causes: vec![(key(k.saturating_sub(3)), data(k.saturating_sub(3)))],
                relation: "derived-from".into(),
            }),
        };
        RecordedAssertion {
            session: self.sessions[s].clone(),
            assertion,
        }
    }

    /// The corpus as `Record` messages of `per_message` assertions, round-robin over sessions
    /// as independent recorders would interleave them.
    pub fn messages(&self, per_message: usize) -> Vec<RecordMessage> {
        let mut out = Vec::new();
        let mut batch = Vec::with_capacity(per_message);
        let ship = |batch: &mut Vec<RecordedAssertion>, out: &mut Vec<RecordMessage>| {
            if !batch.is_empty() {
                out.push(RecordMessage {
                    message_id: MessageId::new(format!("message:corpus:{:06}", out.len())),
                    asserter: ActorId::new("corpus-loader"),
                    assertions: std::mem::take(batch),
                });
            }
        };
        for k in 0..self.per_session {
            for s in 0..self.sessions.len() {
                batch.push(self.assertion(s, k));
                if batch.len() == per_message {
                    ship(&mut batch, &mut out);
                }
            }
        }
        ship(&mut batch, &mut out);
        out
    }

    /// The deepest data item of session `s`: the effect of its last relationship.
    pub fn deepest(&self, s: usize) -> DataId {
        let mut k = self.per_session - 1;
        while k % 3 != 2 {
            k -= 1;
        }
        DataId::new(format!("data:{}:{k:06}", self.stems[s]))
    }

    /// Nodes in the closure of [`Self::deepest`]: one per relationship (`k % 3 == 2`). A
    /// lineage graph holds a node per *effect*, and the chain's root cause `data(0)` is the
    /// effect of nothing.
    pub fn closure_nodes(&self) -> usize {
        self.per_session / 3
    }
}

/// One reader operation of the query workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    /// First page (256 items) of a by-session paged query.
    Page(usize),
    /// The whole of one session in a single response.
    Session(usize),
    /// Lineage of the session, closed over its deepest data item.
    Closure(usize),
}

/// The seeded reader op sequence: 60 % pages, 20 % sessions, 20 % closures, each against a
/// uniformly drawn corpus session.
pub fn query_ops(seed: u64, round: u64, count: usize, sessions: usize) -> Vec<QueryOp> {
    let mut rng = Rng::stream(seed, round, 3);
    (0..count)
        .map(|_| {
            let session = rng.below(sessions as u64) as usize;
            match rng.below(10) {
                0..=5 => QueryOp::Page(session),
                6..=7 => QueryOp::Session(session),
                _ => QueryOp::Closure(session),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: RecordShape = RecordShape {
        sessions: 4,
        per_session: 20,
        per_message: 8,
        payload_bytes: 32,
    };

    fn encoded(seed: u64, round: u64) -> String {
        let lanes = record_lanes(seed, round, "load", SHAPE, 2);
        let corpus = Corpus::new(seed, round, 3, 9).messages(4);
        let ops = query_ops(seed, round, 50, 3);
        format!(
            "{}|{}|{ops:?}",
            serde_json::to_string(&lanes).unwrap(),
            serde_json::to_string(&corpus).unwrap()
        )
    }

    #[test]
    fn same_seed_generates_byte_identical_inputs() {
        assert_eq!(encoded(20050624, 0), encoded(20050624, 0));
        assert_eq!(encoded(1, 3), encoded(1, 3));
    }

    #[test]
    fn another_seed_or_round_generates_different_inputs() {
        assert_ne!(encoded(20050624, 0), encoded(1, 0));
        assert_ne!(encoded(20050624, 0), encoded(20050624, 1));
    }

    #[test]
    fn record_lanes_cover_the_shape_exactly() {
        let lanes = record_lanes(7, 0, "load", SHAPE, 2);
        let assertions: usize = lanes.iter().flatten().map(RecordMessage::len).sum();
        assert_eq!(assertions, SHAPE.assertions());
        // 20 per session in messages of 8 → 8 + 8 + 4, never a message spanning two sessions.
        assert_eq!(lanes.iter().flatten().count(), 4 * 3);
        for message in lanes.iter().flatten() {
            let first = &message.assertions[0].session;
            assert!(message.assertions.iter().all(|a| &a.session == first));
        }
    }

    #[test]
    fn corpus_chain_has_the_stated_closure_size() {
        let corpus = Corpus::new(7, 0, 2, 9);
        assert_eq!(corpus.total(), 18);
        assert_eq!(
            corpus
                .messages(4)
                .iter()
                .map(RecordMessage::len)
                .sum::<usize>(),
            18
        );
        // k = 2, 5, 8 are relationships; the deepest effect is data(8).
        assert!(corpus.deepest(1).as_str().ends_with(":000008"));
        assert_eq!(corpus.closure_nodes(), 3);
    }

    #[test]
    fn op_mix_is_sixty_twenty_twenty() {
        let ops = query_ops(20050624, 0, 10_000, 100);
        let share = |pick: fn(&QueryOp) -> bool| {
            ops.iter().filter(|op| pick(op)).count() as f64 / ops.len() as f64
        };
        assert!((share(|op| matches!(op, QueryOp::Page(_))) - 0.6).abs() < 0.02);
        assert!((share(|op| matches!(op, QueryOp::Session(_))) - 0.2).abs() < 0.02);
        assert!((share(|op| matches!(op, QueryOp::Closure(_))) - 0.2).abs() < 0.02);
    }
}

//! PReP — the Provenance Recording Protocol.
//!
//! PReP "specifies the messages that actors can asynchronously exchange with the provenance
//! store in order to record their interaction and actor state p-assertions". The protocol is
//! deliberately small: record submissions (possibly batched), acknowledgements, group
//! registrations and queries. When p-assertions are recorded is left to the implementor — the
//! paper exploits this freedom to record asynchronously after execution, which is what keeps
//! the overhead in Figure 4 under 10 %.

use serde::{Deserialize, Serialize};

use crate::group::Group;
use crate::ids::{ActorId, InteractionKey, MessageId, SessionId};
use crate::passertion::RecordedAssertion;

/// A record submission: one or more p-assertions from one asserting actor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordMessage {
    /// Unique id of this protocol message.
    pub message_id: MessageId,
    /// The actor submitting documentation.
    pub asserter: ActorId,
    /// The assertions being recorded.
    pub assertions: Vec<RecordedAssertion>,
}

impl RecordMessage {
    /// Number of p-assertions carried.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// Whether the message carries no assertions.
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }
}

/// Acknowledgement returned by the store for a record submission.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordAck {
    /// The message being acknowledged.
    pub message_id: MessageId,
    /// Number of p-assertions the store accepted.
    pub accepted: usize,
    /// Human-readable rejection reasons for assertions the store refused (empty on success).
    pub rejected: Vec<String>,
}

impl RecordAck {
    /// Whether every submitted assertion was accepted.
    pub fn fully_accepted(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// Queries supported by the store's basic query plug-in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryRequest {
    /// All p-assertions recorded for one interaction.
    ByInteraction(InteractionKey),
    /// All p-assertions recorded under one session.
    BySession(SessionId),
    /// All p-assertions asserted by one actor (served by the actor secondary index).
    ByActor(ActorId),
    /// All relationship p-assertions carrying one relation label (served by the
    /// interaction-relationship secondary index).
    ByRelation(String),
    /// All interaction keys known to the store (optionally limited).
    ListInteractions {
        /// Maximum number of keys to return (`None` = all).
        limit: Option<usize>,
    },
    /// All groups of a given kind label ("session", "thread", ...).
    GroupsByKind(String),
    /// Actor state p-assertions of a given kind label ("script", ...) for one interaction.
    ActorStateByKind {
        /// The interaction to inspect.
        interaction: InteractionKey,
        /// The actor-state kind label to filter by.
        kind: String,
    },
    /// The store's record counts (diagnostics).
    Statistics,
}

impl QueryRequest {
    /// Whether this request produces a stream of p-assertions and therefore supports
    /// cursor-based pagination ([`PagedQuery`]).
    pub fn is_pageable(&self) -> bool {
        matches!(
            self,
            QueryRequest::ByInteraction(_)
                | QueryRequest::BySession(_)
                | QueryRequest::ByActor(_)
                | QueryRequest::ByRelation(_)
                | QueryRequest::ActorStateByKind { .. }
        )
    }
}

/// Hard ceiling on the page size of a [`PagedQuery`]: a page request above this (or of zero)
/// is refused loudly rather than silently truncated or allowed to balloon into the unbounded
/// single-message responses pagination exists to replace.
pub const MAX_PAGE_SIZE: usize = 10_000;

/// A resumption point in a paginated query: the last sort key served. Sort keys are the
/// store's `"<escaped interaction>/<zero-padded seq>"` ordering keys, which are stable across
/// cluster rebalances (`add_shard` never moves existing documentation), so a cursor taken
/// before a rebalance remains valid after it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageCursor {
    /// The sort key of the last p-assertion already served; the next page resumes strictly
    /// after it.
    pub after: String,
}

/// A cursor-carrying query: fetch one bounded page of an assertion-producing [`QueryRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PagedQuery {
    /// The underlying request; must satisfy [`QueryRequest::is_pageable`].
    pub request: QueryRequest,
    /// Where to resume (`None` = from the start).
    pub cursor: Option<PageCursor>,
    /// Maximum p-assertions in the returned page (1..=[`MAX_PAGE_SIZE`]).
    pub page_size: usize,
}

/// One page of a paginated query answer, as returned to clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryPage {
    /// The p-assertions of this page, in ascending `(sort key, shard)` order. Whenever the
    /// result's interactions are each resident on one shard — guaranteed for `BySession` by
    /// the router's session co-location, and true of every co-located workload — this is
    /// exactly the order the unpaginated query answers in; an interaction key genuinely split
    /// across shards may interleave its assertions differently than the unpaginated
    /// shard-major merge, though never across page boundaries.
    pub assertions: Vec<RecordedAssertion>,
    /// Cursor for the next page; `None` means the result set is exhausted.
    pub next: Option<PageCursor>,
}

/// One store's bounded page in stored form: documents tagged with their global sort keys plus
/// an exhaustion flag, which is what the router's merge needs to combine per-shard pages
/// without unbounded fetches. The documents are the store's own bytes
/// ([`crate::prepwire::encode_document`]), never decoded on the way to an answer; between a
/// shard and the router the page rides [`crate::prepwire`]'s packed page carrier, and clients
/// only ever see the [`QueryPage`] built from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardQueryPage {
    /// `(sort key, stored document)` pairs in ascending sort-key order.
    pub items: Vec<(String, Vec<u8>)>,
    /// Whether the store has no further items after this page.
    pub exhausted: bool,
}

impl ShardQueryPage {
    /// The cursor a client resumes after this page: its last sort key, unless the result set
    /// is exhausted.
    pub fn next(&self) -> Option<PageCursor> {
        match self.exhausted {
            true => None,
            false => self.items.last().map(|(sort, _)| PageCursor {
                after: sort.clone(),
            }),
        }
    }
}

/// Response to a [`QueryRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryResponse {
    /// P-assertions matching the query.
    Assertions(Vec<RecordedAssertion>),
    /// Interaction keys matching the query.
    Interactions(Vec<InteractionKey>),
    /// Groups matching the query.
    Groups(Vec<Group>),
    /// Store statistics.
    Statistics(StoreStatistics),
    /// The query was understood but nothing matched.
    Empty,
}

/// Counters the store reports through the statistics query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreStatistics {
    /// Number of interaction p-assertions held.
    pub interaction_passertions: u64,
    /// Number of actor state p-assertions held.
    pub actor_state_passertions: u64,
    /// Number of relationship p-assertions held.
    pub relationship_passertions: u64,
    /// Number of distinct interactions documented.
    pub interactions: u64,
    /// Number of groups registered.
    pub groups: u64,
    /// Total bytes of p-assertion content held.
    pub content_bytes: u64,
}

impl StoreStatistics {
    /// Total number of p-assertions of all kinds.
    pub fn total_passertions(&self) -> u64 {
        self.interaction_passertions + self.actor_state_passertions + self.relationship_passertions
    }
}

/// The messages an actor can send to a provenance store (the store's wire-level interface).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PrepMessage {
    /// Submit p-assertions.
    Record(RecordMessage),
    /// Register or extend a group.
    RegisterGroup(Group),
    /// Query the store.
    Query(QueryRequest),
    /// Fetch one bounded page of a query (cursor-carrying).
    QueryPage(PagedQuery),
}

impl PrepMessage {
    /// The wire-level action name for this message (used as the envelope action header).
    pub fn action(&self) -> &'static str {
        match self {
            PrepMessage::Record(_) => "record",
            PrepMessage::RegisterGroup(_) => "register-group",
            PrepMessage::Query(_) => "query",
            PrepMessage::QueryPage(_) => "query-page",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passertion::{
        ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
    };

    fn record() -> RecordMessage {
        RecordMessage {
            message_id: MessageId::new("message:r:1"),
            asserter: ActorId::new("shuffler"),
            assertions: vec![RecordedAssertion {
                session: SessionId::new("session:r:0"),
                assertion: PAssertion::ActorState(ActorStatePAssertion {
                    interaction_key: InteractionKey::new("interaction:r:4"),
                    asserter: ActorId::new("shuffler"),
                    view: ViewKind::Receiver,
                    kind: ActorStateKind::Script,
                    content: PAssertionContent::text("shuffle --seed 42"),
                }),
            }],
        }
    }

    #[test]
    fn record_message_basics() {
        let msg = record();
        assert_eq!(msg.len(), 1);
        assert!(!msg.is_empty());
        assert_eq!(PrepMessage::Record(msg).action(), "record");
    }

    #[test]
    fn ack_accept_and_reject() {
        let ok = RecordAck {
            message_id: MessageId::new("m"),
            accepted: 3,
            rejected: vec![],
        };
        assert!(ok.fully_accepted());
        let partial = RecordAck {
            message_id: MessageId::new("m"),
            accepted: 2,
            rejected: vec!["duplicate assertion".into()],
        };
        assert!(!partial.fully_accepted());
    }

    #[test]
    fn statistics_totals() {
        let stats = StoreStatistics {
            interaction_passertions: 10,
            actor_state_passertions: 20,
            relationship_passertions: 5,
            ..Default::default()
        };
        assert_eq!(stats.total_passertions(), 35);
    }

    #[test]
    fn actions_for_every_message_kind() {
        assert_eq!(
            PrepMessage::RegisterGroup(Group::new("g", crate::group::GroupKind::Session)).action(),
            "register-group"
        );
        assert_eq!(
            PrepMessage::Query(QueryRequest::Statistics).action(),
            "query"
        );
        assert_eq!(
            PrepMessage::QueryPage(PagedQuery {
                request: QueryRequest::Statistics,
                cursor: None,
                page_size: 1,
            })
            .action(),
            "query-page"
        );
    }

    #[test]
    fn pageable_requests_are_exactly_the_assertion_streams() {
        assert!(QueryRequest::ByInteraction(InteractionKey::new("i")).is_pageable());
        assert!(QueryRequest::BySession(SessionId::new("s")).is_pageable());
        assert!(QueryRequest::ByActor(ActorId::new("a")).is_pageable());
        assert!(QueryRequest::ByRelation("r".into()).is_pageable());
        assert!(QueryRequest::ActorStateByKind {
            interaction: InteractionKey::new("i"),
            kind: "script".into(),
        }
        .is_pageable());
        assert!(!QueryRequest::ListInteractions { limit: None }.is_pageable());
        assert!(!QueryRequest::GroupsByKind("session".into()).is_pageable());
        assert!(!QueryRequest::Statistics.is_pageable());
    }

    #[test]
    fn query_page_roundtrips_through_json() {
        let page = QueryPage {
            assertions: vec![],
            next: Some(PageCursor {
                after: "k/1".into(),
            }),
        };
        let json = serde_json::to_string(&page).unwrap();
        assert_eq!(serde_json::from_str::<QueryPage>(&json).unwrap(), page);
        let last = QueryPage {
            assertions: vec![],
            next: None,
        };
        let json = serde_json::to_string(&last).unwrap();
        assert_eq!(json, r#"{"assertions":[],"next":null}"#);
        assert_eq!(serde_json::from_str::<QueryPage>(&json).unwrap(), last);
    }

    #[test]
    fn serde_roundtrip_of_protocol_messages() {
        let messages = vec![
            PrepMessage::Record(record()),
            PrepMessage::RegisterGroup(Group::new("session:1", crate::group::GroupKind::Session)),
            PrepMessage::Query(QueryRequest::ByInteraction(InteractionKey::new(
                "interaction:1",
            ))),
            PrepMessage::Query(QueryRequest::BySession(SessionId::new("session:1"))),
            PrepMessage::Query(QueryRequest::ListInteractions { limit: Some(10) }),
            PrepMessage::Query(QueryRequest::GroupsByKind("session".into())),
            PrepMessage::Query(QueryRequest::ActorStateByKind {
                interaction: InteractionKey::new("interaction:2"),
                kind: "script".into(),
            }),
            PrepMessage::Query(QueryRequest::ByActor(ActorId::new("shuffler"))),
            PrepMessage::Query(QueryRequest::ByRelation("derived-from".into())),
            PrepMessage::Query(QueryRequest::Statistics),
            PrepMessage::QueryPage(PagedQuery {
                request: QueryRequest::BySession(SessionId::new("session:1")),
                cursor: Some(PageCursor {
                    after: "interaction%2F1/000000000004".into(),
                }),
                page_size: 32,
            }),
        ];
        for msg in messages {
            let json = serde_json::to_string(&msg).unwrap();
            assert_eq!(serde_json::from_str::<PrepMessage>(&json).unwrap(), msg);
        }
        let responses = vec![
            QueryResponse::Assertions(vec![]),
            QueryResponse::Interactions(vec![InteractionKey::new("interaction:1")]),
            QueryResponse::Groups(vec![]),
            QueryResponse::Statistics(StoreStatistics::default()),
            QueryResponse::Empty,
        ];
        for resp in responses {
            let json = serde_json::to_string(&resp).unwrap();
            assert_eq!(serde_json::from_str::<QueryResponse>(&json).unwrap(), resp);
        }
    }
}

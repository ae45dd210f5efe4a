//! # pasoa-core — the provenance model and the PReP recording protocol
//!
//! This crate is the reproduction of the paper's central conceptual contribution: a
//! *technology-independent* notion of provenance for service-oriented architectures, and the
//! protocol by which distributed, heterogeneous application components submit documentation of
//! their execution to a provenance store.
//!
//! ## The model
//!
//! * An **actor** is either a client or a service — anything that takes inputs and produces
//!   outputs ([`ids::ActorId`]).
//! * A **p-assertion** is "an assertion, by an actor, pertaining to the provenance of some
//!   data" ([`passertion::PAssertion`]). Two kinds come straight from the paper:
//!   **interaction p-assertions** document the messages exchanged between actors, and
//!   **actor state p-assertions** document an actor's internal state in the context of a
//!   specific interaction (the executed script, resource usage, workflow text, ...). A third
//!   kind, **relationship p-assertions**, captures the data-flow link between the inputs and
//!   outputs of an actor, which the paper requires ("it should be possible to determine which
//!   inputs were used to produce which output unambiguously").
//! * Interactions are identified by an **interaction key** ([`ids::InteractionKey`]); each
//!   actor documents its own **view** (sender or receiver) of the interaction.
//! * **Groups** ([`group::Group`]) associate interactions into well-understood units such as
//!   *sessions* (one workflow run) and *threads* (a sequential chain of activities).
//!
//! ## The protocol
//!
//! [`prep`] defines the messages actors exchange with a provenance store — record submissions,
//! acknowledgements and queries — and [`recorder`] provides the client-side recording
//! strategies evaluated in the paper's Figure 4: no recording, **synchronous** recording (every
//! p-assertion is shipped to the store as it is produced) and **asynchronous** recording
//! (p-assertions accumulate in a local [`journal`] and are shipped in bulk after execution).

pub mod group;
pub mod ids;
pub mod journal;
pub mod passertion;
pub mod prep;
pub mod prepwire;
pub mod recorder;

pub use group::{Group, GroupKind};
pub use ids::{ActorId, DataId, IdGenerator, InteractionKey, MessageId, SessionId};
pub use passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RelationshipPAssertion, ViewKind,
};
pub use prep::{
    PageCursor, PagedQuery, PrepMessage, QueryPage, QueryRequest, QueryResponse, RecordAck,
    RecordMessage, ShardQueryPage, MAX_PAGE_SIZE,
};
pub use recorder::{AsyncRecorder, NullRecorder, ProvenanceRecorder, RecordingMode, SyncRecorder};

/// Logical service name under which a provenance store registers on the wire layer.
pub const PROVENANCE_STORE_SERVICE: &str = "provenance-store";
/// Logical service name under which the semantic registry registers on the wire layer.
pub const REGISTRY_SERVICE: &str = "registry";

/// Wire action registering (or re-attaching) a durable change-feed subscription on a store.
/// Re-subscribing an existing name resets its in-flight jobs so delivery replays from the
/// last acknowledged sequence (replay-on-reconnect).
pub const FEED_SUBSCRIBE_ACTION: &str = "subscribe";
/// Wire action fetching the next in-order batch of change events for a subscriber.
pub const FEED_POLL_ACTION: &str = "feed-poll";
/// Wire action acknowledging every change event up to (and including) a sequence number.
pub const FEED_ACK_ACTION: &str = "feed-ack";

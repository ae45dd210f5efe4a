//! `pasoa-feed` — the durable asynchronous subscription tier.
//!
//! The paper makes plug-ins the unit of extensibility, but running consumers inline on the
//! record path means one slow consumer stalls every recorder. This crate turns record-path
//! dispatch into a *durable enqueue*: every acked write stages one change-event job per
//! matching subscriber into the very backend batch that commits the assertions (through
//! [`pasoa_preserv::RecordStager`]), and delivery happens later — from a bounded worker pool
//! for in-process [`Subscriber`]s, or by remote clients polling the `subscribe`/`feed-poll`/
//! `feed-ack` wire actions.
//!
//! Everything lives in dedicated `f/` keyspaces of the same [`pasoa_preserv::StorageBackend`]
//! as the store itself (see [`keys`]), so the queue inherits the store's durability contract:
//! a power loss never loses an acked record's change event and never invents a phantom one.
//! Delivery is in-order per subscriber, at-least-once, with duplicate suppression by sequence
//! on the consumer side — which composes to exactly-once for every surviving subscriber.
//!
//! The crate is std-only with no async runtime, matching the `pasoa-net`/`pasoa-dag`
//! discipline: plain threads, `parking_lot` locks, and an injectable [`FeedClock`] so the
//! simulation harness replays backoff deadlines deterministically.

pub mod dispatch;
pub mod event;
pub mod filter;
pub mod keys;
pub mod queue;
pub mod service;

pub use dispatch::{FeedDispatcher, Subscriber};
pub use event::{event_identity, FeedEvent, FeedEventBody, SequencedEvent};
pub use filter::{FeedFilter, LineageResolver, StoreLineageResolver};
pub use queue::{
    backoff_for, FeedClock, FeedConfig, FeedError, FeedQueue, SubscriberSnapshot, Subscription,
};
pub use service::{
    FeedAckRequest, FeedBatch, FeedPollRequest, FeedService, FeedSubscriberClient, SubscribeAck,
    SubscribeRequest,
};

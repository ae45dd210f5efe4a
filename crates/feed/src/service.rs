//! The wire face of the feed tier: the `subscribe` / `feed-poll` / `feed-ack` actions, and
//! the client remote subscribers hold.
//!
//! [`FeedService`] is a [`MessageHandler`] meant to be attached to the co-located store
//! service with [`pasoa_preserv::PreservService::set_feed_handler`]: the feed actions ride
//! the store's service name, so remote subscribers reach the feed through whatever proxies
//! already reach the store — in-process hosts and TCP shard proxies alike, with no extra
//! listener.
//!
//! [`FeedSubscriberClient`] is the consumer side: subscribe (which also resets any stale
//! in-flight window, triggering replay of unacknowledged jobs), then poll/ack in a loop. The
//! client suppresses duplicates by sequence, which turns the queue's at-least-once delivery
//! into exactly-once for the consumer it feeds.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pasoa_wire::{Envelope, MessageHandler, Transport, WireError, WireResult};

use crate::event::SequencedEvent;
use crate::filter::FeedFilter;
use crate::queue::{FeedError, FeedQueue};

/// Body of the `subscribe` action.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SubscribeRequest {
    /// Subscriber name (the durable queue identity).
    pub subscriber: String,
    /// What the subscription sees.
    pub filter: FeedFilter,
}

/// Response to `subscribe` and `feed-ack`: the subscriber's current ack floor.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SubscribeAck {
    /// Every sequence at or below this has been acknowledged.
    pub last_acked: u64,
}

/// Body of the `feed-poll` action.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeedPollRequest {
    /// Subscriber name.
    pub subscriber: String,
    /// Maximum events wanted (clamped to the queue's batch size).
    pub max: usize,
}

/// One delivery window: in-order events plus the sequence an ack should cover.
///
/// `ack_up_to` can exceed the last event's sequence when trailing jobs were filtered out at
/// delivery time; acking it releases those too. `ack_up_to == 0` means the window is empty.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeedBatch {
    /// The events, ascending by sequence.
    pub events: Vec<SequencedEvent>,
    /// Acknowledge up to (and including) this sequence once the events are consumed.
    pub ack_up_to: u64,
}

impl FeedBatch {
    /// A window with nothing in it.
    pub fn empty() -> Self {
        FeedBatch {
            events: Vec::new(),
            ack_up_to: 0,
        }
    }
}

/// Body of the `feed-ack` action.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeedAckRequest {
    /// Subscriber name.
    pub subscriber: String,
    /// Acknowledge every sequence up to and including this one.
    pub up_to: u64,
}

/// The feed tier's [`MessageHandler`]. Attach to a [`pasoa_preserv::PreservService`] via
/// `set_feed_handler`.
pub struct FeedService {
    queue: Arc<FeedQueue>,
}

impl FeedService {
    /// A service over `queue`.
    pub fn new(queue: Arc<FeedQueue>) -> Self {
        FeedService { queue }
    }

    /// The underlying queue.
    pub fn queue(&self) -> Arc<FeedQueue> {
        Arc::clone(&self.queue)
    }
}

fn feed_fault(e: FeedError) -> WireError {
    WireError::Payload(e.to_string())
}

impl MessageHandler for FeedService {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        let action = request.action().unwrap_or_default().to_string();
        if action == pasoa_core::FEED_SUBSCRIBE_ACTION {
            let req: SubscribeRequest = request.json_payload()?;
            let last_acked = self
                .queue
                .subscribe(&req.subscriber, req.filter)
                .map_err(feed_fault)?;
            Envelope::response(&action).with_json_payload(&SubscribeAck { last_acked })
        } else if action == pasoa_core::FEED_POLL_ACTION {
            let req: FeedPollRequest = request.json_payload()?;
            let batch = self
                .queue
                .poll(&req.subscriber, req.max)
                .map_err(feed_fault)?;
            Envelope::response(&action).with_json_payload(&batch)
        } else if action == pasoa_core::FEED_ACK_ACTION {
            let req: FeedAckRequest = request.json_payload()?;
            let floor = self
                .queue
                .ack(&req.subscriber, req.up_to)
                .map_err(feed_fault)?;
            Envelope::response(&action).with_json_payload(&SubscribeAck { last_acked: floor })
        } else {
            Err(WireError::Payload(format!(
                "feed service does not handle action '{action}'"
            )))
        }
    }

    fn name(&self) -> &str {
        "feed"
    }
}

/// A remote subscriber: subscribes over the wire, then polls and acks windows against one
/// service (one shard). The client tracks the highest sequence it has handed to its consumer
/// and filters redelivered duplicates, so across reconnects — each `connect` resets the
/// server-side in-flight window and replays unacknowledged jobs — the consumer sees every
/// event exactly once, in order.
pub struct FeedSubscriberClient {
    transport: Transport,
    service: String,
    subscriber: String,
    filter: FeedFilter,
    last_seen: u64,
}

impl FeedSubscriberClient {
    /// A client for `subscriber` against `service`, reachable through `transport`.
    pub fn new(
        transport: Transport,
        service: impl Into<String>,
        subscriber: impl Into<String>,
        filter: FeedFilter,
    ) -> Self {
        FeedSubscriberClient {
            transport,
            service: service.into(),
            subscriber: subscriber.into(),
            filter,
            last_seen: 0,
        }
    }

    /// Register (or re-attach after a disconnect). Returns the server-side ack floor; the
    /// client adopts it as its duplicate-suppression watermark, since everything at or below
    /// the floor was consumed by a previous incarnation.
    pub fn connect(&mut self) -> WireResult<u64> {
        let request = Envelope::request(&self.service, pasoa_core::FEED_SUBSCRIBE_ACTION)
            .with_json_payload(&SubscribeRequest {
                subscriber: self.subscriber.clone(),
                filter: self.filter.clone(),
            })?;
        let response = self.checked(self.transport.call(request)?)?;
        let ack: SubscribeAck = response.json_payload()?;
        self.last_seen = self.last_seen.max(ack.last_acked);
        Ok(ack.last_acked)
    }

    /// Poll one window, acknowledge it, and return the events not yet seen (in order).
    pub fn poll_once(&mut self, max: usize) -> WireResult<Vec<SequencedEvent>> {
        let request = Envelope::request(&self.service, pasoa_core::FEED_POLL_ACTION)
            .with_json_payload(&FeedPollRequest {
                subscriber: self.subscriber.clone(),
                max,
            })?;
        let response = self.checked(self.transport.call(request)?)?;
        let batch: FeedBatch = response.json_payload()?;
        if batch.ack_up_to == 0 {
            return Ok(Vec::new());
        }
        let fresh: Vec<SequencedEvent> = batch
            .events
            .into_iter()
            .filter(|e| e.seq > self.last_seen)
            .collect();
        let ack = Envelope::request(&self.service, pasoa_core::FEED_ACK_ACTION).with_json_payload(
            &FeedAckRequest {
                subscriber: self.subscriber.clone(),
                up_to: batch.ack_up_to,
            },
        )?;
        self.checked(self.transport.call(ack)?)?;
        self.last_seen = self.last_seen.max(batch.ack_up_to);
        Ok(fresh)
    }

    /// Poll repeatedly (windows of `max`) until a round comes back empty or `max_rounds` is
    /// spent; returns everything received.
    pub fn drain(&mut self, max: usize, max_rounds: usize) -> WireResult<Vec<SequencedEvent>> {
        let mut all = Vec::new();
        for _ in 0..max_rounds {
            let got = self.poll_once(max)?;
            if got.is_empty() {
                break;
            }
            all.extend(got);
        }
        Ok(all)
    }

    /// The highest sequence handed to the consumer (the duplicate-suppression watermark).
    pub fn last_seen(&self) -> u64 {
        self.last_seen
    }

    /// The subscriber name this client drives.
    pub fn subscriber(&self) -> &str {
        &self.subscriber
    }

    fn checked(&self, response: Envelope) -> WireResult<Envelope> {
        if response.is_fault() {
            return Err(WireError::Fault {
                service: self.service.clone(),
                reason: response.fault_reason().unwrap_or_default(),
            });
        }
        Ok(response)
    }
}

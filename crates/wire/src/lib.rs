//! # pasoa-wire — message envelopes and simulated transport
//!
//! The HPDC 2005 provenance architecture is service-oriented: actors exchange SOAP messages
//! over HTTP with the PReServ provenance store and the Grimoires registry, deployed on separate
//! hosts connected by 100 Mb ethernet. This crate is the from-scratch substitute for that
//! communication substrate:
//!
//! * [`xml`] — a minimal XML-like element tree with a serializer and parser, used as the
//!   message payload format (the SOAP-body stand-in),
//! * [`base64`] — the textual form of an element's byte run,
//! * [`envelope`] — the message envelope: headers (message id, sender, action) plus a body
//!   element, mirroring a SOAP envelope,
//! * [`codec`] — a compact binary encoding of envelopes (wire version 2 of the TCP frame
//!   protocol), length-prefixed and allocation-hardened, negotiated per connection with the
//!   textual form as the fallback for old peers,
//! * [`latency`] — a configurable latency/bandwidth model so the per-call costs the paper
//!   measures (≈18 ms per record round trip) can be injected deterministically,
//! * [`clock`] — a virtual clock that accumulates simulated communication time when the
//!   benchmarks do not want to actually sleep,
//! * [`transport`] — an in-process service host and client transport that routes envelopes to
//!   registered services, applying the latency model and counting traffic.
//!
//! Everything here is deliberately technology-independent, which is precisely the paper's
//! point: provenance recording should not depend on the particular service plumbing in use.

pub mod base64;
pub mod clock;
pub mod codec;
pub mod envelope;
pub mod error;
pub mod fault;
pub mod latency;
pub mod stats;
pub mod transport;
pub mod xml;

pub use clock::SimClock;
pub use codec::CodecError;
pub use envelope::{Envelope, Header};
pub use error::{WireError, WireResult};
pub use fault::{FaultAction, FaultActionKind, FaultInjector, FaultSchedule};
pub use latency::{LatencyModel, NetworkProfile};
pub use stats::{StatsService, STATS_SERVICE, STATS_SNAPSHOT_ACTION};
pub use transport::{
    LatencyMode, MessageHandler, ServiceHost, Transport, TransportConfig, TransportStats,
};
pub use xml::XmlElement;

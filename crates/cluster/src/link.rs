//! The router's link to a shard: the single place a message leaves the router for a shard,
//! whether the shard shares the router's process or sits behind a socket proxy.

use pasoa_core::prep::PrepMessage;
use pasoa_core::prepwire;
use pasoa_obs::TraceCtx;
use pasoa_preserv::plugins::PluginResponse;
use pasoa_wire::{
    Envelope, FaultInjector, ServiceHost, Transport, TransportConfig, WireError, WireResult,
};

use crate::cluster::ClusterTransport;
use crate::shard::Shard;

/// Most assertions one `Record` envelope carries over [`ShardLink::Remote`]: well above the
/// default batch size (so ordinary flushes stay one message), low enough that an accumulated
/// backlog — e.g. a redistributed dead-shard buffer — ships as bounded envelopes instead of
/// one giant one.
const WIRE_RECORD_ASSERTIONS: usize = 256;

/// The router's one path to a shard, fixed at construction from the deployment's
/// [`ClusterTransport`].
pub(crate) enum ShardLink {
    /// The shard shares the router's process: decoded messages go straight to its plug-in
    /// dispatcher — re-encoding the already-decoded client message would simply double the
    /// serialization cost of every p-assertion. Carries the host's fault injector: a shard
    /// it has downed is unreachable, exactly as a crashed remote host would be (over
    /// [`ShardLink::Remote`] the proxy's host applies the same check on dispatch).
    Local(FaultInjector),
    /// The shard sits behind a proxy on the router's host: messages travel as envelopes. The
    /// transport is a passthrough one — the proxy's socket framing is the serialization, and
    /// simulating a second one in process would pay the codec twice per message.
    Remote(Transport),
}

impl ShardLink {
    /// The link a deployment over `transport` uses; `host` is where the shard proxies live.
    pub(crate) fn new(transport: ClusterTransport, host: &ServiceHost) -> Self {
        match transport {
            ClusterTransport::InProcess => ShardLink::Local(host.fault_injector()),
            // Over TCP every internal hop must be a real envelope, which the shard's fabric
            // proxy ships over the socket.
            ClusterTransport::Tcp => {
                ShardLink::Remote(host.transport(TransportConfig::passthrough()))
            }
        }
    }

    /// Most assertions one `Record` message carries over this link. Handing a message over in
    /// process has no envelope to bound, so a local flush is always one message.
    pub(crate) fn record_assertions(&self) -> usize {
        match self {
            ShardLink::Local(_) => usize::MAX,
            ShardLink::Remote(_) => WIRE_RECORD_ASSERTIONS,
        }
    }

    /// Deliver `messages` to `shard`, returning one result per message in order.
    pub(crate) fn call(
        &self,
        shard: &Shard,
        action: &str,
        messages: &[PrepMessage],
        trace: Option<&TraceCtx>,
    ) -> Vec<WireResult<PluginResponse>> {
        let transport = match self {
            ShardLink::Local(faults) => {
                let down = faults.is_down(&shard.name);
                return messages
                    .iter()
                    .map(|message| match down {
                        true => Err(WireError::ServiceDown(shard.name.clone())),
                        false => shard.service.dispatch_traced(action, message, trace),
                    })
                    .collect();
            }
            ShardLink::Remote(transport) => transport,
        };
        let envelopes: WireResult<Vec<Envelope>> = messages
            .iter()
            .map(|message| {
                let envelope = prepwire::request_envelope(&shard.name, action, message)?
                    .with_header(pasoa_wire::envelope::header_names::SENDER, "shard-router");
                Ok(match trace {
                    Some(trace) => envelope.with_trace(trace),
                    None => envelope,
                })
            })
            .collect();
        let mut envelopes = match envelopes {
            Ok(envelopes) => envelopes,
            Err(error) => return messages.iter().map(|_| Err(error.clone())).collect(),
        };
        // A lone envelope takes the single-call path; several cross the socket as ONE
        // multi-envelope frame instead of one write per message.
        let responses = match envelopes.len() {
            1 => vec![transport.call(envelopes.pop().expect("one envelope"))],
            _ => transport.call_many(envelopes),
        };
        responses
            .into_iter()
            .zip(messages)
            .map(|(response, message)| {
                // Rebuild the typed plug-in response from the wire payload.
                let response = response?;
                Ok(match message {
                    PrepMessage::Record(_) => PluginResponse::Ack(
                        prepwire::ack_from_element(&response.body)
                            .map_err(|e| WireError::Payload(format!("packed ack: {e}")))?,
                    ),
                    PrepMessage::RegisterGroup(_) => PluginResponse::GroupRegistered,
                    PrepMessage::Query(_) if action == "lineage" => {
                        PluginResponse::Lineage(response.json_payload()?)
                    }
                    // Assertion streams come back in the page carrier, everything else as JSON.
                    PrepMessage::Query(_) | PrepMessage::QueryPage(_) => {
                        match prepwire::page_from_response(&response)? {
                            Some(page) => PluginResponse::Documents(page),
                            None => PluginResponse::Query(response.json_payload()?),
                        }
                    }
                })
            })
            .collect()
    }
}

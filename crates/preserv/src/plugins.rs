//! PReServ plug-ins.
//!
//! "Based on the port that the message was sent to, the SOAP Message Translator strips off the
//! HTTP and SOAP Headers and passes the contents of the SOAP body to an appropriate PlugIn,
//! which must conform to the schemas distributed with PReServ." Plug-ins are the unit of
//! extensibility: the Store PlugIn records documentation, the Basic Query PlugIn answers
//! queries, and further plug-ins (here: a lineage query plug-in) can be added without touching
//! the translator or the backends.

use std::sync::Arc;

use pasoa_core::prep::{PrepMessage, QueryRequest, QueryResponse, RecordAck, ShardQueryPage};

use crate::lineage::LineageGraph;
use crate::store::{ProvenanceStore, StoreError};

/// Outcome of a plug-in invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum PluginResponse {
    /// Acknowledgement of a record submission.
    Ack(RecordAck),
    /// Result of a query that does not produce p-assertions (listings, groups, statistics).
    Query(QueryResponse),
    /// P-assertions answering a query (as one exhausted page) or a page request, in stored
    /// form: the translator builds the answer body from the stored bytes.
    Documents(ShardQueryPage),
    /// Result of a lineage traversal.
    Lineage(LineageGraph),
    /// Acknowledgement of a group registration.
    GroupRegistered,
}

/// A PReServ plug-in: handles a decoded protocol message against the store.
pub trait PlugIn: Send + Sync {
    /// Name used to route actions to plug-ins.
    fn name(&self) -> &str;

    /// Whether this plug-in handles the given wire action.
    fn handles(&self, action: &str) -> bool;

    /// Handle one message.
    fn handle(&self, message: &PrepMessage) -> Result<PluginResponse, StoreError>;
}

/// The Store PlugIn: records p-assertions and group registrations.
pub struct StorePlugin {
    store: Arc<ProvenanceStore>,
}

impl StorePlugin {
    /// Create a store plug-in over `store`.
    pub fn new(store: Arc<ProvenanceStore>) -> Self {
        StorePlugin { store }
    }
}

impl PlugIn for StorePlugin {
    fn name(&self) -> &str {
        "store"
    }

    fn handles(&self, action: &str) -> bool {
        matches!(action, "record" | "register-group")
    }

    fn handle(&self, message: &PrepMessage) -> Result<PluginResponse, StoreError> {
        match message {
            PrepMessage::Record(record) => {
                let accepted = self.store.record_all(&record.assertions)?;
                Ok(PluginResponse::Ack(RecordAck {
                    message_id: record.message_id.clone(),
                    accepted,
                    rejected: vec![],
                }))
            }
            PrepMessage::RegisterGroup(group) => {
                self.store.register_group(group)?;
                Ok(PluginResponse::GroupRegistered)
            }
            PrepMessage::Query(_) | PrepMessage::QueryPage(_) => Err(StoreError::Corrupt(
                "query message routed to the store plug-in".into(),
            )),
        }
    }
}

/// The Basic Query PlugIn: answers the protocol's query requests.
pub struct BasicQueryPlugin {
    store: Arc<ProvenanceStore>,
}

impl BasicQueryPlugin {
    /// Create a query plug-in over `store`.
    pub fn new(store: Arc<ProvenanceStore>) -> Self {
        BasicQueryPlugin { store }
    }
}

impl PlugIn for BasicQueryPlugin {
    fn name(&self) -> &str {
        "basic-query"
    }

    fn handles(&self, action: &str) -> bool {
        action == "query"
    }

    fn handle(&self, message: &PrepMessage) -> Result<PluginResponse, StoreError> {
        match message {
            PrepMessage::Query(request) if request.is_pageable() => {
                Ok(PluginResponse::Documents(ShardQueryPage {
                    items: self.store.documents(request)?,
                    exhausted: true,
                }))
            }
            PrepMessage::Query(request) => Ok(PluginResponse::Query(self.store.query(request)?)),
            _ => Err(StoreError::Corrupt(
                "non-query message routed to the query plug-in".into(),
            )),
        }
    }
}

/// The Paged Query PlugIn: serves cursor-carrying query pages, so a reasoner can stream a
/// large result set in bounded messages instead of one unbounded response. Page-size bounds
/// are enforced by the store ([`ProvenanceStore::query_page`]) — out-of-range requests fail
/// loudly rather than being clamped.
pub struct PagedQueryPlugin {
    store: Arc<ProvenanceStore>,
}

impl PagedQueryPlugin {
    /// Create a paged-query plug-in over `store`.
    pub fn new(store: Arc<ProvenanceStore>) -> Self {
        PagedQueryPlugin { store }
    }
}

impl PlugIn for PagedQueryPlugin {
    fn name(&self) -> &str {
        "paged-query"
    }

    fn handles(&self, action: &str) -> bool {
        action == "query-page"
    }

    fn handle(&self, message: &PrepMessage) -> Result<PluginResponse, StoreError> {
        match message {
            PrepMessage::QueryPage(paged) => {
                Ok(PluginResponse::Documents(self.store.query_page(paged)?))
            }
            _ => Err(StoreError::Corrupt(
                "non-page message routed to the paged-query plug-in".into(),
            )),
        }
    }
}

/// The Lineage Query PlugIn: answers "which inputs were used to produce this output" by
/// traversing relationship p-assertions — the unambiguous input/output link the paper requires.
pub struct LineageQueryPlugin {
    store: Arc<ProvenanceStore>,
}

impl LineageQueryPlugin {
    /// Create a lineage plug-in over `store`.
    pub fn new(store: Arc<ProvenanceStore>) -> Self {
        LineageQueryPlugin { store }
    }
}

impl PlugIn for LineageQueryPlugin {
    fn name(&self) -> &str {
        "lineage-query"
    }

    fn handles(&self, action: &str) -> bool {
        action == "lineage"
    }

    fn handle(&self, message: &PrepMessage) -> Result<PluginResponse, StoreError> {
        // The lineage plug-in reuses the session query to seed its traversal; the target data id
        // is carried as the session query's payload by the dedicated helper instead. Routing a
        // generic message here answers with the full-session lineage of every data item.
        match message {
            PrepMessage::Query(QueryRequest::BySession(session)) => {
                let graph = LineageGraph::trace_session(&self.store, session)?;
                Ok(PluginResponse::Lineage(graph))
            }
            _ => Err(StoreError::Corrupt(
                "lineage plug-in expects a by-session query".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use pasoa_core::group::{Group, GroupKind};
    use pasoa_core::ids::{ActorId, DataId, InteractionKey, MessageId, SessionId};
    use pasoa_core::passertion::{
        InteractionPAssertion, PAssertion, PAssertionContent, RecordedAssertion, ViewKind,
    };
    use pasoa_core::prep::RecordMessage;

    fn store() -> Arc<ProvenanceStore> {
        Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap())
    }

    fn record_message(n: usize) -> PrepMessage {
        let assertions = (0..n)
            .map(|i| RecordedAssertion {
                session: SessionId::new("session:p"),
                assertion: PAssertion::Interaction(InteractionPAssertion {
                    interaction_key: InteractionKey::new(format!("interaction:{i}")),
                    asserter: ActorId::new("engine"),
                    view: ViewKind::Sender,
                    sender: ActorId::new("engine"),
                    receiver: ActorId::new("gzip"),
                    operation: "compress".into(),
                    content: PAssertionContent::text("payload"),
                    data_ids: vec![DataId::new(format!("data:{i}"))],
                }),
            })
            .collect();
        PrepMessage::Record(RecordMessage {
            message_id: MessageId::new("message:1"),
            asserter: ActorId::new("engine"),
            assertions,
        })
    }

    #[test]
    fn store_plugin_records_and_acknowledges() {
        let store = store();
        let plugin = StorePlugin::new(Arc::clone(&store));
        assert!(plugin.handles("record"));
        assert!(plugin.handles("register-group"));
        assert!(!plugin.handles("query"));
        match plugin.handle(&record_message(4)).unwrap() {
            PluginResponse::Ack(ack) => {
                assert_eq!(ack.accepted, 4);
                assert!(ack.fully_accepted());
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert_eq!(store.statistics().interaction_passertions, 4);

        let group = PrepMessage::RegisterGroup(Group::new("session:p", GroupKind::Session));
        assert!(matches!(
            plugin.handle(&group).unwrap(),
            PluginResponse::GroupRegistered
        ));
        assert!(plugin
            .handle(&PrepMessage::Query(QueryRequest::Statistics))
            .is_err());
    }

    #[test]
    fn query_plugin_answers_and_rejects_misrouted_messages() {
        let store = store();
        StorePlugin::new(Arc::clone(&store))
            .handle(&record_message(3))
            .unwrap();
        let plugin = BasicQueryPlugin::new(Arc::clone(&store));
        assert!(plugin.handles("query"));
        assert!(!plugin.handles("record"));
        match plugin.handle(&PrepMessage::Query(QueryRequest::ListInteractions {
            limit: None,
        })) {
            Ok(PluginResponse::Query(QueryResponse::Interactions(keys))) => {
                assert_eq!(keys.len(), 3)
            }
            other => panic!("unexpected response {other:?}"),
        }
        assert!(plugin.handle(&record_message(1)).is_err());
    }

    #[test]
    fn plugin_names() {
        let store = store();
        assert_eq!(StorePlugin::new(Arc::clone(&store)).name(), "store");
        assert_eq!(
            BasicQueryPlugin::new(Arc::clone(&store)).name(),
            "basic-query"
        );
        assert_eq!(LineageQueryPlugin::new(store).name(), "lineage-query");
    }
}

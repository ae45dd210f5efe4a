//! Secondary-index keyspaces of the provenance store.
//!
//! The paper makes provenance *recording* cheap but leaves *querying* as bulk retrieval; these
//! indexes close that gap for the two reads the paper's reasoners and lineage traversals make
//! by something other than an interaction key. Each keyspace lives in the same
//! [`crate::StorageBackend`] as the primary documents, so the backend's durability and
//! crash-recovery guarantees cover index entries exactly as they cover p-assertions:
//!
//! ```text
//! a/<interaction>/<seq>                  → the p-assertion, packed (the primary keyspace; see
//!                                          `pasoa_core::prepwire::encode_document`)
//! x/!v                                   → index version marker (JSON)
//! x/s/<session>/<interaction>/<seq>      → "" (by-session assertion index)
//! x/e/<session>/<effect>/<seq>           → EdgeRecord (lineage adjacency index)
//! ```
//!
//! All components are escaped with [`keys::escape_component`], and `<seq>` keeps the primary
//! key's zero-padded formatting, so a by-session scan yields entries in the exact
//! `(escaped interaction, seq)` order the primary `a/` keyspace uses — which is what makes
//! indexed answers bit-identical to scan answers. By-actor and by-relation requests have no
//! index: they are served by the bulk-retrieval scan.
//!
//! ## Crash consistency
//!
//! Each assertion's group in a backend batch is its document, its interaction marker (when
//! the interaction is new), its edge entry (if any) and, **last**, its by-session entry. A
//! power loss that truncates the log mid-batch can therefore leave a document without the
//! rest of its group, but never a by-session entry without everything staged before it. The
//! open-time consistency check exploits this: the store is consistent iff the version marker
//! is current **and** the by-session entry count equals the assertion count (a truncated
//! group always shorts it). On mismatch the store rebuilds the index keyspaces and the
//! interaction markers from the primary `a/` scan before serving — a stale index is never
//! consulted, and no interaction stays hidden from the listing.

use serde::{Deserialize, Serialize};

use pasoa_core::ids::DataId;
use pasoa_core::passertion::{PAssertion, RecordedAssertion};

use crate::keys;
use crate::store::{corrupt, StoreError};

/// Key of the index version marker.
pub const VERSION_KEY: &[u8] = b"x/!v";
/// Prefix of by-session index entries.
pub const SESSION_IDX_PREFIX: &str = "x/s/";
/// Prefix of lineage adjacency (edge) index entries.
pub const EDGE_IDX_PREFIX: &str = "x/e/";

/// Current index layout version. Bumping it forces a rebuild on the next open.
pub const CURRENT_VERSION: u32 = 2;

/// Keyspaces the version-1 layout also wrote (the by-actor and by-relation indexes, and a
/// second session keyspace); nothing reads them, and the rebuild deletes what is left of them.
pub(crate) const RETIRED_PREFIXES: [&str; 3] = ["x/a/", "x/r/", "s/"];

/// The version marker document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexMarker {
    /// Index layout version; 0 marks a store last written with indexing disabled.
    pub version: u32,
}

impl IndexMarker {
    /// The marker a consistent, current index carries.
    pub fn current() -> Self {
        IndexMarker {
            version: CURRENT_VERSION,
        }
    }

    /// The marker written by an index-disabled store so a later indexed open rebuilds.
    pub fn disabled() -> Self {
        IndexMarker { version: 0 }
    }

    /// Serialize to the stored payload.
    pub fn payload(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("marker serializes")
    }

    /// Whether a stored payload marks a current index.
    pub fn payload_is_current(payload: &[u8]) -> bool {
        serde_json::from_slice::<IndexMarker>(payload)
            .map(|m| m.version == CURRENT_VERSION)
            .unwrap_or(false)
    }
}

/// One derivation edge as stored in the adjacency index: everything a lineage traversal needs,
/// without deserializing the full p-assertion.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeRecord {
    /// The produced data item.
    pub effect: DataId,
    /// The data items it was derived from, in assertion order.
    pub causes: Vec<DataId>,
    /// The relation label.
    pub relation: String,
}

impl EdgeRecord {
    /// The edge a relationship p-assertion asserts — the single definition both the
    /// write-through index entries and the scan fallback derive edges from, so the two paths
    /// cannot drift apart.
    pub fn from_relationship(rel: &pasoa_core::passertion::RelationshipPAssertion) -> Self {
        EdgeRecord {
            effect: rel.effect.clone(),
            causes: rel.causes.iter().map(|(_, data)| data.clone()).collect(),
            relation: rel.relation.clone(),
        }
    }

    /// The stored form of an adjacency entry's value — with [`Self::from_stored`], the only
    /// place that knows it.
    pub(crate) fn to_stored(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("edge record serializes")
    }

    pub(crate) fn from_stored(value: &[u8]) -> Result<Self, StoreError> {
        serde_json::from_slice(value).map_err(corrupt)
    }
}

/// The global sort key of assertion `seq` of `interaction`: `"<escaped interaction>/<seq>"`.
/// Appending it to `"a/"` yields the primary key; index keys embed it verbatim, so index scans
/// and primary scans order identically.
pub fn sort_key(interaction: &str, seq: u64) -> String {
    format!("{}/{seq:012}", keys::escape_component(interaction))
}

/// The primary assertion key a sort key points at.
pub fn assertion_key_for_sort_key(sort_key: &str) -> Vec<u8> {
    format!("{}{sort_key}", keys::ASSERTION_PREFIX).into_bytes()
}

/// By-session index key of the assertion `sort_key` points at, recorded under `session`.
pub fn session_entry_key(session: &str, sort_key: &str) -> Vec<u8> {
    format!(
        "{SESSION_IDX_PREFIX}{}/{sort_key}",
        keys::escape_component(session)
    )
    .into_bytes()
}

/// Prefix of all by-session index entries of `session`.
pub fn session_entry_prefix(session: &str) -> Vec<u8> {
    format!("{SESSION_IDX_PREFIX}{}/", keys::escape_component(session)).into_bytes()
}

/// Adjacency index key for the edge produced by assertion `seq` with effect `effect` under
/// `session`.
pub fn edge_entry_key(session: &str, effect: &str, seq: u64) -> Vec<u8> {
    format!(
        "{EDGE_IDX_PREFIX}{}/{}/{seq:012}",
        keys::escape_component(session),
        keys::escape_component(effect)
    )
    .into_bytes()
}

/// Prefix of all adjacency entries of `session`.
pub fn edge_session_prefix(session: &str) -> Vec<u8> {
    format!("{EDGE_IDX_PREFIX}{}/", keys::escape_component(session)).into_bytes()
}

/// Prefix of the adjacency entries of one `(session, effect)` pair — the backward-traversal
/// lookup a lineage closure performs per visited node.
pub fn edge_effect_prefix(session: &str, effect: &str) -> Vec<u8> {
    format!(
        "{EDGE_IDX_PREFIX}{}/{}/",
        keys::escape_component(session),
        keys::escape_component(effect)
    )
    .into_bytes()
}

/// Derive the sort key a key carries after `prefix`: an index entry's scan prefix, or `a/`
/// for a primary assertion key.
pub fn sort_key_from_entry(entry_key: &[u8], prefix: &[u8]) -> Option<String> {
    if !entry_key.starts_with(prefix) {
        return None;
    }
    std::str::from_utf8(&entry_key[prefix.len()..])
        .ok()
        .map(str::to_string)
}

/// Stage the index entries of one recorded assertion into `entries`, in crash-detectable
/// group order: the edge entry (if any), then the by-session entry last — the sentinel whose
/// count proves the whole group landed. The caller must have staged the assertion document
/// and its interaction marker first.
pub fn stage_assertion_entries(
    entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    recorded: &RecordedAssertion,
    seq: u64,
) {
    let session = recorded.session.as_str();
    if let PAssertion::Relationship(rel) = &recorded.assertion {
        let edge = EdgeRecord::from_relationship(rel);
        entries.push((
            edge_entry_key(session, rel.effect.as_str(), seq),
            edge.to_stored(),
        ));
    }
    let sort = sort_key(recorded.assertion.interaction_key().as_str(), seq);
    entries.push((session_entry_key(session, &sort), Vec::new()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::{ActorId, InteractionKey, SessionId};
    use pasoa_core::passertion::RelationshipPAssertion;

    #[test]
    fn sort_keys_roundtrip_with_primary_keys() {
        let sort = sort_key("interaction:run/7", 42);
        let primary = assertion_key_for_sort_key(&sort);
        assert_eq!(primary, keys::assertion_key("interaction:run/7", 42));
        let base = keys::ASSERTION_PREFIX.as_bytes();
        assert_eq!(sort_key_from_entry(&primary, base).unwrap(), sort);
        assert_eq!(sort_key_from_entry(b"g/nope", base), None);
    }

    #[test]
    fn index_entry_keys_sort_like_primary_keys() {
        let entry = |sort: String| session_entry_key("session:1", &sort);
        let a = entry(sort_key("interaction:1", 5));
        let b = entry(sort_key("interaction:1", 50));
        let c = entry(sort_key("interaction:2", 0));
        assert!(a < b && b < c);
        assert!(a.starts_with(&session_entry_prefix("session:1")));
        assert!(!a.starts_with(&session_entry_prefix("session:10")));
    }

    #[test]
    fn sort_key_recovered_from_entry_keys() {
        let sort = sort_key("interaction:9", 3);
        let prefix = session_entry_prefix("session:9");
        let entry = session_entry_key("session:9", &sort);
        assert_eq!(sort_key_from_entry(&entry, &prefix).unwrap(), sort);
        assert_eq!(sort_key_from_entry(&entry, b"x/s/other/"), None);
    }

    #[test]
    fn marker_payload_roundtrip() {
        assert!(IndexMarker::payload_is_current(
            &IndexMarker::current().payload()
        ));
        assert!(!IndexMarker::payload_is_current(
            &IndexMarker::disabled().payload()
        ));
        assert!(!IndexMarker::payload_is_current(b"garbage"));
    }

    #[test]
    fn relationship_assertions_stage_the_edge_before_the_session_entry() {
        let recorded = RecordedAssertion {
            session: SessionId::new("session:e"),
            assertion: PAssertion::Relationship(RelationshipPAssertion {
                interaction_key: InteractionKey::new("interaction:1"),
                asserter: ActorId::new("gzip"),
                effect: DataId::new("data:out"),
                causes: vec![(InteractionKey::new("interaction:0"), DataId::new("data:in"))],
                relation: "compressed-from".into(),
            }),
        };
        let mut entries = Vec::new();
        stage_assertion_entries(&mut entries, &recorded, 7);
        // edge, then session — session last (the crash-detection sentinel).
        assert_eq!(entries.len(), 2);
        assert!(entries[0].0.starts_with(EDGE_IDX_PREFIX.as_bytes()));
        assert!(entries[1].0.starts_with(SESSION_IDX_PREFIX.as_bytes()));
        let edge = EdgeRecord::from_stored(&entries[0].1).unwrap();
        assert_eq!(edge.effect, DataId::new("data:out"));
        assert_eq!(edge.causes, vec![DataId::new("data:in")]);
        assert_eq!(edge.relation, "compressed-from");
    }
}

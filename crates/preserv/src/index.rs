//! Secondary-index keyspaces of the provenance store.
//!
//! The paper makes provenance *recording* cheap but leaves *querying* as bulk retrieval; these
//! indexes close that gap. Each keyspace lives in the same [`crate::StorageBackend`] as the
//! primary documents, so the backend's durability and crash-recovery guarantees cover index
//! entries exactly as they cover p-assertions:
//!
//! ```text
//! a/<interaction>/<seq>                  → the p-assertion, packed (the primary keyspace; see
//!                                          `pasoa_core::prepwire::encode_document`)
//! x/!v                                   → index version marker (JSON)
//! x/s/<session>/<interaction>/<seq>      → "" (by-session assertion index)
//! x/a/<actor>/<interaction>/<seq>        → "" (by-actor assertion index)
//! x/r/<relation>/<interaction>/<seq>     → "" (by-relation assertion index)
//! x/e/<session>/<effect>/<seq>           → EdgeRecord (lineage adjacency index)
//! ```
//!
//! All components are escaped with [`keys::escape_component`], and `<seq>` keeps the primary
//! key's zero-padded formatting, so every index scan yields entries in the exact
//! `(escaped interaction, seq)` order the primary `a/` keyspace uses — which is what makes
//! indexed answers bit-identical to scan answers.
//!
//! ## Crash consistency
//!
//! Index entries are staged *after* their assertion document inside the same backend batch,
//! with the by-actor entry staged last in each per-assertion group. A power loss that truncates
//! the log mid-batch can therefore leave an assertion without some of its index entries, but
//! never an index entry without its assertion. The open-time consistency check exploits this:
//! the index is consistent iff the version marker is current **and** the by-session and
//! by-actor entry counts both equal the assertion count (a truncated group always shorts one of
//! them). On mismatch the store rebuilds every index keyspace from the primary `a/` scan before
//! serving — a stale index is never consulted.

use serde::{Deserialize, Serialize};

use pasoa_core::ids::DataId;
use pasoa_core::passertion::{PAssertion, RecordedAssertion};

use crate::keys;
use crate::store::{corrupt, StoreError};

/// Key of the index version marker.
pub const VERSION_KEY: &[u8] = b"x/!v";
/// Prefix of by-session index entries.
pub const SESSION_IDX_PREFIX: &str = "x/s/";
/// Prefix of by-actor index entries.
pub const ACTOR_IDX_PREFIX: &str = "x/a/";
/// Prefix of by-relation index entries.
pub const RELATION_IDX_PREFIX: &str = "x/r/";
/// Prefix of lineage adjacency (edge) index entries.
pub const EDGE_IDX_PREFIX: &str = "x/e/";

/// Current index layout version. Bumping it forces a rebuild on the next open.
pub const CURRENT_VERSION: u32 = 1;

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

/// Key of the entry for the assertion `sort_key` points at, under `component` (a session,
/// actor or relation) of the assertion-index keyspace `keyspace` (`x/s/`, `x/a/` or `x/r/`).
pub fn entry_key(keyspace: &str, component: &str, sort_key: &str) -> Vec<u8> {
    format!("{keyspace}{}/{sort_key}", keys::escape_component(component)).into_bytes()
}

/// Prefix of all entries of `component` in the assertion-index keyspace `keyspace`.
pub fn entry_prefix(keyspace: &str, component: &str) -> Vec<u8> {
    format!("{keyspace}{}/", keys::escape_component(component)).into_bytes()
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
/// group order: by-session first, then edge and relation entries (if any), then the by-actor
/// entry last — the sentinel whose count proves the whole group landed. The caller must have
/// staged the assertion document itself first.
pub fn stage_assertion_entries(
    entries: &mut Vec<(Vec<u8>, Vec<u8>)>,
    recorded: &RecordedAssertion,
    seq: u64,
) {
    let interaction = recorded.assertion.interaction_key().as_str();
    let sort = sort_key(interaction, seq);
    let session = recorded.session.as_str();
    entries.push((entry_key(SESSION_IDX_PREFIX, session, &sort), Vec::new()));
    if let PAssertion::Relationship(rel) = &recorded.assertion {
        let edge = EdgeRecord::from_relationship(rel);
        entries.push((
            edge_entry_key(session, rel.effect.as_str(), seq),
            edge.to_stored(),
        ));
        let relation = entry_key(RELATION_IDX_PREFIX, &rel.relation, &sort);
        entries.push((relation, Vec::new()));
    }
    let actor = recorded.assertion.asserter().as_str();
    entries.push((entry_key(ACTOR_IDX_PREFIX, actor, &sort), Vec::new()));
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
        let entry = |sort: String| entry_key(SESSION_IDX_PREFIX, "session:1", &sort);
        let a = entry(sort_key("interaction:1", 5));
        let b = entry(sort_key("interaction:1", 50));
        let c = entry(sort_key("interaction:2", 0));
        assert!(a < b && b < c);
        assert!(a.starts_with(&entry_prefix(SESSION_IDX_PREFIX, "session:1")));
        assert!(!a.starts_with(&entry_prefix(SESSION_IDX_PREFIX, "session:10")));
    }

    #[test]
    fn sort_key_recovered_from_entry_keys() {
        let sort = sort_key("interaction:9", 3);
        let prefix = entry_prefix(ACTOR_IDX_PREFIX, "engine");
        let entry = entry_key(ACTOR_IDX_PREFIX, "engine", &sort);
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
    fn relationship_assertions_stage_edge_and_relation_entries() {
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
        // session, edge, relation, actor — actor last (the crash-detection sentinel).
        assert_eq!(entries.len(), 4);
        assert!(entries[0].0.starts_with(SESSION_IDX_PREFIX.as_bytes()));
        assert!(entries[1].0.starts_with(EDGE_IDX_PREFIX.as_bytes()));
        assert!(entries[2].0.starts_with(RELATION_IDX_PREFIX.as_bytes()));
        assert!(entries[3].0.starts_with(ACTOR_IDX_PREFIX.as_bytes()));
        let edge = EdgeRecord::from_stored(&entries[1].1).unwrap();
        assert_eq!(edge.effect, DataId::new("data:out"));
        assert_eq!(edge.causes, vec![DataId::new("data:in")]);
        assert_eq!(edge.relation, "compressed-from");
    }
}

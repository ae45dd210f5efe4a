//! P-assertions: the elements of process documentation.
//!
//! "We refer to a given element of the documentation of process as a p-assertion: an assertion,
//! by an actor, pertaining to the provenance of some data." The paper defines two kinds —
//! interaction p-assertions and actor state p-assertions — and requires that provenance link
//! inputs to outputs unambiguously, which the relationship p-assertion captures explicitly.

use serde::{Deserialize, Serialize};

use crate::ids::{ActorId, DataId, InteractionKey, SessionId};

/// Which side of an interaction an asserting actor was on. Both parties document their own
/// view, which is what lets a later reasoner cross-check that the message the sender claims to
/// have sent is the message the receiver claims to have received.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ViewKind {
    /// The asserting actor sent the message.
    Sender,
    /// The asserting actor received the message.
    Receiver,
}

impl ViewKind {
    /// The opposite view.
    pub fn other(self) -> Self {
        match self {
            ViewKind::Sender => ViewKind::Receiver,
            ViewKind::Receiver => ViewKind::Sender,
        }
    }

    /// Short name used in store keys.
    pub fn as_str(self) -> &'static str {
        match self {
            ViewKind::Sender => "sender",
            ViewKind::Receiver => "receiver",
        }
    }
}

/// The content of a p-assertion: an arbitrary structured document.
///
/// The paper stresses that "arbitrary pieces of data (such as scripts themselves) may have to
/// be submitted"; content is therefore free-form, carried as either plain text or a JSON value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PAssertionContent {
    /// Free text (scripts, command lines, FASTA fragments, ...).
    Text(String),
    /// Structured data.
    Structured(serde_json::Value),
}

impl PAssertionContent {
    /// Wrap free text.
    pub fn text(value: impl Into<String>) -> Self {
        PAssertionContent::Text(value.into())
    }

    /// Wrap a serializable value as structured content.
    pub fn structured<T: Serialize>(value: &T) -> Self {
        PAssertionContent::Structured(
            serde_json::to_value(value).expect("content serialization cannot fail"),
        )
    }

    /// Approximate size of the content in bytes — recorded in store statistics and used by the
    /// benchmarks to report message sizes.
    pub fn byte_len(&self) -> usize {
        match self {
            PAssertionContent::Text(t) => t.len(),
            PAssertionContent::Structured(v) => v.to_string().len(),
        }
    }

    /// The content as text, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            PAssertionContent::Text(t) => Some(t),
            PAssertionContent::Structured(_) => None,
        }
    }
}

/// An interaction p-assertion: documentation of a message exchanged between two actors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractionPAssertion {
    /// The interaction this assertion documents.
    pub interaction_key: InteractionKey,
    /// The actor making the assertion.
    pub asserter: ActorId,
    /// Whether the asserter was the sender or the receiver.
    pub view: ViewKind,
    /// The actor that sent the documented message.
    pub sender: ActorId,
    /// The actor that received the documented message.
    pub receiver: ActorId,
    /// The operation or activity the message requested (e.g. "encode-by-groups").
    pub operation: String,
    /// Documentation of the message content itself.
    pub content: PAssertionContent,
    /// Identifiers of the data items carried by the message, for lineage tracking.
    pub data_ids: Vec<DataId>,
}

/// The kind of internal state an actor is documenting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActorStateKind {
    /// The script (or command line) the actor executed — needed by use case 1, which must
    /// detect that "the algorithms used to process the sequence data \[have\] been changed".
    Script,
    /// The workflow definition under execution.
    Workflow,
    /// Resource usage (CPU, disk, memory).
    ResourceUsage,
    /// Configuration parameters of the activity.
    Configuration,
    /// Anything else, labelled freely.
    Other(String),
}

impl ActorStateKind {
    /// Short label used in store keys and result tables.
    pub fn label(&self) -> &str {
        match self {
            ActorStateKind::Script => "script",
            ActorStateKind::Workflow => "workflow",
            ActorStateKind::ResourceUsage => "resource-usage",
            ActorStateKind::Configuration => "configuration",
            ActorStateKind::Other(name) => name,
        }
    }
}

/// An actor state p-assertion: documentation an actor provides about its internal state in the
/// context of a specific interaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActorStatePAssertion {
    /// The interaction in whose context the state is documented.
    pub interaction_key: InteractionKey,
    /// The actor making the assertion.
    pub asserter: ActorId,
    /// The asserter's view of the interaction.
    pub view: ViewKind,
    /// What aspect of internal state this documents.
    pub kind: ActorStateKind,
    /// The documentation itself.
    pub content: PAssertionContent,
}

/// A relationship p-assertion: the asserting actor states that an output data item was derived
/// from a set of input data items.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationshipPAssertion {
    /// The interaction in which the output was produced (the actor's outgoing message).
    pub interaction_key: InteractionKey,
    /// The actor making the assertion.
    pub asserter: ActorId,
    /// The output data item.
    pub effect: DataId,
    /// The input data items it was derived from, with the interactions that delivered them.
    pub causes: Vec<(InteractionKey, DataId)>,
    /// The nature of the derivation (e.g. "compressed-from", "encoded-from", "collated-from").
    pub relation: String,
}

/// Any p-assertion, tagged with the session (workflow run) it belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PAssertion {
    /// Documentation of a message exchange.
    Interaction(InteractionPAssertion),
    /// Documentation of internal actor state.
    ActorState(ActorStatePAssertion),
    /// Documentation of a data derivation.
    Relationship(RelationshipPAssertion),
}

impl PAssertion {
    /// The interaction key this assertion is attached to.
    pub fn interaction_key(&self) -> &InteractionKey {
        match self {
            PAssertion::Interaction(a) => &a.interaction_key,
            PAssertion::ActorState(a) => &a.interaction_key,
            PAssertion::Relationship(a) => &a.interaction_key,
        }
    }

    /// The asserting actor.
    pub fn asserter(&self) -> &ActorId {
        match self {
            PAssertion::Interaction(a) => &a.asserter,
            PAssertion::ActorState(a) => &a.asserter,
            PAssertion::Relationship(a) => &a.asserter,
        }
    }

    /// Approximate size of the assertion's content in bytes.
    pub fn content_len(&self) -> usize {
        match self {
            PAssertion::Interaction(a) => a.content.byte_len(),
            PAssertion::ActorState(a) => a.content.byte_len(),
            PAssertion::Relationship(a) => a.causes.len() * 16 + a.effect.as_str().len(),
        }
    }
}

/// A p-assertion together with the session it was recorded under — the unit the PReP record
/// message carries and the store persists.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedAssertion {
    /// The session (workflow run) grouping.
    pub session: SessionId,
    /// The assertion itself.
    pub assertion: PAssertion,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_interaction() -> InteractionPAssertion {
        InteractionPAssertion {
            interaction_key: InteractionKey::new("interaction:r:1"),
            asserter: ActorId::new("workflow-engine"),
            view: ViewKind::Sender,
            sender: ActorId::new("workflow-engine"),
            receiver: ActorId::new("gzip-compressor"),
            operation: "compress".into(),
            content: PAssertionContent::text("sample bytes: MKVL..."),
            data_ids: vec![DataId::new("data:r:7")],
        }
    }

    #[test]
    fn view_kind_other_and_labels() {
        assert_eq!(ViewKind::Sender.other(), ViewKind::Receiver);
        assert_eq!(ViewKind::Receiver.other(), ViewKind::Sender);
        assert_eq!(ViewKind::Sender.as_str(), "sender");
        assert_eq!(ViewKind::Receiver.as_str(), "receiver");
    }

    #[test]
    fn content_byte_len_and_text_access() {
        let text = PAssertionContent::text("gzip -9");
        assert_eq!(text.byte_len(), 7);
        assert_eq!(text.as_text(), Some("gzip -9"));
        let structured = PAssertionContent::structured(&serde_json::json!({"cpu_ms": 120}));
        assert!(structured.byte_len() > 0);
        assert_eq!(structured.as_text(), None);
    }

    #[test]
    fn actor_state_kind_labels() {
        assert_eq!(ActorStateKind::Script.label(), "script");
        assert_eq!(ActorStateKind::Workflow.label(), "workflow");
        assert_eq!(ActorStateKind::ResourceUsage.label(), "resource-usage");
        assert_eq!(ActorStateKind::Configuration.label(), "configuration");
        assert_eq!(
            ActorStateKind::Other("queue-depth".into()).label(),
            "queue-depth"
        );
    }

    #[test]
    fn passertion_accessors() {
        let interaction = PAssertion::Interaction(sample_interaction());
        assert_eq!(interaction.asserter().as_str(), "workflow-engine");
        assert_eq!(interaction.interaction_key().as_str(), "interaction:r:1");
        assert!(interaction.content_len() > 0);

        let state = PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: InteractionKey::new("interaction:r:1"),
            asserter: ActorId::new("gzip-compressor"),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text("#!/bin/sh\ngzip -9 $1"),
        });
        assert_eq!(state.asserter().as_str(), "gzip-compressor");

        let rel = PAssertion::Relationship(RelationshipPAssertion {
            interaction_key: InteractionKey::new("interaction:r:2"),
            asserter: ActorId::new("gzip-compressor"),
            effect: DataId::new("data:r:9"),
            causes: vec![(
                InteractionKey::new("interaction:r:1"),
                DataId::new("data:r:7"),
            )],
            relation: "compressed-from".into(),
        });
        assert!(rel.content_len() > 0);
    }

    #[test]
    fn serde_roundtrip_of_every_kind() {
        let assertions = vec![
            PAssertion::Interaction(sample_interaction()),
            PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: InteractionKey::new("interaction:r:1"),
                asserter: ActorId::new("a"),
                view: ViewKind::Sender,
                kind: ActorStateKind::Other("custom".into()),
                content: PAssertionContent::structured(&vec![1, 2, 3]),
            }),
            PAssertion::Relationship(RelationshipPAssertion {
                interaction_key: InteractionKey::new("interaction:r:3"),
                asserter: ActorId::new("b"),
                effect: DataId::new("data:1"),
                causes: vec![],
                relation: "derived".into(),
            }),
        ];
        for a in assertions {
            let recorded = RecordedAssertion {
                session: SessionId::new("session:r:0"),
                assertion: a,
            };
            let json = serde_json::to_string(&recorded).unwrap();
            let back: RecordedAssertion = serde_json::from_str(&json).unwrap();
            assert_eq!(back, recorded);
        }
    }

    #[test]
    fn both_views_of_one_interaction_share_the_key() {
        let sender_view = sample_interaction();
        let receiver_view = InteractionPAssertion {
            asserter: ActorId::new("gzip-compressor"),
            view: ViewKind::Receiver,
            ..sender_view.clone()
        };
        assert_eq!(sender_view.interaction_key, receiver_view.interaction_key);
        assert_ne!(sender_view.asserter, receiver_view.asserter);
    }
}

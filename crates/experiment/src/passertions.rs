//! Pre-generated protocol messages for micro-benchmarks.
//!
//! The paper benchmarks PReServ in isolation: "It takes approximately 18 ms round trip to
//! record one pre-generated message in PReServ." These helpers build representative record
//! messages (one interaction p-assertion plus a ~100-byte script actor-state p-assertion, the
//! mix the application produces) so the micro-benchmark check, the ablations example and the
//! figure harnesses can submit realistic payloads without running the whole workflow.

use pasoa_core::ids::{ActorId, DataId, IdGenerator, InteractionKey, SessionId};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RecordedAssertion, ViewKind,
};
use pasoa_core::prep::{PrepMessage, RecordMessage};

/// A realistic ~100-byte script body, as recorded by the compression services.
pub fn sample_script(permutation: usize) -> String {
    format!(
        "#!/bin/sh\n# measure permutation {permutation}\ngzip -9 < $PERM > $PERM.gz\nppmz -o3 < $PERM > $PERM.ppmz\nwc -c $PERM.*"
    )
}

/// One interaction p-assertion documenting a compression invocation.
pub fn interaction_assertion(
    session: &SessionId,
    interaction: InteractionKey,
    permutation: usize,
) -> RecordedAssertion {
    RecordedAssertion {
        session: session.clone(),
        assertion: PAssertion::Interaction(InteractionPAssertion {
            interaction_key: interaction,
            asserter: ActorId::new("measure-workflow"),
            view: ViewKind::Sender,
            sender: ActorId::new("measure-workflow"),
            receiver: ActorId::new("gzip-compression"),
            operation: "gzip-compress".into(),
            content: PAssertionContent::text(format!(
                "compress permutation {permutation} of encoded sample (102400 bytes)"
            )),
            data_ids: vec![DataId::new(format!("data:permutation:{permutation}"))],
        }),
    }
}

/// One actor-state p-assertion carrying the executed script (~100 bytes of content).
pub fn script_assertion(
    session: &SessionId,
    interaction: InteractionKey,
    permutation: usize,
) -> RecordedAssertion {
    RecordedAssertion {
        session: session.clone(),
        assertion: PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: interaction,
            asserter: ActorId::new("gzip-compression"),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(sample_script(permutation)),
        }),
    }
}

/// A pre-generated record message holding one interaction record (interaction p-assertion plus
/// its script actor-state p-assertion) — the unit the paper's micro-benchmark submits.
#[cfg(test)]
pub(crate) fn pregenerated_record_message(ids: &IdGenerator, permutation: usize) -> PrepMessage {
    let session = SessionId::new("session:microbench");
    let interaction = ids.interaction_key();
    PrepMessage::Record(RecordMessage {
        message_id: ids.message_id(),
        asserter: ActorId::new("measure-workflow"),
        assertions: vec![
            interaction_assertion(&session, interaction.clone(), permutation),
            script_assertion(&session, interaction, permutation),
        ],
    })
}

/// Populate a store (through its service interface) with `count` interaction records, each
/// carrying a script actor-state p-assertion — the store contents Figure 5 is measured against.
pub fn populate_interactions(
    transport: &pasoa_wire::Transport,
    batch_label: &str,
    sessions: usize,
    interactions_per_session: usize,
) -> Vec<SessionId> {
    let ids = IdGenerator::new(format!("populate-{batch_label}"));
    let mut session_ids = Vec::new();
    for s in 0..sessions {
        let session = SessionId::new(format!("session:figure5:{batch_label}:{s}"));
        session_ids.push(session.clone());
        for i in 0..interactions_per_session {
            let interaction = ids.interaction_key();
            let message = PrepMessage::Record(RecordMessage {
                message_id: ids.message_id(),
                asserter: ActorId::new("measure-workflow"),
                assertions: vec![
                    interaction_assertion(&session, interaction.clone(), i),
                    script_assertion(&session, interaction, i % 3),
                ],
            });
            let envelope = pasoa_wire::Envelope::request(
                pasoa_core::PROVENANCE_STORE_SERVICE,
                message.action(),
            )
            .with_json_payload(&message)
            .expect("serializable");
            transport.call(envelope).expect("store reachable");
        }
    }
    session_ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_preserv::PreservService;
    use pasoa_wire::{ServiceHost, TransportConfig};
    use std::sync::Arc;

    #[test]
    fn sample_script_is_about_a_hundred_bytes() {
        let script = sample_script(42);
        assert!(
            script.len() >= 80 && script.len() <= 160,
            "script is {} bytes",
            script.len()
        );
        assert!(script.contains("gzip"));
        assert!(script.contains("ppmz"));
    }

    /// The paper's micro-benchmark unit: two p-assertions, and ≈18 ms to record under the
    /// paper-2005 latency model (charged on the virtual clock, so the figure is exact).
    #[test]
    fn pregenerated_message_carries_two_assertions() {
        let ids = IdGenerator::new("t");
        let message = pregenerated_record_message(&ids, 7);
        match &message {
            PrepMessage::Record(msg) => {
                assert_eq!(msg.len(), 2);
                assert!(matches!(
                    msg.assertions[0].assertion,
                    PAssertion::Interaction(_)
                ));
                assert!(matches!(
                    msg.assertions[1].assertion,
                    PAssertion::ActorState(_)
                ));
            }
            other => panic!("unexpected message {other:?}"),
        }

        let service = Arc::new(PreservService::in_memory().unwrap());
        let host = ServiceHost::new();
        service.register(&host);
        let transport = host.transport(TransportConfig::virtual_time(
            pasoa_wire::NetworkProfile::Paper2005.latency_model(),
        ));
        let envelope =
            pasoa_wire::Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, message.action())
                .with_json_payload(&message)
                .unwrap();
        transport.call(envelope).unwrap();
        let stats = transport.stats();
        let round_trip = std::time::Duration::from_nanos(stats.modelled_nanos / stats.calls);
        assert!(
            round_trip >= std::time::Duration::from_millis(16)
                && round_trip <= std::time::Duration::from_millis(20),
            "modelled record round trip {round_trip:?}, the paper reports ~18 ms"
        );
    }

    #[test]
    fn populate_fills_the_store_with_script_records() {
        let service = Arc::new(PreservService::in_memory().unwrap());
        let host = ServiceHost::new();
        service.register(&host);
        let transport = host.transport(TransportConfig::free());
        let sessions = populate_interactions(&transport, "t", 3, 10);
        assert_eq!(sessions.len(), 3);
        let stats = service.store().statistics();
        assert_eq!(stats.interactions, 30);
        assert_eq!(stats.interaction_passertions, 30);
        assert_eq!(stats.actor_state_passertions, 30);
    }
}

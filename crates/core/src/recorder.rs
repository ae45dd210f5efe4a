//! Client-side recording strategies.
//!
//! PReP "lets the implementor decide when" to record: the paper's Figure 4 compares running the
//! workflow with no recording at all, with synchronous recording (each p-assertion shipped to
//! PReServ as it is produced) and with asynchronous recording (p-assertions accumulated locally
//! and shipped after execution). The [`ProvenanceRecorder`] trait abstracts over those
//! strategies so the workflow engine and the application are completely unaware of which is in
//! use — that independence is the inter-operability argument of the paper.

use std::sync::Arc;

use pasoa_wire::envelope::header_names;
use pasoa_wire::{Envelope, Transport, WireError};

use crate::group::Group;
use crate::ids::{ActorId, IdGenerator, SessionId};
use crate::journal::{Journal, JournalEntry};
use crate::passertion::{PAssertion, RecordedAssertion};
use crate::prep::{PrepMessage, RecordAck, RecordMessage};
use crate::PROVENANCE_STORE_SERVICE;

/// Error produced while recording provenance.
#[derive(Debug)]
pub enum RecordError {
    /// The wire layer failed (store unreachable, fault, ...).
    Wire(WireError),
    /// The store rejected part of a submission.
    Rejected(Vec<String>),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Wire(e) => write!(f, "recording failed: {e}"),
            RecordError::Rejected(reasons) => {
                write!(f, "store rejected {} assertion(s)", reasons.len())
            }
        }
    }
}

impl std::error::Error for RecordError {}

impl From<WireError> for RecordError {
    fn from(e: WireError) -> Self {
        RecordError::Wire(e)
    }
}

/// How p-assertions are delivered to the store — the independent variable of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum RecordingMode {
    /// No provenance is recorded at all.
    None,
    /// P-assertions accumulate in a local journal and are shipped after execution.
    Asynchronous,
    /// Every p-assertion is shipped to the store as it is produced.
    Synchronous,
}

impl RecordingMode {
    /// Human-readable label used in result tables (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            RecordingMode::None => "no recording",
            RecordingMode::Asynchronous => "asynchronous recording",
            RecordingMode::Synchronous => "synchronous recording",
        }
    }
}

/// A destination for provenance documentation.
///
/// Implementations must be shareable across threads because workflow activities run in
/// parallel and all document their own interactions.
pub trait ProvenanceRecorder: Send + Sync {
    /// The session (workflow run) this recorder documents.
    fn session(&self) -> &SessionId;

    /// Record one p-assertion.
    fn record(&self, assertion: PAssertion) -> Result<(), RecordError>;

    /// Register (or extend) a group.
    fn register_group(&self, group: Group) -> Result<(), RecordError>;

    /// Ship any locally accumulated documentation to the store. Synchronous recorders have
    /// nothing to do here.
    fn flush(&self) -> Result<(), RecordError>;

    /// The delivery mode this recorder implements.
    fn mode(&self) -> RecordingMode;
}

/// Recorder that discards everything — the paper's "no recording" baseline.
#[derive(Debug)]
pub struct NullRecorder {
    session: SessionId,
}

impl NullRecorder {
    /// Create a null recorder for `session`.
    pub fn new(session: SessionId) -> Self {
        NullRecorder { session }
    }
}

impl ProvenanceRecorder for NullRecorder {
    fn session(&self) -> &SessionId {
        &self.session
    }

    fn record(&self, _assertion: PAssertion) -> Result<(), RecordError> {
        // Intentionally does not even count content bytes: the baseline must not pay for
        // documentation it does not produce.
        Ok(())
    }

    fn register_group(&self, _group: Group) -> Result<(), RecordError> {
        Ok(())
    }

    fn flush(&self) -> Result<(), RecordError> {
        Ok(())
    }

    fn mode(&self) -> RecordingMode {
        RecordingMode::None
    }
}

fn send_record(
    transport: &Transport,
    ids: &IdGenerator,
    asserter: &ActorId,
    assertions: Vec<RecordedAssertion>,
) -> Result<(), RecordError> {
    let message = RecordMessage {
        message_id: ids.message_id(),
        asserter: asserter.clone(),
        assertions,
    };
    let prep = PrepMessage::Record(message);
    let envelope = Envelope::request(PROVENANCE_STORE_SERVICE, prep.action())
        .with_header(header_names::SENDER, asserter.as_str())
        .with_json_payload(&prep)?;
    let response = transport.call(envelope)?;
    let ack: RecordAck = response.json_payload()?;
    if ack.fully_accepted() {
        Ok(())
    } else {
        Err(RecordError::Rejected(ack.rejected))
    }
}

fn send_group(transport: &Transport, asserter: &ActorId, group: Group) -> Result<(), RecordError> {
    let prep = PrepMessage::RegisterGroup(group);
    let envelope = Envelope::request(PROVENANCE_STORE_SERVICE, prep.action())
        .with_header(header_names::SENDER, asserter.as_str())
        .with_json_payload(&prep)?;
    transport.call(envelope)?;
    Ok(())
}

/// Recorder that ships every p-assertion to the store as soon as it is produced.
pub struct SyncRecorder {
    session: SessionId,
    asserter: ActorId,
    transport: Transport,
    ids: IdGenerator,
}

impl SyncRecorder {
    /// Create a synchronous recorder submitting on behalf of `asserter`.
    pub fn new(
        session: SessionId,
        asserter: ActorId,
        transport: Transport,
        ids: IdGenerator,
    ) -> Self {
        SyncRecorder {
            session,
            asserter,
            transport,
            ids,
        }
    }
}

impl ProvenanceRecorder for SyncRecorder {
    fn session(&self) -> &SessionId {
        &self.session
    }

    fn record(&self, assertion: PAssertion) -> Result<(), RecordError> {
        let recorded = RecordedAssertion {
            session: self.session.clone(),
            assertion,
        };
        send_record(&self.transport, &self.ids, &self.asserter, vec![recorded])
    }

    fn register_group(&self, group: Group) -> Result<(), RecordError> {
        send_group(&self.transport, &self.asserter, group)
    }

    fn flush(&self) -> Result<(), RecordError> {
        Ok(())
    }

    fn mode(&self) -> RecordingMode {
        RecordingMode::Synchronous
    }
}

/// Recorder that accumulates p-assertions in a local [`Journal`] and ships them in batches when
/// [`ProvenanceRecorder::flush`] is called (normally once, after the workflow completes).
pub struct AsyncRecorder {
    session: SessionId,
    asserter: ActorId,
    transport: Transport,
    ids: IdGenerator,
    journal: Arc<Journal>,
    batch_size: usize,
}

impl AsyncRecorder {
    /// Create an asynchronous recorder with the given flush batch size.
    pub fn new(
        session: SessionId,
        asserter: ActorId,
        transport: Transport,
        ids: IdGenerator,
        batch_size: usize,
    ) -> Self {
        AsyncRecorder {
            session,
            asserter,
            transport,
            ids,
            journal: Arc::new(Journal::new()),
            batch_size: batch_size.max(1),
        }
    }

    /// The journal backing this recorder (exposed so the experiment can persist it to a file,
    /// mirroring the paper's "accumulated locally in a file before being shipped").
    pub fn journal(&self) -> Arc<Journal> {
        Arc::clone(&self.journal)
    }

    /// Number of entries waiting to be shipped.
    pub fn pending(&self) -> usize {
        self.journal.len()
    }
}

impl ProvenanceRecorder for AsyncRecorder {
    fn session(&self) -> &SessionId {
        &self.session
    }

    fn record(&self, assertion: PAssertion) -> Result<(), RecordError> {
        self.journal.push_assertion(RecordedAssertion {
            session: self.session.clone(),
            assertion,
        });
        Ok(())
    }

    fn register_group(&self, group: Group) -> Result<(), RecordError> {
        self.journal.push_group(group);
        Ok(())
    }

    fn flush(&self) -> Result<(), RecordError> {
        let entries = self.journal.drain();
        let mut assertions = Vec::new();
        let mut groups = Vec::new();
        for entry in entries {
            match entry {
                JournalEntry::Assertion(a) => assertions.push(a),
                JournalEntry::Group(g) => groups.push(g),
            }
        }
        for group in groups {
            send_group(&self.transport, &self.asserter, group)?;
        }
        for chunk in assertions.chunks(self.batch_size) {
            send_record(&self.transport, &self.ids, &self.asserter, chunk.to_vec())?;
        }
        Ok(())
    }

    fn mode(&self) -> RecordingMode {
        RecordingMode::Asynchronous
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::InteractionKey;
    use crate::passertion::{ActorStateKind, ActorStatePAssertion, PAssertionContent, ViewKind};
    use pasoa_wire::{MessageHandler, ServiceHost, TransportConfig, WireResult, XmlElement};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A minimal in-test provenance store that accepts every record message.
    struct FakeStore {
        received: Arc<AtomicUsize>,
    }

    impl MessageHandler for FakeStore {
        fn handle(&self, request: Envelope) -> WireResult<Envelope> {
            match crate::prepwire::decode_request(&request)? {
                PrepMessage::Record(msg) => {
                    self.received.fetch_add(msg.len(), Ordering::SeqCst);
                    let ack = RecordAck {
                        message_id: msg.message_id,
                        accepted: msg.assertions.len(),
                        rejected: vec![],
                    };
                    crate::prepwire::ack_envelope(&request, &ack)
                }
                PrepMessage::RegisterGroup(_) => {
                    Ok(Envelope::response("register-group").with_body(XmlElement::new("ok")))
                }
                PrepMessage::Query(_) | PrepMessage::QueryPage(_) => {
                    Ok(Envelope::fault("queries unsupported in fake store"))
                }
            }
        }
    }

    fn fake_store() -> (ServiceHost, Arc<AtomicUsize>) {
        let host = ServiceHost::new();
        let received = Arc::new(AtomicUsize::new(0));
        host.register(
            PROVENANCE_STORE_SERVICE,
            Arc::new(FakeStore {
                received: Arc::clone(&received),
            }),
        );
        (host, received)
    }

    fn assertion(i: usize) -> PAssertion {
        PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: InteractionKey::new(format!("interaction:{i}")),
            asserter: ActorId::new("measure"),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(format!("gzip --permutation {i}")),
        })
    }

    #[test]
    fn null_recorder_accepts_and_discards() {
        let r = NullRecorder::new(SessionId::new("session:0"));
        r.record(assertion(1)).unwrap();
        r.register_group(Group::new("g", crate::group::GroupKind::Session))
            .unwrap();
        r.flush().unwrap();
        assert_eq!(r.mode(), RecordingMode::None);
        assert_eq!(r.session().as_str(), "session:0");
    }

    #[test]
    fn sync_recorder_sends_one_message_per_assertion() {
        let (host, received) = fake_store();
        let transport = host.transport(TransportConfig::free());
        let r = SyncRecorder::new(
            SessionId::new("session:1"),
            ActorId::new("workflow"),
            transport.clone(),
            IdGenerator::new("run"),
        );
        for i in 0..10 {
            r.record(assertion(i)).unwrap();
        }
        r.register_group(Group::new("session:1", crate::group::GroupKind::Session))
            .unwrap();
        assert_eq!(received.load(Ordering::SeqCst), 10);
        assert_eq!(transport.stats().calls, 11);
        assert_eq!(r.mode(), RecordingMode::Synchronous);
    }

    #[test]
    fn async_recorder_defers_until_flush() {
        let (host, received) = fake_store();
        let transport = host.transport(TransportConfig::free());
        let r = AsyncRecorder::new(
            SessionId::new("session:2"),
            ActorId::new("workflow"),
            transport.clone(),
            IdGenerator::new("run"),
            16,
        );
        for i in 0..40 {
            r.record(assertion(i)).unwrap();
        }
        r.register_group(Group::new("session:2", crate::group::GroupKind::Session))
            .unwrap();
        assert_eq!(
            received.load(Ordering::SeqCst),
            0,
            "nothing is sent before flush"
        );
        assert_eq!(r.pending(), 41);
        assert_eq!(transport.stats().calls, 0);

        r.flush().unwrap();
        assert_eq!(received.load(Ordering::SeqCst), 40);
        assert_eq!(r.pending(), 0);
        // 40 assertions in batches of 16 → 3 record messages, plus 1 group registration.
        assert_eq!(transport.stats().calls, 4);
        assert_eq!(r.mode(), RecordingMode::Asynchronous);
    }

    #[test]
    fn async_recorder_uses_fewer_messages_than_sync() {
        let (host, _) = fake_store();
        let sync_t = host.transport(TransportConfig::free());
        let async_t = host.transport(TransportConfig::free());
        let sync = SyncRecorder::new(
            SessionId::new("s"),
            ActorId::new("a"),
            sync_t.clone(),
            IdGenerator::new("r1"),
        );
        let asyn = AsyncRecorder::new(
            SessionId::new("s"),
            ActorId::new("a"),
            async_t.clone(),
            IdGenerator::new("r2"),
            64,
        );
        for i in 0..100 {
            sync.record(assertion(i)).unwrap();
            asyn.record(assertion(i)).unwrap();
        }
        asyn.flush().unwrap();
        assert!(async_t.stats().calls < sync_t.stats().calls);
    }

    #[test]
    fn recording_against_missing_store_is_an_error() {
        let host = ServiceHost::new(); // nothing registered
        let transport = host.transport(TransportConfig::free());
        let r = SyncRecorder::new(
            SessionId::new("s"),
            ActorId::new("a"),
            transport,
            IdGenerator::new("r"),
        );
        assert!(matches!(r.record(assertion(0)), Err(RecordError::Wire(_))));
    }

    #[test]
    fn mode_labels() {
        assert_eq!(RecordingMode::None.label(), "no recording");
        assert_eq!(
            RecordingMode::Asynchronous.label(),
            "asynchronous recording"
        );
        assert_eq!(RecordingMode::Synchronous.label(), "synchronous recording");
    }

    #[test]
    fn recorders_are_usable_from_many_threads() {
        let (host, received) = fake_store();
        let transport = host.transport(TransportConfig::free());
        let r: Arc<dyn ProvenanceRecorder> = Arc::new(AsyncRecorder::new(
            SessionId::new("s"),
            ActorId::new("a"),
            transport,
            IdGenerator::new("r"),
            32,
        ));
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    r.record(assertion(t * 100 + i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        r.flush().unwrap();
        assert_eq!(received.load(Ordering::SeqCst), 200);
    }
}

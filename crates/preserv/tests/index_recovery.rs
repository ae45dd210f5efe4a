//! Crash and torn-tail coverage for the secondary-index keyspaces.
//!
//! The kvdb layer already proves that a power loss truncates the log to a clean record
//! boundary. These tests prove the layer above: whatever prefix of a batch survives — an
//! assertion document with some or all of its marker and index entries missing — the store
//! must either find the index consistent or rebuild it at open, and **never serve a stale
//! index**: after every possible truncation point, indexed answers equal scan answers
//! bit-for-bit, and every surviving interaction is listed and counted.

use std::collections::BTreeSet;
use std::sync::Arc;

use pasoa_core::ids::{ActorId, DataId, InteractionKey, SessionId};
use pasoa_core::passertion::{
    InteractionPAssertion, PAssertion, PAssertionContent, RecordedAssertion,
    RelationshipPAssertion, ViewKind,
};
use pasoa_core::prep::{QueryRequest, QueryResponse};
use pasoa_preserv::{AccessPath, KvBackend, LineageGraph, ProvenanceStore};

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "preserv-index-recovery-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assertion(session: &str, i: usize) -> RecordedAssertion {
    let key = InteractionKey::new(format!("interaction:{session}:{i:03}"));
    let assertion = if i % 3 == 2 {
        PAssertion::Relationship(RelationshipPAssertion {
            interaction_key: key.clone(),
            asserter: ActorId::new("recoverer"),
            effect: DataId::new(format!("data:{session}:{i}")),
            causes: vec![(key, DataId::new(format!("data:{session}:{}", i - 1)))],
            relation: "derived-from".into(),
        })
    } else {
        PAssertion::Interaction(InteractionPAssertion {
            interaction_key: key,
            asserter: ActorId::new("recoverer"),
            view: ViewKind::Sender,
            sender: ActorId::new("recoverer"),
            receiver: ActorId::new("store"),
            operation: "record".into(),
            content: PAssertionContent::text(format!("payload {i}")),
            data_ids: vec![DataId::new(format!("data:{session}:{i}"))],
        })
    };
    RecordedAssertion {
        session: SessionId::new(session),
        assertion,
    }
}

/// Every query a truncated store can answer must agree between its index and the scan.
fn assert_index_equals_scan(store: &ProvenanceStore, session: &str) {
    let sid = SessionId::new(session);
    let requests = vec![
        QueryRequest::BySession(sid.clone()),
        QueryRequest::ByActor(ActorId::new("recoverer")),
        QueryRequest::ByRelation("derived-from".into()),
    ];
    for request in requests {
        let indexed = match store.query(&request).unwrap() {
            QueryResponse::Assertions(list) => list,
            QueryResponse::Empty => Vec::new(),
            other => panic!("unexpected response {other:?}"),
        };
        let scanned = store
            .assertions_via(&request, AccessPath::FullScan)
            .unwrap();
        assert_eq!(indexed, scanned, "index/scan divergence on {request:?}");
    }
    // Lineage through the adjacency index vs through the scan.
    assert_eq!(
        store.session_edges(&sid, AccessPath::EdgeIndex).unwrap(),
        store.session_edges(&sid, AccessPath::FullScan).unwrap(),
        "adjacency index diverged from the scan"
    );
    let _ = LineageGraph::trace_session(store, &sid).unwrap();
}

/// Every interaction the scan finds is listed by `ListInteractions` and counted by the
/// statistics — the interaction markers cover every stored assertion.
fn assert_interactions_cover_the_scan(store: &ProvenanceStore, session: &str) {
    let scanned: BTreeSet<InteractionKey> = store
        .assertions_via(
            &QueryRequest::BySession(SessionId::new(session)),
            AccessPath::FullScan,
        )
        .unwrap()
        .into_iter()
        .map(|recorded| recorded.assertion.interaction_key().clone())
        .collect();
    let scanned: Vec<InteractionKey> = scanned.into_iter().collect();
    assert_eq!(
        store.list_interactions(None).unwrap(),
        scanned,
        "stored {} interactions, listed another set",
        scanned.len()
    );
    assert_eq!(store.statistics().interactions, scanned.len() as u64);
}

/// Power loss at *every* byte offset in the tail of the log: each truncation must reopen into
/// a consistent store (recover or rebuild — never a stale index), and at least one offset must
/// actually exercise the rebuild path (a surviving document whose index entries were cut).
#[test]
fn torn_tail_at_any_offset_recovers_or_rebuilds_never_stale() {
    let base = scratch("sweep");
    {
        let store = ProvenanceStore::open(Arc::new(KvBackend::open(&base).unwrap())).unwrap();
        for batch in 0..3 {
            let assertions: Vec<RecordedAssertion> = (batch * 5..batch * 5 + 5)
                .map(|i| assertion("session:sweep", i))
                .collect();
            store.record_all(&assertions).unwrap();
        }
        store.sync().unwrap();
    }
    let segment = base.join(format!("seg-{:016}.log", 1));
    let bytes = std::fs::read(&segment).unwrap();
    assert!(bytes.len() > 400, "log too small to sweep meaningfully");

    let mut rebuilds = 0usize;
    let mut sweeps = 0usize;
    // Sweep the tail region (covers the last batch and its index entries) byte by byte in
    // strides, plus the exact end (clean close).
    let start = bytes.len() * 2 / 5;
    for cut in (start..=bytes.len()).step_by(7) {
        sweeps += 1;
        let dir = scratch(&format!("cut-{cut}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("seg-{:016}.log", 1)), &bytes[..cut]).unwrap();
        let store = ProvenanceStore::open(Arc::new(KvBackend::open(&dir).unwrap())).unwrap();
        let report = store.index_report();
        assert!(report.enabled);
        if report.rebuilt {
            rebuilds += 1;
        }
        assert_index_equals_scan(&store, "session:sweep");
        assert_interactions_cover_the_scan(&store, "session:sweep");
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert!(sweeps > 20, "sweep degenerated to {sweeps} cuts");
    assert!(
        rebuilds > 0,
        "no truncation point exercised the rebuild path in {sweeps} sweeps"
    );
    std::fs::remove_dir_all(&base).unwrap();
}

/// A seeded power loss that fires *inside* a batch's append run: the failed batch is not
/// acked, the reopened store must be consistent, and recording must resume cleanly.
#[test]
fn armed_crash_mid_batch_write_reopens_consistent() {
    let dir = scratch("armed");
    {
        let backend = Arc::new(KvBackend::open_durable(&dir).unwrap());
        let db = backend.db().clone();
        let store = ProvenanceStore::open(backend as Arc<_>).unwrap();
        let first: Vec<RecordedAssertion> = (0..5).map(|i| assertion("session:armed", i)).collect();
        store.record_all(&first).unwrap();
        // The 3rd future record append dies mid-run: that lands inside the next batch's
        // document+index entry group.
        db.arm_crash_after_appends(3);
        let second: Vec<RecordedAssertion> =
            (5..10).map(|i| assertion("session:armed", i)).collect();
        let err = store.record_all(&second);
        assert!(err.is_err(), "a crashed batch must not be acked");
        assert!(db.is_crashed());
    }
    let store = ProvenanceStore::open(Arc::new(KvBackend::open(&dir).unwrap())).unwrap();
    assert_index_equals_scan(&store, "session:armed");
    // Only acked data survives, and it is whole.
    let survivors = store
        .assertions_for_session(&SessionId::new("session:armed"))
        .unwrap();
    assert_eq!(survivors.len(), 5, "exactly the acked batch survives");
    // The store keeps working after recovery: record again and query through the index.
    store.record(&assertion("session:armed", 20)).unwrap();
    assert_eq!(
        store
            .assertions_for_session(&SessionId::new("session:armed"))
            .unwrap()
            .len(),
        6
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store the previous layout wrote — JSON `a/` documents — opens, rewrites every document
/// in the packed stored form, and answers exactly like a store recorded fresh. A power loss
/// armed inside the migration fails that open without damage: the next open sees a mix of
/// both forms and finishes the job.
#[test]
fn legacy_json_documents_migrate_at_open_and_survive_a_crash_mid_migration() {
    use pasoa_core::prepwire;
    use pasoa_preserv::{MemoryBackend, StorageBackend};

    let sessions = ["session:legacy:0", "session:legacy:1", "session:legacy:2"];
    let assertions: Vec<RecordedAssertion> =
        (0..1200).map(|i| assertion(sessions[i % 3], i)).collect();
    let fresh = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
    fresh.record_all(&assertions).unwrap();

    let dir = scratch("legacy");
    {
        let backend = Arc::new(KvBackend::open(&dir).unwrap());
        let store = ProvenanceStore::open(Arc::clone(&backend) as Arc<_>).unwrap();
        store.record_all(&assertions).unwrap();
        // Rewrite every document in the previous layout, through the backend.
        let legacy: Vec<(Vec<u8>, Vec<u8>)> = backend
            .scan_prefix_values(b"a/")
            .unwrap()
            .into_iter()
            .map(|(key, value)| {
                let recorded = prepwire::decode_document(&value).unwrap();
                (key, serde_json::to_vec(&recorded).unwrap())
            })
            .collect();
        assert_eq!(legacy.len(), assertions.len());
        backend.put_many(&legacy).unwrap();
        backend.sync().unwrap();
    }
    let forms = || {
        let backend = KvBackend::open(&dir).unwrap();
        let values = backend.scan_prefix_values(b"a/").unwrap();
        let json = values
            .iter()
            .filter(|(_, v)| v.first() == Some(&b'{'))
            .count();
        (json, values.len() - json)
    };
    assert_eq!(forms(), (assertions.len(), 0));

    // Power loss inside the migration's second batch: the open fails, nothing is lost.
    {
        let backend = Arc::new(KvBackend::open_durable(&dir).unwrap());
        backend.db().arm_crash_after_appends(700);
        assert!(ProvenanceStore::open(Arc::clone(&backend) as Arc<_>).is_err());
        assert!(backend.db().is_crashed());
    }
    let (json, packed) = forms();
    assert!(
        json > 0 && packed > 0,
        "the crash must land mid-migration ({json} JSON, {packed} packed)"
    );

    let store = ProvenanceStore::open(Arc::new(KvBackend::open(&dir).unwrap())).unwrap();
    assert_eq!(forms(), (0, assertions.len()), "the rerun finished the job");
    assert_eq!(store.statistics(), fresh.statistics());
    let mut requests: Vec<QueryRequest> = sessions
        .iter()
        .map(|s| QueryRequest::BySession(SessionId::new(*s)))
        .collect();
    requests.extend([
        QueryRequest::ByActor(ActorId::new("recoverer")),
        QueryRequest::ByRelation("derived-from".into()),
        QueryRequest::ByInteraction(InteractionKey::new("interaction:session:legacy:1:007")),
    ]);
    for request in &requests {
        assert_eq!(
            store.query(request).unwrap(),
            fresh.query(request).unwrap(),
            "{request:?}"
        );
        assert_eq!(
            store.documents(request).unwrap(),
            fresh.documents(request).unwrap(),
            "stored bytes of {request:?}"
        );
    }
    for session in sessions {
        assert_index_equals_scan(&store, session);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store the version-1 layout wrote — by-actor (`x/a/`), by-relation (`x/r/`) and a second
/// session keyspace (`s/`) beside today's keys — rebuilds once at open, drops those ranges, and
/// answers exactly like a store recorded fresh. The next open finds it current.
#[test]
fn version_one_store_rebuilds_once_and_drops_the_retired_keyspaces() {
    use pasoa_preserv::{keys, MemoryBackend, StorageBackend};

    let assertions: Vec<RecordedAssertion> = (0..30).map(|i| assertion("session:v1", i)).collect();
    let fresh = ProvenanceStore::open(Arc::new(MemoryBackend::new())).unwrap();
    fresh.record_all(&assertions).unwrap();

    let dir = scratch("v1");
    {
        let backend = Arc::new(KvBackend::open(&dir).unwrap());
        ProvenanceStore::open(Arc::clone(&backend) as Arc<_>)
            .unwrap()
            .record_all(&assertions)
            .unwrap();
        // Add what version 1 also wrote for every assertion, and its marker.
        let mut retired = Vec::new();
        for key in backend
            .scan_prefix(keys::ASSERTION_PREFIX.as_bytes())
            .unwrap()
        {
            let sort = String::from_utf8(key["a/".len()..].to_vec()).unwrap();
            let interaction = sort.rsplit_once('/').unwrap().0;
            retired.push((
                format!("s/session:v1/{interaction}").into_bytes(),
                Vec::new(),
            ));
            retired.push((format!("x/a/recoverer/{sort}").into_bytes(), Vec::new()));
            retired.push((format!("x/r/derived-from/{sort}").into_bytes(), Vec::new()));
        }
        retired.push((b"x/!v".to_vec(), br#"{"version":1}"#.to_vec()));
        backend.put_many(&retired).unwrap();
        backend.sync().unwrap();
    }
    let retired_keys = |backend: &KvBackend| {
        ["x/a/", "x/r/", "s/"]
            .iter()
            .map(|prefix| backend.count_prefix(prefix.as_bytes()).unwrap())
            .sum::<usize>()
    };
    assert_eq!(retired_keys(&KvBackend::open(&dir).unwrap()), 90);

    let backend = Arc::new(KvBackend::open(&dir).unwrap());
    let store = ProvenanceStore::open(Arc::clone(&backend) as Arc<_>).unwrap();
    assert!(store.index_report().rebuilt, "a version-1 store rebuilds");
    assert_eq!(
        retired_keys(&backend),
        0,
        "the retired keyspaces are dropped"
    );
    assert_eq!(store.statistics(), fresh.statistics());
    let requests = [
        QueryRequest::BySession(SessionId::new("session:v1")),
        QueryRequest::ByActor(ActorId::new("recoverer")),
        QueryRequest::ByRelation("derived-from".into()),
        QueryRequest::ByInteraction(InteractionKey::new("interaction:session:v1:007")),
        QueryRequest::ListInteractions { limit: None },
    ];
    for request in &requests {
        assert_eq!(
            store.query(request).unwrap(),
            fresh.query(request).unwrap(),
            "{request:?}"
        );
    }
    assert_index_equals_scan(&store, "session:v1");
    store.sync().unwrap();
    drop(store);
    drop(backend);

    let reopened = ProvenanceStore::open(Arc::new(KvBackend::open(&dir).unwrap())).unwrap();
    assert!(!reopened.index_report().rebuilt, "one rebuild is enough");
    std::fs::remove_dir_all(&dir).unwrap();
}

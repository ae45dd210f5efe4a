//! The replay lane: the same generated batches pushed single-threaded through each layer's
//! public functions in isolation. Where the traced round says *which* layer a call's time
//! went to, these say what one step of that layer costs on its own, so a change to one layer
//! has a number that should move and neighbours that should not.
//!
//! Times are microseconds per 16-assertion message unless the name says otherwise, each the
//! median of several timed batches.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pasoa::bioseq::shuffle::shuffle_with_seed;
use pasoa::cluster::{HashRing, PreservCluster};
use pasoa::compress::Method;
use pasoa::dag::{DagSpec, Executor, ExecutorConfig, FnActivity};
use pasoa::kvdb::{Db, DbOptions, WriteBatch};
use pasoa::model::ids::{ActorId, IdGenerator};
use pasoa::model::passertion::RecordedAssertion;
use pasoa::model::prep::{PagedQuery, PrepMessage, QueryRequest, RecordMessage};
use pasoa::model::{prepwire, AsyncRecorder, NullRecorder, ProvenanceRecorder};
use pasoa::net::{
    decode_frame_any, encode_frame_into, NetClient, NetClientConfig, NetServer, NetServerConfig,
    DEFAULT_MAX_FRAME_BYTES, MAX_VERSION, VERSION_BINARY,
};
use pasoa::preserv::{MemoryBackend, PreservService, ProvenanceStore};
use pasoa::query::{PlanMode, Planner, QueryEngine};
use pasoa::wire::{codec, Envelope, ServiceHost, TransportConfig, WireResult, XmlElement};

use crate::gen::{self, Corpus, RecordShape, Rng};
use crate::stats::median;
use crate::workloads::record_envelope as envelope;

/// Median over `batches` timed batches of the mean time of one of `reps` calls, in µs.
fn time_us(batches: usize, reps: usize, mut step: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|batch| {
            let start = Instant::now();
            for rep in 0..reps {
                step(batch * reps + rep);
            }
            start.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    median(&samples)
}

fn messages(seed: u64, tag: &str, sessions: usize) -> Vec<RecordMessage> {
    let shape = RecordShape {
        sessions,
        per_session: 256,
        per_message: 16,
        payload_bytes: 128,
    };
    gen::record_lanes(seed, 0, tag, shape, 1).remove(0)
}

/// Every replay metric, by name. `toy` shrinks repetition counts for `check`.
pub fn run(seed: u64, toy: bool) -> BTreeMap<String, f64> {
    let scale = if toy { 1 } else { 4 };
    let mut out = BTreeMap::new();
    codecs(seed, scale, &mut out);
    sockets(scale, &mut out);
    cluster_and_store(seed, scale, &mut out);
    database(seed, scale, &mut out);
    science(seed, toy, &mut out);
    out
}

/// `core`, `wire` and `net` framing: what one record message costs to encode and decode in
/// each of the forms it takes between a recorder and a shard.
fn codecs(seed: u64, scale: usize, out: &mut BTreeMap<String, f64>) {
    let batch = messages(seed, "replay", 4);
    let n = batch.len();
    let (batches, reps) = (5, n * scale);
    let mut set = |name: &str, value: f64| out.insert(name.to_string(), value);

    let protocol: Vec<PrepMessage> = batch.iter().cloned().map(PrepMessage::Record).collect();
    let json: Vec<String> = protocol
        .iter()
        .map(|m| serde_json::to_string(m).expect("protocol messages serialize"))
        .collect();
    set(
        "core.json_encode_us",
        time_us(batches, reps, |i| {
            black_box(serde_json::to_string(&protocol[i % n]).expect("serializes"));
        }),
    );
    set(
        "core.json_decode_us",
        time_us(batches, reps, |i| {
            black_box(serde_json::from_str::<PrepMessage>(&json[i % n]).expect("parses"));
        }),
    );
    let elements: Vec<XmlElement> = batch.iter().map(prepwire::record_to_element).collect();
    set(
        "core.prepwire_encode_us",
        time_us(batches, reps, |i| {
            black_box(prepwire::record_to_element(&batch[i % n]));
        }),
    );
    set(
        "core.prepwire_decode_us",
        time_us(batches, reps, |i| {
            black_box(prepwire::record_from_element(&elements[i % n]).expect("unpacks"));
        }),
    );

    let envelopes: Vec<Envelope> = batch.iter().map(envelope).collect();
    let mut buffer = Vec::new();
    set(
        "wire.codec_encode_us",
        time_us(batches, reps, |i| {
            buffer.clear();
            codec::encode_envelope(&envelopes[i % n], &mut buffer);
            black_box(buffer.len());
        }),
    );
    let binary: Vec<Vec<u8>> = envelopes
        .iter()
        .map(|e| {
            let mut bytes = Vec::new();
            codec::encode_envelope(e, &mut bytes);
            bytes
        })
        .collect();
    set(
        "wire.codec_decode_us",
        time_us(batches, reps, |i| {
            black_box(codec::decode_envelope(&binary[i % n]).expect("decodes"));
        }),
    );
    let textual: Vec<String> = envelopes.iter().map(Envelope::to_wire).collect();
    set(
        "wire.xml_encode_us",
        time_us(batches, reps, |i| {
            black_box(envelopes[i % n].to_wire());
        }),
    );
    set(
        "wire.xml_decode_us",
        time_us(batches, reps, |i| {
            black_box(Envelope::from_wire(&textual[i % n]).expect("parses"));
        }),
    );
    let mean = |sizes: &mut dyn Iterator<Item = usize>| sizes.sum::<usize>() as f64 / n as f64;
    set(
        "wire.envelope_bytes_v1",
        mean(&mut textual.iter().map(String::len)),
    );
    set(
        "wire.envelope_bytes_v2",
        mean(&mut binary.iter().map(Vec::len)),
    );

    let frames: Vec<Vec<u8>> = envelopes
        .iter()
        .map(|e| {
            let mut frame = Vec::new();
            encode_frame_into(&mut frame, std::slice::from_ref(e), VERSION_BINARY).expect("frames");
            frame
        })
        .collect();
    set(
        "net.frame_encode_us",
        time_us(batches, reps, |i| {
            let one = std::slice::from_ref(&envelopes[i % n]);
            black_box(encode_frame_into(&mut buffer, one, VERSION_BINARY).expect("frames"));
        }),
    );
    set(
        "net.frame_decode_us",
        time_us(batches, reps, |i| {
            black_box(
                decode_frame_any(&frames[i % n], DEFAULT_MAX_FRAME_BYTES, MAX_VERSION)
                    .expect("decodes"),
            );
        }),
    );
    set(
        "net.frame_bytes_per_call",
        mean(&mut frames.iter().map(Vec::len)),
    );
}

/// `net` with no store behind it: a pooled client calling a server that hosts a no-op
/// handler — socket, pool and worker hand-off only — with a small and a 1 MB response (the
/// frame size queries produce and records never do).
fn sockets(scale: usize, out: &mut BTreeMap<String, f64>) {
    let host = ServiceHost::new();
    let blob = "x".repeat(1 << 20);
    host.register(
        "echo",
        Arc::new(move |request: Envelope| -> WireResult<Envelope> {
            let response = Envelope::response("echo");
            Ok(if request.action() == Some("large") {
                response.with_body(XmlElement::new("blob").text(blob.clone()))
            } else {
                response
            })
        }),
    );
    let server = NetServer::bind(("127.0.0.1", 0), &host, NetServerConfig::default())
        .expect("loopback listener binds");
    let client = NetClient::new(server.local_addr(), "echo", NetClientConfig::default());
    let echo = |action: &str, reps: usize| {
        let request = Envelope::request("echo", action);
        client.call(&request).expect("echo warms up");
        time_us(5, reps, |_| {
            black_box(client.call(&request).expect("echo answers"));
        })
    };
    out.insert("net.echo_small_us".into(), echo("small", 250 * scale));
    out.insert("net.echo_large_us".into(), echo("large", 5 * scale));
    server.shutdown();
}

/// `cluster`, `preserv` and `query` over memory backends: placement, the router hop, the
/// store's staging and index writes, and the read paths the query workload mixes.
fn cluster_and_store(seed: u64, scale: usize, out: &mut BTreeMap<String, f64>) {
    let mut set = |name: &str, value: f64| out.insert(name.to_string(), value);

    let ring = HashRing::with_shards(4, 64);
    let keys: Vec<String> = (0..256)
        .map(|i| format!("session:ring:{seed}:{i}"))
        .collect();
    set(
        "cluster.ring_lookup_ns",
        time_us(5, 2000 * scale, |i| {
            black_box(ring.shard_for(&keys[i % keys.len()]));
        }) * 1e3,
    );

    // The store alone, then the same traffic through a router in front of four such stores:
    // the difference is what the cluster tier adds per message.
    let store_batch = messages(seed, "replay-store", 8 * scale);
    let store = ProvenanceStore::open(Arc::new(MemoryBackend::new())).expect("store opens");
    let per_assertion = time_us(1, store_batch.len(), |i| {
        black_box(
            store
                .record_all(&store_batch[i].assertions)
                .expect("records"),
        );
    }) / 16.0;
    set("preserv.record_all_us_per_assertion", per_assertion);
    let host = ServiceHost::new();
    let cluster = PreservCluster::deploy_in_memory(&host, 4).expect("memory cluster deploys");
    let transport = host.transport(TransportConfig::passthrough());
    let routed = messages(seed, "replay-route", 8 * scale);
    let per_message = time_us(1, routed.len(), |i| {
        black_box(transport.call(envelope(&routed[i])).expect("record acks"));
    });
    cluster.flush().expect("flushes");
    set(
        "cluster.router_record_us",
        per_message - per_assertion * 16.0,
    );

    // Read paths over a small corpus: 8 sessions of 999 assertions.
    let corpus = Corpus::new(seed, 0, 8, 999);
    let loaded: Vec<RecordedAssertion> = corpus
        .messages(1024)
        .into_iter()
        .flat_map(|m| m.assertions)
        .collect();
    let reads = Arc::new(ProvenanceStore::open(Arc::new(MemoryBackend::new())).expect("opens"));
    reads.record_all(&loaded).expect("corpus records");
    for message in corpus.messages(1024) {
        transport.call(envelope(&message)).expect("corpus acks");
    }
    cluster.flush().expect("flushes");
    let session = |i: usize| corpus.sessions[i % corpus.sessions.len()].clone();
    let page = |i: usize| PagedQuery {
        request: QueryRequest::BySession(session(i)),
        cursor: None,
        page_size: 256,
    };
    set(
        "preserv.session_query_us",
        time_us(5, 4 * scale, |i| {
            black_box(reads.assertions_for_session(&session(i)).expect("reads"));
        }),
    );
    set(
        "preserv.page_us",
        time_us(5, 8 * scale, |i| {
            black_box(reads.query_page(&page(i)).expect("pages"));
        }),
    );
    set(
        "cluster.gather_page_us",
        time_us(5, 8 * scale, |i| {
            black_box(cluster.query_page(&page(i)).expect("gathers"));
        }),
    );
    let planner = Planner::new(PlanMode::Auto);
    let request = QueryRequest::BySession(session(0));
    set(
        "query.plan_us",
        time_us(5, 2000 * scale, |_| {
            black_box(planner.plan(true, &request).expect("plans"));
        }),
    );
    let engine = QueryEngine::with_mode(Arc::clone(&reads), PlanMode::ForceIndex);
    set(
        "query.session_indexed_us",
        time_us(5, 4 * scale, |i| {
            let request = QueryRequest::BySession(session(i));
            black_box(engine.query(&request).expect("answers"));
        }),
    );
    set(
        "query.closure_indexed_us",
        time_us(5, 4 * scale, |i| {
            let s = i % corpus.sessions.len();
            let closure = engine.lineage_closure(&corpus.sessions[s], &corpus.deepest(s));
            black_box(closure.expect("closes"));
        }),
    );
}

/// `kvdb` on real files under `target/`: batched appends with and without fsync, point reads,
/// bounded scans, the on-disk cost of a byte, and recovery time.
fn database(seed: u64, scale: usize, out: &mut BTreeMap<String, f64>) {
    let mut set = |name: &str, value: f64| out.insert(name.to_string(), value);
    let work = Path::new("target")
        .join("benchmark")
        .join("work")
        .join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let mut rng = Rng::stream(seed, 0, 5);
    let value = rng.payload(400);
    let key = |i: usize| format!("a/replay/{:08}/{:012x}", i, 0xABCDEFu64 + i as u64);
    let batch = |first: usize| {
        let mut batch = WriteBatch::new();
        for i in first..first + 64 {
            batch
                .put(key(i).as_bytes(), value.as_bytes())
                .expect("entry fits");
        }
        batch
    };
    let batches = 40 * scale;
    let flushed_dir = work.join("os-flush");
    let flushed = Db::open(&flushed_dir).expect("database opens");
    let write_batch_us = time_us(1, batches, |i| {
        flushed.write_batch(batch(i * 64)).expect("appends");
    });
    set("kvdb.write_batch_us", write_batch_us);
    let durable = Db::open_with(work.join("durable"), DbOptions::durable()).expect("opens");
    let durable_us = time_us(1, batches, |i| {
        durable.write_batch(batch(i * 64)).expect("appends");
    });
    set("kvdb.fsync_us", (durable_us - write_batch_us).max(0.0));
    drop(durable);

    let keys = batches * 64;
    set(
        "kvdb.get_us",
        time_us(5, 2000 * scale, |_| {
            let k = key(rng.below(keys as u64) as usize);
            black_box(flushed.get(k.as_bytes()).expect("reads"));
        }),
    );
    set(
        "kvdb.scan_page_us",
        time_us(5, 200 * scale, |i| {
            let start = key((i * 64) % (keys - 256));
            black_box(
                flushed
                    .scan_range_limited(start.as_bytes(), b"a/replay0", 256)
                    .expect("scans"),
            );
        }),
    );
    flushed.sync().expect("syncs");
    let put_bytes = keys * (key(0).len() + value.len());
    let disk_bytes: u64 = std::fs::read_dir(&flushed_dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    set(
        "kvdb.disk_bytes_per_put_byte",
        disk_bytes as f64 / put_bytes as f64,
    );
    drop(flushed);
    let reopen = Instant::now();
    let reopened = Db::open(&flushed_dir).expect("reopens");
    set("kvdb.reopen_ms", reopen.elapsed().as_secs_f64() * 1e3);
    assert_eq!(reopened.len(), keys, "reopen recovers every key");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&work);
}

/// The experiment's own layers: compressors, the shuffle, the DAG executor's per-task cost
/// and the recorder's per-assertion cost.
fn science(seed: u64, toy: bool, out: &mut BTreeMap<String, f64>) {
    let mut set = |name: &str, value: f64| out.insert(name.to_string(), value);
    // A group-coded protein sample is text over six symbols; 100 KB of it, as in the paper.
    let len = if toy { 8 } else { 100 } * 1024;
    let mut rng = Rng::stream(seed, 0, 6);
    let sample: Vec<u8> = (0..len).map(|_| b'A' + rng.below(6) as u8).collect();
    let mb = len as f64 / (1024.0 * 1024.0);
    for (method, name) in [
        (Method::Gzip, "compress.gzip_mb_per_s"),
        (Method::Ppmz, "compress.ppmz_mb_per_s"),
    ] {
        let compressor = method.compressor();
        let us = time_us(3, 2, |_| {
            black_box(compressor.compressed_len(black_box(&sample)));
        });
        set(name, mb / (us / 1e6));
    }
    set(
        "bioseq.shuffle_us",
        time_us(5, 4, |i| {
            black_box(shuffle_with_seed(&sample, seed + i as u64));
        }),
    );

    // 64 independent no-op tasks: all the time is the executor's own scheduling and
    // state-transition bookkeeping.
    let tasks = 64;
    let schedule = time_us(3, 1, |run| {
        let mut spec = DagSpec::new(format!("replay-{run}"));
        for task in 0..tasks {
            let noop = FnActivity::new(format!("noop-{task}"), "true", |_, _| Ok(Vec::new()));
            spec.add_task(format!("task-{task}"), Arc::new(noop))
                .expect("task ids are distinct");
        }
        let dag = spec.build().expect("no edges, no cycles");
        let ids = IdGenerator::new(format!("replay-dag-{run}"));
        let recorder = Arc::new(NullRecorder::new(ids.session_id()));
        let executor = Executor::new(recorder, ids, ExecutorConfig::default());
        let report = executor.run(&dag, BTreeMap::new()).expect("runs");
        assert!(report.succeeded(), "no-op tasks succeed");
    });
    set("dag.schedule_overhead_us", schedule / tasks as f64);

    // The asynchronous recorder against an in-process memory store: journal push per
    // assertion plus its share of the closing flush.
    let host = ServiceHost::new();
    let service = Arc::new(PreservService::in_memory().expect("memory store"));
    service.register(&host);
    let assertions: Vec<RecordedAssertion> = messages(seed, "replay-recorder", 2)
        .into_iter()
        .flat_map(|m| m.assertions)
        .collect();
    let submit = time_us(3, 1, |run| {
        let ids = IdGenerator::new(format!("replay-recorder-{run}"));
        let recorder = AsyncRecorder::new(
            ids.session_id(),
            ActorId::new("replay"),
            host.transport(TransportConfig::passthrough()),
            ids,
            64,
        );
        for recorded in &assertions {
            recorder
                .record(recorded.assertion.clone())
                .expect("journals");
        }
        recorder.flush().expect("ships");
    });
    set("core.recorder_submit_us", submit / assertions.len() as f64);
}

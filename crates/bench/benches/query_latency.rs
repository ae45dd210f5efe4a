//! E7 — the index-vs-scan gap: query latency against store size.
//!
//! The paper leaves querying as bulk retrieval, so every answer costs O(store). The secondary
//! indexes make single-session and lineage-closure answers cost O(result). This bench pins
//! that gap at 10k and 100k stored assertions — same corpus, same target session, the planner
//! forced down each path — plus the paginated scatter-gather page cost on a 4-shard cluster.
//! The closing summary prints the measured speedups.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pasoa_bench::query_setup::{
    closure_target, corpus_cluster, corpus_store, target_session, SIZES,
};
use pasoa_core::prep::{PageCursor, PagedQuery, QueryRequest};
use pasoa_query::{PlanMode, QueryEngine};

fn bench_query_latency(c: &mut Criterion) {
    for total in SIZES {
        let store = corpus_store(total);
        let session = target_session();
        let target = closure_target(total);
        let indexed = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceIndex);
        let scan = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceScan);
        let request = QueryRequest::BySession(session.clone());

        let mut group = c.benchmark_group(format!("E7_query_latency_{total}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("single_session_indexed", total), |b| {
            b.iter(|| indexed.query(&request).unwrap())
        });
        group.bench_function(BenchmarkId::new("single_session_scan", total), |b| {
            b.iter(|| scan.query(&request).unwrap())
        });
        group.bench_function(BenchmarkId::new("lineage_closure_indexed", total), |b| {
            b.iter(|| indexed.lineage_closure(&session, &target).unwrap())
        });
        group.bench_function(BenchmarkId::new("lineage_closure_scan", total), |b| {
            b.iter(|| scan.lineage_closure(&session, &target).unwrap())
        });
        group.finish();
    }

    // One bounded page off a loaded 4-shard cluster: the cost a client pays per page instead
    // of one unbounded response.
    let (_host, cluster) = corpus_cluster(SIZES[0]);
    let session = target_session();
    let mut group = c.benchmark_group("E7_paginated_gather");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("cluster_page_256", 4), |b| {
        let mut cursor: Option<PageCursor> = None;
        b.iter(|| {
            let page = cluster
                .query_page(&PagedQuery {
                    request: QueryRequest::BySession(session.clone()),
                    cursor: cursor.take(),
                    page_size: 256,
                })
                .unwrap();
            let served = page.assertions.len();
            cursor = page.next; // walk the stream; restart when exhausted
            served
        })
    });
    group.finish();

    // Closing summary: the measured index-vs-scan speedups.
    for total in SIZES {
        let store = corpus_store(total);
        let session = target_session();
        let target = closure_target(total);
        let indexed = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceIndex);
        let scan = QueryEngine::with_mode(Arc::clone(&store), PlanMode::ForceScan);
        let request = QueryRequest::BySession(session.clone());
        let time = |f: &dyn Fn()| {
            let start = Instant::now();
            for _ in 0..3 {
                f();
            }
            start.elapsed().as_secs_f64() / 3.0
        };
        let session_indexed = time(&|| {
            indexed.query(&request).unwrap();
        });
        let session_scan = time(&|| {
            scan.query(&request).unwrap();
        });
        let closure_indexed = time(&|| {
            indexed.lineage_closure(&session, &target).unwrap();
        });
        let closure_scan = time(&|| {
            scan.lineage_closure(&session, &target).unwrap();
        });
        println!(
            "E7 summary @ {total}: single-session {:.0}x faster indexed \
             ({:.2} ms vs {:.2} ms), lineage-closure {:.0}x faster indexed \
             ({:.2} ms vs {:.2} ms)",
            session_scan / session_indexed,
            session_indexed * 1e3,
            session_scan * 1e3,
            closure_scan / closure_indexed,
            closure_indexed * 1e3,
            closure_scan * 1e3,
        );
    }
}

criterion_group!(benches, bench_query_latency);
criterion_main!(benches);

//! Tracing from outside the program: spans recorded by wrappers the benchmark installs at the
//! public seams (the store handler, each shard's storage backend) and around its own calls,
//! kept in memory, and turned into per-layer self times once the round has ended.
//!
//! A span names the span that caused it. The driver stamps each call's envelope with a trace
//! header carrying the call's span id, so the handler span finds its parent on the far side of
//! the socket; a backend span takes the handler span running on its own thread. Over TCP the
//! backend runs on a shard worker thread where no handler span is current; such a span is
//! adopted, when the round is analysed, by the tightest handler span that contains it.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pasoa::obs::TraceCtx;
use pasoa::preserv::backend::{BackendError, BackendKind, ScannedEntries, StorageBackend};
use pasoa::wire::{Envelope, MessageHandler, WireResult};

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One primary driver call (a record message, a reader op, a recorder's store call).
    Call,
    /// One paced writer send of the query workload: traced, but kept out of the layer budget,
    /// which describes the primary op.
    Write,
    /// The store handler (router) serving one request.
    Handler,
    PutMany,
    Get,
    Scan,
    Sync,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Call => "driver.call",
            Kind::Write => "driver.write",
            Kind::Handler => "handler.store",
            Kind::PutMany => "backend.put_many",
            Kind::Get => "backend.get",
            Kind::Scan => "backend.scan",
            Kind::Sync => "backend.sync",
        }
    }

    fn is_backend(self) -> bool {
        matches!(self, Kind::PutMany | Kind::Get | Kind::Scan | Kind::Sync)
    }
}

/// One timed interval. `parent` is 0 for a root (or a span not yet adopted); `trace` is the id
/// of the driver span the request began with, 0 when unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// `(span id, trace id)` of the handler span running on this thread, `(0, 0)` when none.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

const TRACE_PREFIX: &str = "bench:";

/// Span sink shared by every wrapper of one round. Spans land in a small set of buffers
/// picked by span id, so the two load threads and the server workers rarely meet on a lock.
pub struct Tracer {
    epoch: Instant,
    recording: AtomicBool,
    next_id: AtomicU64,
    buffers: [Mutex<Vec<Span>>; 8],
    /// Entries and bytes handed to `put`/`put_many`, `get` calls, and keys returned by scans.
    pub put_entries: AtomicU64,
    pub put_bytes: AtomicU64,
    pub gets: AtomicU64,
    pub scan_rows: AtomicU64,
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    parent: u64,
    trace: u64,
    kind: Kind,
    start_ns: u64,
}

impl Open {
    /// The trace header a driver span stamps on its envelope.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx::root(format!("{TRACE_PREFIX}{}", self.id))
    }
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            buffers: Default::default(),
            put_entries: AtomicU64::new(0),
            put_bytes: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            scan_rows: AtomicU64::new(0),
        })
    }

    /// Spans and counts are kept only while recording, so set-up, warm-up and verification
    /// traffic through the same wrappers leaves no trace.
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Begin a root span of the driver.
    pub fn begin_root(&self, kind: Kind) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent: 0,
            trace: id,
            kind,
            start_ns: self.now_ns(),
        }
    }

    fn begin(&self, kind: Kind, parent: u64, trace: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            trace,
            kind,
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, open: Open) {
        let end_ns = self.now_ns();
        if !self.recording() {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            trace: open.trace,
            kind: open.kind,
            start_ns: open.start_ns,
            end_ns,
        };
        self.buffers[(open.id % 8) as usize]
            .lock()
            .expect("span buffer lock is never held across a panic")
            .push(span);
    }

    /// Every span recorded so far, by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for buffer in &self.buffers {
            all.append(&mut buffer.lock().expect("span buffer lock"));
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }

    fn count(&self, counter: &AtomicU64, n: usize) {
        if self.recording() {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        }
    }
}

/// The store handler, timed. Registered over the router's own registration under the same
/// name, so every request — in process or decoded off the router's socket — passes through it.
pub struct TimedHandler {
    inner: Arc<dyn MessageHandler>,
    tracer: Arc<Tracer>,
}

impl TimedHandler {
    pub fn new(inner: Arc<dyn MessageHandler>, tracer: Arc<Tracer>) -> Self {
        TimedHandler { inner, tracer }
    }
}

impl MessageHandler for TimedHandler {
    fn handle(&self, request: Envelope) -> WireResult<Envelope> {
        let trace = request
            .trace_ctx()
            .and_then(|ctx| ctx.trace_id.strip_prefix(TRACE_PREFIX)?.parse::<u64>().ok())
            .unwrap_or(0);
        let open = self.tracer.begin(Kind::Handler, trace, trace);
        let outer = CURRENT.with(|current| current.replace((open.id, trace)));
        let response = self.inner.handle(request);
        CURRENT.with(|current| current.set(outer));
        self.tracer.end(open);
        response
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A shard's storage backend, timed. Every trait method forwards to the wrapped backend's own
/// implementation (never to the trait's defaults), so the program runs exactly the code it
/// runs unwrapped.
pub struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    tracer: Arc<Tracer>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, tracer: Arc<Tracer>) -> Self {
        TimedBackend { inner, tracer }
    }

    fn timed<T>(&self, kind: Kind, op: impl FnOnce(&dyn StorageBackend) -> T) -> T {
        let (parent, trace) = CURRENT.with(Cell::get);
        let open = self.tracer.begin(kind, parent, trace);
        let out = op(self.inner.as_ref());
        self.tracer.end(open);
        out
    }
}

impl StorageBackend for TimedBackend {
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), BackendError> {
        self.tracer.count(&self.tracer.put_entries, 1);
        self.tracer
            .count(&self.tracer.put_bytes, key.len() + value.len());
        self.timed(Kind::PutMany, |b| b.put(key, value))
    }

    fn put_many(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), BackendError> {
        self.tracer.count(&self.tracer.put_entries, entries.len());
        let bytes: usize = entries.iter().map(|(k, v)| k.len() + v.len()).sum();
        self.tracer.count(&self.tracer.put_bytes, bytes);
        self.timed(Kind::PutMany, |b| b.put_many(entries))
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, BackendError> {
        self.tracer.count(&self.tracer.gets, 1);
        self.timed(Kind::Get, |b| b.get(key))
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, BackendError> {
        let keys = self.timed(Kind::Scan, |b| b.scan_prefix(prefix))?;
        self.tracer.count(&self.tracer.scan_rows, keys.len());
        Ok(keys)
    }

    fn scan_prefix_values(&self, prefix: &[u8]) -> Result<ScannedEntries, BackendError> {
        let entries = self.timed(Kind::Scan, |b| b.scan_prefix_values(prefix))?;
        self.tracer.count(&self.tracer.scan_rows, entries.len());
        Ok(entries)
    }

    fn count_prefix(&self, prefix: &[u8]) -> Result<usize, BackendError> {
        self.timed(Kind::Scan, |b| b.count_prefix(prefix))
    }

    fn scan_prefix_page(
        &self,
        prefix: &[u8],
        after: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<Vec<u8>>, BackendError> {
        let keys = self.timed(Kind::Scan, |b| b.scan_prefix_page(prefix, after, limit))?;
        self.tracer.count(&self.tracer.scan_rows, keys.len());
        Ok(keys)
    }

    fn delete_many(&self, keys: &[Vec<u8>]) -> Result<(), BackendError> {
        self.timed(Kind::PutMany, |b| b.delete_many(keys))
    }

    fn sync(&self) -> Result<(), BackendError> {
        self.timed(Kind::Sync, |b| b.sync())
    }

    fn recovery_report(&self) -> Option<&pasoa::kvdb::RecoveryReport> {
        self.inner.recovery_report()
    }

    fn attach_observability(&self, registry: &pasoa::obs::Registry) {
        self.inner.attach_observability(registry);
    }

    fn kind(&self) -> BackendKind {
        self.inner.kind()
    }
}

/// Totals of one analysed round, in nanoseconds over the trees rooted at [`Kind::Call`] spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Primary driver calls.
    pub calls: u64,
    /// Summed duration of the primary driver calls.
    pub call_ns: u64,
    /// Summed duration of the handler spans beneath them.
    pub handler_ns: u64,
    /// Call time not covered by a handler span: client encode, codecs, framing, sockets.
    pub transport_self_ns: u64,
    /// Handler time not covered by a backend span: router, replication, store staging,
    /// index maintenance — and, over TCP, the router→shard hop.
    pub cluster_preserv_self_ns: u64,
    /// Summed duration of backend spans (they have no children, so all of it is self time).
    pub backend_self_ns: u64,
    /// Backend time by operation.
    pub by_backend_op: HashMap<Kind, u64>,
}

impl Budget {
    /// `(transport + cluster_preserv + backend self time) / call time − 1`: zero when every
    /// child lies inside its parent and siblings never overlap.
    pub fn sum_gap(&self) -> f64 {
        if self.call_ns == 0 {
            return 0.0;
        }
        let parts = self.transport_self_ns + self.cluster_preserv_self_ns + self.backend_self_ns;
        parts as f64 / self.call_ns as f64 - 1.0
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Give every parentless backend span the tightest handler span that contains it (the latest
/// to start among those that do). Spans no handler contains stay parentless.
fn adopt_orphans(spans: &mut [Span]) {
    let mut handlers: Vec<Span> = spans
        .iter()
        .filter(|s| s.kind == Kind::Handler)
        .copied()
        .collect();
    handlers.sort_by_key(|h| h.start_ns);
    for span in spans
        .iter_mut()
        .filter(|s| s.parent == 0 && s.kind.is_backend())
    {
        let upto = handlers.partition_point(|h| h.start_ns <= span.start_ns);
        if let Some(parent) = handlers[..upto]
            .iter()
            .rev()
            .find(|h| h.end_ns >= span.end_ns)
        {
            span.parent = parent.id;
            span.trace = parent.trace;
        }
    }
}

/// Self time of every layer: each span's duration minus the part of it its children cover.
pub fn analyse(spans: &mut [Span]) -> Budget {
    adopt_orphans(spans);
    let by_id: HashMap<u64, Span> = spans.iter().map(|s| (s.id, *s)).collect();
    let under_call = |span: &Span| {
        let mut at = *span;
        while let Some(parent) = by_id.get(&at.parent) {
            at = *parent;
        }
        at.kind == Kind::Call
    };
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut budget = Budget::default();
    for span in spans.iter().filter(|s| under_call(s)) {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
        match span.kind {
            Kind::Call => {
                budget.calls += 1;
                budget.call_ns += span.duration();
            }
            Kind::Handler => budget.handler_ns += span.duration(),
            kind if kind.is_backend() => {
                budget.backend_self_ns += span.duration();
                *budget.by_backend_op.entry(kind).or_default() += span.duration();
            }
            _ => {}
        }
    }
    for span in spans.iter().filter(|s| under_call(s)) {
        let inside = children
            .get_mut(&span.id)
            .map_or(0, |kids| covered(kids, span.start_ns, span.end_ns));
        let own = span.duration() - inside;
        match span.kind {
            Kind::Call => budget.transport_self_ns += own,
            Kind::Handler => budget.cluster_preserv_self_ns += own,
            _ => {}
        }
    }
    budget
}

/// Spans written to a trace file at most; the analysis always covers every span.
const DUMP_LIMIT: usize = 250_000;

/// Write the spans as one JSON document, a span per line.
pub fn dump(spans: &[Span], workload: &str, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let dumped = spans.len().min(DUMP_LIMIT);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{},\"spans_dumped\":{dumped},\"spans\":[",
        spans.len()
    )?;
    for (i, s) in spans[..dumped].iter().enumerate() {
        let comma = if i + 1 == dumped { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
            s.id,
            s.parent,
            s.trace,
            s.kind.name(),
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered(&mut [(10, 20), (15, 30), (40, 50)], 0, 100), 30);
        assert_eq!(covered(&mut [(0, 50), (90, 200)], 10, 100), 50);
        assert_eq!(covered(&mut [], 0, 10), 0);
    }

    /// call 1 [0,100] ⊃ handler 2 [10,90] ⊃ put_many 3 [20,50] and get 4 [40,70]: the two
    /// backend spans overlap by ten, so they cover [20,70] of the handler, not 30 + 30.
    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut spans = vec![
            span(1, 0, Kind::Call, 0, 100),
            span(2, 1, Kind::Handler, 10, 90),
            span(3, 2, Kind::PutMany, 20, 50),
            span(4, 2, Kind::Get, 40, 70),
        ];
        let budget = analyse(&mut spans);
        assert_eq!(budget.calls, 1);
        assert_eq!(budget.call_ns, 100);
        assert_eq!(budget.transport_self_ns, 20);
        assert_eq!(budget.cluster_preserv_self_ns, 80 - 50);
        assert_eq!(budget.backend_self_ns, 60);
        assert_eq!(budget.by_backend_op[&Kind::PutMany], 30);
        assert_eq!(budget.by_backend_op[&Kind::Get], 30);
        // Overlapping siblings are the one way the parts exceed the whole.
        assert!((budget.sum_gap() - 0.10).abs() < 1e-9);
    }

    /// A backend span recorded on another thread arrives without a parent; it is adopted by
    /// the tightest handler containing it, not by the earlier, longer one.
    #[test]
    fn cross_thread_backend_span_is_adopted_by_the_tightest_handler() {
        let mut spans = vec![
            span(1, 0, Kind::Call, 0, 200),
            span(2, 0, Kind::Call, 50, 150),
            span(11, 1, Kind::Handler, 10, 190),
            span(12, 2, Kind::Handler, 60, 140),
            span(20, 0, Kind::PutMany, 70, 130),
            // Contained by no handler: stays an orphan and out of the budget.
            span(21, 0, Kind::Get, 195, 260),
        ];
        let budget = analyse(&mut spans);
        assert_eq!(spans[4].parent, 12);
        assert_eq!(spans[5].parent, 0);
        assert_eq!(budget.backend_self_ns, 60);
        assert_eq!(budget.cluster_preserv_self_ns, 180 + (80 - 60));
        assert_eq!(budget.transport_self_ns, 20 + 20);
        assert_eq!(budget.sum_gap(), 0.0);
    }

    #[test]
    fn writer_trees_stay_out_of_the_budget() {
        let mut spans = vec![
            span(1, 0, Kind::Call, 0, 100),
            span(2, 1, Kind::Handler, 10, 60),
            span(5, 0, Kind::Write, 0, 100),
            span(6, 5, Kind::Handler, 20, 80),
            span(7, 6, Kind::PutMany, 30, 40),
        ];
        let budget = analyse(&mut spans);
        assert_eq!((budget.calls, budget.call_ns), (1, 100));
        assert_eq!(budget.handler_ns, 50);
        assert_eq!(budget.backend_self_ns, 0);
    }

    #[test]
    fn wrappers_link_call_handler_and_backend_spans() {
        use pasoa::preserv::MemoryBackend;
        let tracer = Tracer::new();
        let backend = Arc::new(TimedBackend::new(
            Arc::new(MemoryBackend::new()),
            Arc::clone(&tracer),
        ));
        let store = Arc::clone(&backend);
        let inner = move |request: Envelope| -> WireResult<Envelope> {
            store.put(b"k", b"value").unwrap();
            store.get(b"k").unwrap();
            Ok(Envelope::response("echo").with_body(request.body))
        };
        let handler = TimedHandler::new(Arc::new(inner), Arc::clone(&tracer));

        // Not recording: traffic leaves nothing behind.
        handler.handle(Envelope::request("svc", "echo")).unwrap();
        assert!(tracer.drain().is_empty());

        tracer.set_recording(true);
        let call = tracer.begin_root(Kind::Call);
        let request = Envelope::request("svc", "echo").with_trace(&call.ctx());
        // The trace header survives the textual wire form, as it must to cross a socket.
        let request = Envelope::from_wire(&request.to_wire()).unwrap();
        handler.handle(request).unwrap();
        let call_id = call.id;
        tracer.end(call);

        let mut spans = tracer.drain();
        assert_eq!(spans.len(), 4);
        let handler_span = *spans.iter().find(|s| s.kind == Kind::Handler).unwrap();
        assert_eq!(handler_span.parent, call_id);
        for backend_span in spans.iter().filter(|s| s.kind.is_backend()) {
            assert_eq!(backend_span.parent, handler_span.id);
            assert_eq!(backend_span.trace, call_id);
        }
        assert_eq!(tracer.put_entries.load(Ordering::Relaxed), 1);
        assert_eq!(tracer.put_bytes.load(Ordering::Relaxed), 6);
        assert_eq!(tracer.gets.load(Ordering::Relaxed), 1);
        let budget = analyse(&mut spans);
        assert_eq!(budget.calls, 1);
        assert!(budget.sum_gap().abs() < 1e-9);
    }
}

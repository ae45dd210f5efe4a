//! Design-choice ablations of the recording system, printed as four small tables:
//!
//! ```sh
//! cargo run --release --example ablations
//! ```
//!
//! * store backend (memory vs file-system vs database) under a bulk submission load;
//! * granularity partitioning (permutations per scheduled script) under a modelled grid
//!   overhead, reproducing the paper's argument that activity granularity must be coarse enough
//!   to offset scheduling and staging costs;
//! * asynchronous flush batch size (per-record submission vs batched submission);
//! * compressors: the ratio each codec family achieves on an encoded protein sample and on its
//!   permutation — the raw material of every compressibility measurement.
//!
//! Wall times are the median of a few runs on fresh stores, for exploration; throughput and
//! latency claims about the record path come from `examples/benchmark`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pasoa::bioseq::grouping::StandardGrouping;
use pasoa::bioseq::shuffle::shuffle_with_seed;
use pasoa::bioseq::synthetic::{SyntheticConfig, SyntheticGenerator};
use pasoa::compress::{compression_ratio, Method};
use pasoa::experiment::passertions::{interaction_assertion, script_assertion};
use pasoa::model::ids::{ActorId, IdGenerator, SessionId};
use pasoa::model::recorder::{AsyncRecorder, ProvenanceRecorder};
use pasoa::preserv::{FileBackend, KvBackend, MemoryBackend, PreservService, StorageBackend};
use pasoa::wire::{ServiceHost, SimClock, TransportConfig};
use pasoa::workflow::{GranularityPartitioner, OverheadModel};

/// Runs per wall-clock row; the row reports their median.
const REPS: usize = 5;

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pasoa-ablation-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Median wall time in milliseconds of `REPS` runs of `run`, each on fresh state from `setup`
/// (built and dropped outside the timed region).
fn median_ms<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(&S)) -> f64 {
    let mut times: Vec<f64> = (0..REPS)
        .map(|_| {
            let state = setup();
            let start = Instant::now();
            run(&state);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[REPS / 2]
}

/// A host serving one PReServ store over `backend`.
fn store_host(backend: Arc<dyn StorageBackend>) -> ServiceHost {
    let service = Arc::new(PreservService::with_backend(backend).unwrap());
    let host = ServiceHost::new();
    service.register(&host);
    host
}

/// Record `records` interaction p-assertions (each followed by its script p-assertion when
/// `with_scripts`) through an asynchronous recorder shipping `batch_size` at a time.
fn record(host: &ServiceHost, batch_size: usize, records: usize, with_scripts: bool) {
    let session = SessionId::new("session:ablation");
    let ids = IdGenerator::new("ablation");
    let recorder = AsyncRecorder::new(
        session.clone(),
        ActorId::new("ablation"),
        host.transport(TransportConfig::free()),
        ids.clone(),
        batch_size,
    );
    for i in 0..records {
        let key = ids.interaction_key();
        recorder
            .record(interaction_assertion(&session, key.clone(), i).assertion)
            .unwrap();
        if with_scripts {
            recorder
                .record(script_assertion(&session, key, i).assertion)
                .unwrap();
        }
    }
    recorder.flush().unwrap();
}

fn backend_ablation() {
    println!("== store backend: 120 p-assertions, async batches of 32 ==");
    for kind in ["memory", "file-system", "database"] {
        let ms = median_ms(
            || {
                let dir = TempDir::new(kind);
                let backend: Arc<dyn StorageBackend> = match kind {
                    "database" => Arc::new(KvBackend::open(&dir.0).unwrap()),
                    "file-system" => Arc::new(FileBackend::open(&dir.0).unwrap()),
                    _ => Arc::new(MemoryBackend::new()),
                };
                (store_host(backend), dir)
            },
            |(host, _dir)| record(host, 32, 60, true),
        );
        println!("{kind:>12}: {ms:>8.2} ms");
    }
}

fn granularity_ablation() {
    // Not a wall-clock measurement: the effect of granularity is a modelled-overhead
    // trade-off, so the table reports the modelled totals directly.
    println!("\n== granularity: 800 permutations, 30 s scheduling per script, ~100 ms each ==");
    let total_permutations = 800usize;
    let per_permutation_compute = Duration::from_millis(100); // the paper's ~100 ms compression
    for per_script in [1usize, 10, 100, 400] {
        let clock = SimClock::new();
        let overhead =
            OverheadModel::virtual_time(Duration::from_secs(30), Duration::ZERO, clock.clone());
        for _job in GranularityPartitioner::new(per_script).jobs(total_permutations) {
            overhead.charge(100 * 1024);
        }
        let scheduling = clock.elapsed();
        let compute = per_permutation_compute * total_permutations as u32;
        let total = scheduling + compute;
        println!(
            "{per_script:>4} permutations/script: scheduling overhead {:>7.1} s + compute {:>6.1} s = {:>7.1} s ({:.1} % overhead)",
            scheduling.as_secs_f64(),
            compute.as_secs_f64(),
            total.as_secs_f64(),
            100.0 * scheduling.as_secs_f64() / total.as_secs_f64()
        );
    }
}

fn batch_size_ablation() {
    println!("\n== async batch size: 96 interaction p-assertions, in-memory store ==");
    for batch_size in [1usize, 8, 64] {
        let ms = median_ms(
            || store_host(Arc::new(MemoryBackend::new())),
            |host| record(host, batch_size, 96, false),
        );
        println!("{batch_size:>4} per message: {ms:>8.2} ms");
    }
}

/// A Dayhoff-6 encoded synthetic protein sample of `len` bytes.
fn encoded_sample(len: usize) -> Vec<u8> {
    let generator = SyntheticGenerator::new(SyntheticConfig {
        sequence_count: 4,
        sequence_length: len / 4 + 1,
        ..Default::default()
    });
    let sample: Vec<u8> = generator
        .proteins()
        .into_iter()
        .flat_map(|s| s.residues)
        .take(len)
        .collect();
    StandardGrouping::Dayhoff6.coding().encode(&sample).unwrap()
}

fn compressor_ablation() {
    println!("\n== compressors: 32 KiB encoded sample vs its permutation ==");
    let sample = encoded_sample(32 * 1024);
    let permuted = shuffle_with_seed(&sample, 7);
    for method in Method::ALL {
        let compressor = method.compressor();
        println!(
            "{:>6}: encoded ratio {:.4}, permuted ratio {:.4}",
            method.name(),
            compression_ratio(sample.len(), compressor.compressed_len(&sample)),
            compression_ratio(permuted.len(), compressor.compressed_len(&permuted)),
        );
    }
}

fn main() {
    backend_ablation();
    granularity_ablation();
    batch_size_ablation();
    compressor_ablation();
}

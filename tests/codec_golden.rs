//! Byte identity of the three codecs, pinned by a golden fixture.
//!
//! Every (method, input) pair is compressed and its output recorded as the compressed length
//! plus an FNV-1a-64 hash of the compressed bytes. The inputs are the experiment's own data
//! (the default configuration's Dayhoff-6 encoded sample and its first three permutations,
//! and the small configuration's sample) and the edge shapes a codec rewrite is most likely to
//! get wrong: the empty input, one to three bytes, 100 KB of one byte, three windows of a
//! period-251 ramp and seeded random bytes. The Figure 4 sizes table of
//! `ExperimentConfig::small(4, RunRecording::None)` is pinned beside them.
//!
//! Each line of `tests/fixtures/codec_golden.txt` is either
//! `method<TAB>input<TAB>compressed length<TAB>fnv1a64 hex` or
//! `sizes<TAB>permutation<TAB>original length<TAB>method=size ...`.
//!
//! Regenerate the fixture only when a codec's output changes on purpose:
//! `cargo test --release --test codec_golden -- --ignored bless`.

use pasoa::bioseq::shuffle::shuffle_with_seed;
use pasoa::compress::lz77::WINDOW_SIZE;
use pasoa::compress::Method;
use pasoa::dag::{Activity, ActivityContext};
use pasoa::experiment::activities::{
    synthetic_inputs, CollateSampleActivity, EncodeByGroupsActivity,
};
use pasoa::experiment::{ExperimentConfig, ExperimentRunner, RunRecording, StoreDeployment};
use pasoa::model::ids::IdGenerator;
use pasoa::wire::NetworkProfile;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/codec_golden.txt"
);

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The group-coded sample a run of `config` measures, built by the workflow's own activities.
fn encoded_sample(config: &ExperimentConfig) -> Vec<u8> {
    let ids = IdGenerator::new("codec-golden");
    let ctx = ActivityContext::new(ids.clone());
    let inputs = synthetic_inputs(&config.synthetic, &ids);
    let sample = CollateSampleActivity {
        target_size: config.sample_size,
    }
    .invoke(&inputs, &ctx)
    .expect("synthetic inputs collate");
    let encoded = EncodeByGroupsActivity {
        coding: config.grouping.coding(),
    }
    .invoke(&sample, &ctx)
    .expect("a synthetic sample encodes");
    encoded[0].bytes.clone()
}

fn inputs() -> Vec<(String, Vec<u8>)> {
    let default = ExperimentConfig::default();
    let sample = encoded_sample(&default);
    let mut out = vec![("default-sample".to_string(), sample.clone())];
    for index in 1..=3u64 {
        out.push((
            format!("default-permutation-{index}"),
            shuffle_with_seed(&sample, default.seed.wrapping_add(index)),
        ));
    }
    let small = ExperimentConfig::small(4, RunRecording::None);
    out.push(("small-sample".to_string(), encoded_sample(&small)));
    out.push(("empty".to_string(), Vec::new()));
    out.push(("one-byte".to_string(), b"A".to_vec()));
    out.push(("two-bytes".to_string(), b"AB".to_vec()));
    out.push(("three-bytes".to_string(), b"ABA".to_vec()));
    out.push(("one-byte-100k".to_string(), vec![b'C'; 100 * 1024]));
    out.push((
        "period-251-3-windows".to_string(),
        (0..3 * WINDOW_SIZE).map(|i| (i % 251) as u8).collect(),
    ));
    // splitmix64, seeded: identical on every platform.
    let mut state = 0x5EED_C0DE_u64;
    let random = (0..20_000)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect();
    out.push(("random-20000".to_string(), random));
    out
}

fn generate() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, input) in inputs() {
        for method in Method::ALL {
            let codec = method.compressor();
            let bytes = codec.compress(&input);
            assert_eq!(
                codec.compressed_len(&input),
                bytes.len(),
                "{method} compressed_len disagrees with compress on {name}"
            );
            lines.push(format!(
                "{method}\t{name}\t{}\t{:016x}",
                bytes.len(),
                fnv1a64(&bytes)
            ));
        }
    }

    let deployment = StoreDeployment::in_memory(NetworkProfile::FastLocal.latency_model(), false);
    let report =
        ExperimentRunner::new(deployment).run(&ExperimentConfig::small(4, RunRecording::None));
    for entry in &report.sizes.entries {
        let sizes: Vec<String> = entry
            .sizes
            .iter()
            .map(|(method, size)| format!("{method}={size}"))
            .collect();
        lines.push(format!(
            "sizes\t{}\t{}\t{}",
            entry.permutation_index,
            entry.original_len,
            sizes.join(" ")
        ));
    }
    lines
}

#[test]
fn codecs_reproduce_the_golden_fixture() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("fixture exists; bless it first");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = generate();
    for (want, got) in expected.iter().zip(&actual) {
        assert_eq!(got, want, "codec output moved");
    }
    assert_eq!(actual.len(), expected.len(), "fixture covers every case");
}

#[test]
#[ignore]
fn bless() {
    let mut text = String::from(
        "# method\tinput\tcompressed length\tfnv1a64 | sizes\tpermutation\toriginal length\tsizes\n",
    );
    for line in generate() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, text).unwrap();
}

//! The Measure sub-workflow (Figure 2), executed once per permutation.
//!
//! For each permutation the sample is shuffled, compressed with each configured method, and the
//! sizes of the sample and its compressed forms are measured and collated. Provenance is
//! recorded "for every single activity of the measure workflow, for every permutation (and not
//! just for every script directly scheduled by Condor)": following the paper's accounting,
//! **each permutation produces six p-assertions** — the interaction p-assertions of the two
//! compression invocations and of the collate-sizes step (three), the compression scripts as an
//! actor-state p-assertion, one relationship p-assertion linking the sizes to the permuted
//! sample, and the measure-size interaction — plus two further actor-state p-assertions when
//! the "extra actor provenance" configuration is active.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pasoa_bioseq::shuffle::shuffle_with_seed;
use pasoa_compress::{Compressor, Method};
use pasoa_core::ids::{ActorId, DataId, IdGenerator};
use pasoa_core::passertion::{
    ActorStateKind, ActorStatePAssertion, InteractionPAssertion, PAssertion, PAssertionContent,
    RelationshipPAssertion, ViewKind,
};
use pasoa_core::recorder::{ProvenanceRecorder, RecordError};

/// Number of p-assertions recorded per permutation in the standard configurations.
pub const RECORDS_PER_PERMUTATION: usize = 6;
/// Additional p-assertions recorded per permutation with extra actor provenance.
pub const EXTRA_RECORDS_PER_PERMUTATION: usize = 2;

/// The result of measuring one permutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureOutcome {
    /// Permutation number (0 = the unpermuted encoded sample).
    pub permutation_index: usize,
    /// Length of the (encoded) sample in bytes.
    pub original_len: usize,
    /// Compressed size per method.
    pub sizes: BTreeMap<Method, usize>,
}

/// The compressor set of a sweep, built once per run. The codecs are stateless: each call
/// allocates its own tables (the ppm context model, the LZ77 bucket lists), so what a
/// measurement costs is the compression itself, not the kit.
pub struct MeasureKit {
    compressors: Vec<(Method, Arc<dyn Compressor>)>,
}

impl MeasureKit {
    /// Build the kit for the given methods.
    pub fn new(methods: &[Method]) -> Self {
        MeasureKit {
            compressors: methods.iter().map(|&m| (m, m.compressor())).collect(),
        }
    }

    /// The methods in use.
    pub fn methods(&self) -> Vec<Method> {
        self.compressors.iter().map(|(m, _)| *m).collect()
    }

    /// Run the Measure sub-workflow for permutation `index` of `encoded_sample`: its
    /// [`Self::sizes`], then its [`Self::document`]ation. Sweeps call the two separately (the
    /// sizes on many threads, the documentation in order); the tests use this pairing.
    #[cfg(test)]
    pub(crate) fn measure(
        &self,
        encoded_sample: &[u8],
        index: usize,
        base_seed: u64,
        recorder: &dyn ProvenanceRecorder,
        ids: &IdGenerator,
        extra_actor_state: bool,
    ) -> Result<MeasureOutcome, RecordError> {
        let outcome = self.sizes(encoded_sample, index, base_seed);
        self.document(&outcome, recorder, ids, extra_actor_state)?;
        Ok(outcome)
    }

    /// The science of permutation `index`: the sample's length and its compressed size under
    /// each method. Index 0 measures the sample itself; higher indices measure seeded
    /// permutations. Touches no shared state, so sweeps call it from many threads at once.
    pub fn sizes(&self, encoded_sample: &[u8], index: usize, base_seed: u64) -> MeasureOutcome {
        let data: Cow<'_, [u8]> = if index == 0 {
            Cow::Borrowed(encoded_sample)
        } else {
            Cow::Owned(shuffle_with_seed(
                encoded_sample,
                base_seed.wrapping_add(index as u64),
            ))
        };
        let sizes = self
            .compressors
            .iter()
            .map(|(method, compressor)| (*method, compressor.compressed_len(&data)))
            .collect();
        MeasureOutcome {
            permutation_index: index,
            original_len: data.len(),
            sizes,
        }
    }

    /// Record the per-permutation p-assertions (six, plus two in the extra configuration).
    ///
    /// Draws three interaction keys from `ids`, so the documentation of a run is reproducible
    /// only if its measurements are documented in a fixed order.
    pub fn document(
        &self,
        outcome: &MeasureOutcome,
        recorder: &dyn ProvenanceRecorder,
        ids: &IdGenerator,
        extra_actor_state: bool,
    ) -> Result<(), RecordError> {
        let engine = ActorId::new("measure-workflow");
        let permutation_data = DataId::new(format!(
            "data:permutation:{}:{}",
            recorder.session().as_str(),
            outcome.permutation_index
        ));
        let sizes_data = DataId::new(format!(
            "data:sizes:{}:{}",
            recorder.session().as_str(),
            outcome.permutation_index
        ));

        // 1 & 2: the compression invocations (one interaction p-assertion per compression
        // method, from the sender's view).
        let mut recorded = 0usize;
        for (method, _) in self.compressors.iter().take(2) {
            let key = ids.interaction_key();
            recorder.record(PAssertion::Interaction(InteractionPAssertion {
                interaction_key: key,
                asserter: engine.clone(),
                view: ViewKind::Sender,
                sender: engine.clone(),
                receiver: ActorId::new(format!("{}-compression", method.name())),
                operation: format!("{}-compress", method.name()),
                content: PAssertionContent::text(format!(
                    "compress permutation {} ({} bytes)",
                    outcome.permutation_index, outcome.original_len
                )),
                data_ids: vec![permutation_data.clone()],
            }))?;
            recorded += 1;
        }
        // 3: the measure-size interaction.
        let measure_key = ids.interaction_key();
        recorder.record(PAssertion::Interaction(InteractionPAssertion {
            interaction_key: measure_key.clone(),
            asserter: engine.clone(),
            view: ViewKind::Sender,
            sender: engine.clone(),
            receiver: ActorId::new("measure-size"),
            operation: "measure-size".into(),
            content: PAssertionContent::structured(&outcome.sizes),
            data_ids: vec![permutation_data.clone(), sizes_data.clone()],
        }))?;
        recorded += 1;
        // 4: the collate-sizes interaction (receiver view, documenting the sizes row).
        let collate_key = ids.interaction_key();
        recorder.record(PAssertion::Interaction(InteractionPAssertion {
            interaction_key: collate_key.clone(),
            asserter: ActorId::new("collate-sizes"),
            view: ViewKind::Receiver,
            sender: engine.clone(),
            receiver: ActorId::new("collate-sizes"),
            operation: "collate-sizes".into(),
            content: PAssertionContent::structured(outcome),
            data_ids: vec![sizes_data.clone()],
        }))?;
        recorded += 1;
        // 5: the compression scripts as actor state.
        recorder.record(PAssertion::ActorState(ActorStatePAssertion {
            interaction_key: measure_key.clone(),
            asserter: ActorId::new("compression-services"),
            view: ViewKind::Receiver,
            kind: ActorStateKind::Script,
            content: PAssertionContent::text(self.script_text()),
        }))?;
        recorded += 1;
        // 6: the relationship linking the sizes row to the permuted sample.
        recorder.record(PAssertion::Relationship(RelationshipPAssertion {
            interaction_key: collate_key,
            asserter: ActorId::new("measure-size"),
            effect: sizes_data,
            causes: vec![(measure_key.clone(), permutation_data)],
            relation: "measured-from".into(),
        }))?;
        recorded += 1;
        debug_assert_eq!(recorded, 4 + self.compressors.len().min(2));

        if extra_actor_state {
            recorder.record(PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: measure_key.clone(),
                asserter: ActorId::new("compression-services"),
                view: ViewKind::Receiver,
                kind: ActorStateKind::Configuration,
                content: PAssertionContent::structured(&serde_json::json!({
                    "methods": self.methods().iter().map(|m| m.name()).collect::<Vec<_>>(),
                    "permutation": outcome.permutation_index,
                })),
            }))?;
            recorder.record(PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: measure_key,
                asserter: ActorId::new("compression-services"),
                view: ViewKind::Receiver,
                kind: ActorStateKind::ResourceUsage,
                content: PAssertionContent::structured(&serde_json::json!({
                    "input_bytes": outcome.original_len,
                    "output_bytes": outcome.sizes.values().sum::<usize>(),
                })),
            }))?;
        }
        Ok(())
    }

    /// The combined script text recorded as actor state — ~100 bytes, matching the paper's
    /// description of the recorded script contents.
    pub fn script_text(&self) -> String {
        let methods: Vec<String> = self
            .methods()
            .iter()
            .map(|m| format!("{} -9 < $PERM > $PERM.{}", m.name(), m.name()))
            .collect();
        methods.join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::SessionId;
    use pasoa_core::recorder::NullRecorder;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A recorder that only counts.
    struct CountingRecorder {
        session: SessionId,
        count: AtomicUsize,
    }

    impl ProvenanceRecorder for CountingRecorder {
        fn session(&self) -> &SessionId {
            &self.session
        }
        fn record(&self, _a: PAssertion) -> Result<(), RecordError> {
            self.count.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn register_group(&self, _g: pasoa_core::group::Group) -> Result<(), RecordError> {
            Ok(())
        }
        fn flush(&self) -> Result<(), RecordError> {
            Ok(())
        }
        fn stats(&self) -> pasoa_core::recorder::RecorderStats {
            Default::default()
        }
        fn mode(&self) -> pasoa_core::recorder::RecordingMode {
            pasoa_core::recorder::RecordingMode::None
        }
    }

    fn sample() -> Vec<u8> {
        b"ABCDEF".iter().cycle().take(5_000).copied().collect()
    }

    #[test]
    fn measure_produces_sizes_for_every_method() {
        let kit = MeasureKit::new(&[Method::Gzip, Method::Ppmz]);
        let recorder = NullRecorder::new(SessionId::new("s"));
        let ids = IdGenerator::new("m");
        let outcome = kit
            .measure(&sample(), 0, 7, &recorder, &ids, false)
            .unwrap();
        assert_eq!(outcome.permutation_index, 0);
        assert_eq!(outcome.original_len, 5_000);
        assert_eq!(outcome.sizes.len(), 2);
        assert!(outcome.sizes[&Method::Gzip] > 0);
        assert!(outcome.sizes[&Method::Ppmz] > 0);
        assert_eq!(kit.methods(), vec![Method::Gzip, Method::Ppmz]);
        assert!(kit.script_text().contains("gzip"));
    }

    #[test]
    fn permutations_compress_worse_than_the_structured_original() {
        let kit = MeasureKit::new(&[Method::Gzip]);
        let recorder = NullRecorder::new(SessionId::new("s"));
        let ids = IdGenerator::new("m");
        let original = kit
            .measure(&sample(), 0, 7, &recorder, &ids, false)
            .unwrap();
        let mut permuted_sizes = Vec::new();
        for i in 1..=5 {
            let p = kit
                .measure(&sample(), i, 7, &recorder, &ids, false)
                .unwrap();
            assert_eq!(p.original_len, original.original_len);
            permuted_sizes.push(p.sizes[&Method::Gzip]);
        }
        let mean: f64 = permuted_sizes.iter().sum::<usize>() as f64 / permuted_sizes.len() as f64;
        assert!(
            (original.sizes[&Method::Gzip] as f64) < mean,
            "shuffling must destroy the structure the compressor exploits"
        );
    }

    #[test]
    fn exactly_six_records_per_permutation() {
        let kit = MeasureKit::new(&[Method::Gzip, Method::Ppmz]);
        let recorder = CountingRecorder {
            session: SessionId::new("s"),
            count: AtomicUsize::new(0),
        };
        let ids = IdGenerator::new("m");
        kit.measure(&sample(), 3, 7, &recorder, &ids, false)
            .unwrap();
        assert_eq!(
            recorder.count.load(Ordering::SeqCst),
            RECORDS_PER_PERMUTATION
        );
        kit.measure(&sample(), 4, 7, &recorder, &ids, true).unwrap();
        assert_eq!(
            recorder.count.load(Ordering::SeqCst),
            2 * RECORDS_PER_PERMUTATION + EXTRA_RECORDS_PER_PERMUTATION
        );
    }

    #[test]
    fn same_seed_and_index_reproduce_the_same_sizes() {
        let kit = MeasureKit::new(&[Method::Gzip]);
        let a = kit.sizes(&sample(), 5, 99);
        let b = kit.sizes(&sample(), 5, 99);
        let c = kit.sizes(&sample(), 6, 99);
        assert_eq!(a, b);
        assert_eq!(a.sizes.len(), 1);
        assert_ne!(a.permutation_index, c.permutation_index);
    }

    #[test]
    fn measure_is_sizes_then_document() {
        let kit = MeasureKit::new(&[Method::Gzip, Method::Ppmz]);
        let recorder = CountingRecorder {
            session: SessionId::new("s"),
            count: AtomicUsize::new(0),
        };
        let ids = IdGenerator::new("m");
        for index in 0..3 {
            let measured = kit
                .measure(&sample(), index, 7, &recorder, &ids, false)
                .unwrap();
            assert_eq!(measured, kit.sizes(&sample(), index, 7));
        }
        assert_eq!(
            recorder.count.load(Ordering::SeqCst),
            3 * RECORDS_PER_PERMUTATION
        );
        // Index 0 is the sample itself; a permutation keeps its length but not its bytes.
        let original = kit.sizes(&sample(), 0, 7);
        let permuted = kit.sizes(&sample(), 1, 7);
        assert_eq!(original.original_len, sample().len());
        assert_eq!(permuted.original_len, sample().len());
        assert!(original.sizes[&Method::Gzip] < permuted.sizes[&Method::Gzip]);
    }

    #[test]
    fn single_method_kit_still_records_six() {
        let kit = MeasureKit::new(&[Method::Bzip2]);
        let recorder = CountingRecorder {
            session: SessionId::new("s"),
            count: AtomicUsize::new(0),
        };
        let ids = IdGenerator::new("m");
        kit.measure(&sample(), 1, 1, &recorder, &ids, false)
            .unwrap();
        // One fewer compression interaction, but the count invariant the paper reports is per
        // permutation, not per method; with a single method we record 5.
        assert_eq!(recorder.count.load(Ordering::SeqCst), 5);
    }
}

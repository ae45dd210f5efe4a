//! The coarse-grained activities of the Figure 1 compressibility workflow.
//!
//! Collate Sample and Encode by Groups are [`pasoa_dag::Activity`] services: the experiment
//! invokes them through [`pasoa_dag::Invocation`], which documents each invocation with the
//! paper's standard p-assertions. The per-permutation work (Shuffle, Measure, Collate Sizes)
//! lives in [`crate::measure`] and the averaging in [`crate::results`].

use pasoa_bioseq::grouping::GroupCoding;
use pasoa_bioseq::sample::collate_sample;
use pasoa_bioseq::sequence::Sequence;
use pasoa_dag::{Activity, ActivityContext, ActivityError, DataItem};

/// Semantic type names used when registering these services (see `pasoa-registry`).
pub mod semantic {
    pub use pasoa_registry::ontology::types::*;
}

/// *Collate Sample*: concatenate input sequences (FASTA text items) into a sample of the target
/// size.
pub struct CollateSampleActivity {
    /// Target sample size in residues (the paper uses ≈100 KB).
    pub target_size: usize,
}

impl Activity for CollateSampleActivity {
    fn name(&self) -> &str {
        "collate-sample"
    }

    fn script(&self) -> String {
        format!("collate-sample --target-bytes {}", self.target_size)
    }

    fn invoke(
        &self,
        inputs: &[DataItem],
        ctx: &ActivityContext,
    ) -> Result<Vec<DataItem>, ActivityError> {
        let mut sequences = Vec::new();
        for item in inputs {
            let parsed = pasoa_bioseq::fasta::parse_fasta(&item.as_text())
                .map_err(|e| ActivityError::new(self.name(), e.to_string()))?;
            sequences.extend(parsed);
        }
        if sequences.is_empty() {
            return Err(ActivityError::new(self.name(), "no input sequences"));
        }
        let sample = collate_sample("sample", &sequences, self.target_size);
        Ok(vec![DataItem::new(
            ctx.ids.data_id(),
            "sample",
            sample.residues,
        )
        .with_semantic_type(semantic::PROTEIN_SAMPLE)])
    }

    fn input_types(&self) -> Vec<String> {
        vec![semantic::AMINO_ACID_SEQUENCE.to_string()]
    }

    fn output_types(&self) -> Vec<String> {
        vec![semantic::PROTEIN_SAMPLE.to_string()]
    }
}

/// *Encode by Groups*: recode the sample with a reduced amino-acid alphabet.
pub struct EncodeByGroupsActivity {
    /// The group coding to apply.
    pub coding: GroupCoding,
}

impl Activity for EncodeByGroupsActivity {
    fn name(&self) -> &str {
        "encode-by-groups"
    }

    fn script(&self) -> String {
        format!(
            "encode-by-groups --grouping '{}'",
            self.coding.spec_string()
        )
    }

    fn invoke(
        &self,
        inputs: &[DataItem],
        ctx: &ActivityContext,
    ) -> Result<Vec<DataItem>, ActivityError> {
        let sample = inputs
            .first()
            .ok_or_else(|| ActivityError::new(self.name(), "missing sample input"))?;
        let encoded = self
            .coding
            .encode(&sample.bytes)
            .map_err(|e| ActivityError::new(self.name(), e.to_string()))?;
        Ok(vec![DataItem::new(
            ctx.ids.data_id(),
            "encoded-sample",
            encoded,
        )
        .with_semantic_type(semantic::GROUP_ENCODED_SAMPLE)])
    }

    fn input_types(&self) -> Vec<String> {
        // A protein sample is a subtype of an amino-acid sequence in the registry ontology;
        // both are listed so the DAG builder's flat overlap check accepts either producer.
        vec![
            semantic::PROTEIN_SAMPLE.to_string(),
            semantic::AMINO_ACID_SEQUENCE.to_string(),
        ]
    }

    fn output_types(&self) -> Vec<String> {
        vec![semantic::GROUP_ENCODED_SAMPLE.to_string()]
    }
}

/// Generate the FASTA input items the workflow starts from (the RefSeq substitute).
pub fn synthetic_inputs(
    config: &pasoa_bioseq::synthetic::SyntheticConfig,
    ids: &pasoa_core::ids::IdGenerator,
) -> Vec<DataItem> {
    let generator = pasoa_bioseq::synthetic::SyntheticGenerator::new(config.clone());
    let sequences: Vec<Sequence> = generator.proteins();
    let fasta = pasoa_bioseq::fasta::write_fasta(&sequences);
    vec![
        DataItem::new(ids.data_id(), "sequences", fasta.into_bytes())
            .with_semantic_type(semantic::AMINO_ACID_SEQUENCE),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_bioseq::grouping::StandardGrouping;
    use pasoa_bioseq::synthetic::SyntheticConfig;
    use pasoa_core::ids::IdGenerator;

    fn ctx() -> ActivityContext {
        ActivityContext::new(IdGenerator::new("test"))
    }

    #[test]
    fn collate_then_encode_pipeline() {
        let ids = IdGenerator::new("test");
        let inputs = synthetic_inputs(
            &SyntheticConfig {
                sequence_count: 8,
                sequence_length: 2000,
                ..Default::default()
            },
            &ids,
        );
        let collate = CollateSampleActivity {
            target_size: 10_000,
        };
        let sample = collate.invoke(&inputs, &ctx()).unwrap();
        assert_eq!(sample.len(), 1);
        assert_eq!(sample[0].len(), 10_000);
        assert_eq!(
            sample[0].semantic_type.as_deref(),
            Some(semantic::PROTEIN_SAMPLE)
        );

        let encode = EncodeByGroupsActivity {
            coding: StandardGrouping::Dayhoff6.coding(),
        };
        let encoded = encode.invoke(&sample, &ctx()).unwrap();
        assert_eq!(encoded[0].len(), 10_000);
        // Dayhoff reduces to 6 distinct symbols.
        let distinct: std::collections::BTreeSet<u8> = encoded[0].bytes.iter().copied().collect();
        assert!(distinct.len() <= 6);
        assert!(collate.script().contains("10000"));
        assert!(encode.script().contains("AGPST"));
    }

    #[test]
    fn collate_rejects_empty_and_bad_input() {
        let collate = CollateSampleActivity { target_size: 100 };
        assert!(collate.invoke(&[], &ctx()).is_err());
        let bad = DataItem::new(
            pasoa_core::ids::DataId::new("d"),
            "x",
            b"residues without a header\n>".to_vec(),
        );
        assert!(collate.invoke(&[bad], &ctx()).is_err());
    }

    #[test]
    fn encode_requires_an_input_and_valid_residues() {
        let encode = EncodeByGroupsActivity {
            coding: StandardGrouping::Dayhoff6.coding(),
        };
        assert!(encode.invoke(&[], &ctx()).is_err());
        let bad = DataItem::new(
            pasoa_core::ids::DataId::new("d"),
            "sample",
            b"MK1L".to_vec(),
        );
        assert!(encode.invoke(&[bad], &ctx()).is_err());
    }

    #[test]
    fn activity_semantic_declarations_are_consistent() {
        let collate = CollateSampleActivity { target_size: 10 };
        let encode = EncodeByGroupsActivity {
            coding: StandardGrouping::Dayhoff6.coding(),
        };
        assert_eq!(
            collate.output_types(),
            vec![semantic::PROTEIN_SAMPLE.to_string()]
        );
        assert!(encode
            .input_types()
            .contains(&semantic::AMINO_ACID_SEQUENCE.to_string()));
        assert!(encode.input_types().contains(&collate.output_types()[0]));
    }
}

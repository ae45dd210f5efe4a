//! Synthetic sequence generation — the RefSeq substitute.
//!
//! The paper downloads microbial protein sequences from RefSeq. That data source is external
//! and versioned, so this reproduction generates synthetic sequences instead: residues are
//! drawn from the average amino-acid composition of known proteomes (Swiss-Prot long-run
//! frequencies), optionally mixed with a first-order Markov component and short repeated
//! motifs so the sequences contain genuine context-dependent correlations for the compressors
//! to discover. The generator is fully seeded, so a provenance record of (seed, config)
//! reproduces the exact input data — which is precisely the property the paper wants from its
//! logbook.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::alphabet::AMINO_ACIDS;
use crate::sequence::Sequence;

/// Average amino-acid composition (fraction per residue) in the order of [`AMINO_ACIDS`].
/// Values approximate the long-run Swiss-Prot composition and sum to 1.
pub const AVERAGE_COMPOSITION: [f64; 20] = [
    0.0826, // A
    0.0137, // C
    0.0546, // D
    0.0672, // E
    0.0386, // F
    0.0708, // G
    0.0227, // H
    0.0593, // I
    0.0582, // K
    0.0965, // L
    0.0241, // M
    0.0406, // N
    0.0472, // P
    0.0393, // Q
    0.0553, // R
    0.0660, // S
    0.0535, // T
    0.0687, // V
    0.0110, // W
    0.0292, // Y
];

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Base RNG seed; sequence `i` uses `seed + i`.
    pub seed: u64,
    /// Number of sequences to generate.
    pub sequence_count: usize,
    /// Length of each sequence in residues.
    pub sequence_length: usize,
    /// Probability (0..1) that the next residue repeats a recent context rather than being
    /// drawn independently — this is what creates compressible structure.
    pub correlation: f64,
    /// Probability (0..1) of inserting a conserved motif at any position.
    pub motif_rate: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            seed: 20050624, // HPDC 2005
            sequence_count: 32,
            sequence_length: 4096,
            correlation: 0.35,
            motif_rate: 0.01,
        }
    }
}

/// Seeded generator of synthetic protein (or nucleotide) sequences.
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    config: SyntheticConfig,
}

/// A handful of conserved motifs (real, well-known sequence signatures) that the generator
/// sprinkles through its output to create repeated substructure.
const MOTIFS: [&[u8]; 4] = [
    b"GXGXXG",  // Rossmann-fold phosphate-binding loop (X replaced at generation time)
    b"HEXXH",   // zinc-metallopeptidase signature
    b"CXXCXXC", // cysteine-rich cluster
    b"WSXWS",   // cytokine receptor signature
];

impl SyntheticGenerator {
    /// Create a generator with the given configuration.
    pub fn new(config: SyntheticConfig) -> Self {
        SyntheticGenerator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Generate the full set of protein sequences described by the configuration.
    pub fn proteins(&self) -> Vec<Sequence> {
        (0..self.config.sequence_count)
            .map(|i| self.protein(i))
            .collect()
    }

    /// Generate protein sequence number `index`.
    pub fn protein(&self, index: usize) -> Sequence {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(index as u64));
        let mut residues = Vec::with_capacity(self.config.sequence_length);
        while residues.len() < self.config.sequence_length {
            if rng.gen_bool(self.config.motif_rate.clamp(0.0, 1.0)) {
                let motif = MOTIFS[rng.gen_range(0..MOTIFS.len())];
                for &m in motif {
                    let residue = if m == b'X' {
                        Self::sample_composition(&mut rng)
                    } else {
                        m
                    };
                    residues.push(residue);
                    if residues.len() == self.config.sequence_length {
                        break;
                    }
                }
                continue;
            }
            let correlated =
                !residues.is_empty() && rng.gen_bool(self.config.correlation.clamp(0.0, 1.0));
            let residue = if correlated {
                // Re-use a residue from the recent past (a crude stand-in for the local
                // compositional bias real proteins show in helices, sheets and repeats).
                let back = rng.gen_range(1..=residues.len().min(8));
                residues[residues.len() - back]
            } else {
                Self::sample_composition(&mut rng)
            };
            residues.push(residue);
        }
        Sequence::new(
            format!("synthetic|{:08}", index),
            format!(
                "synthetic protein seed={} corr={:.2}",
                self.config.seed.wrapping_add(index as u64),
                self.config.correlation
            ),
            &residues,
        )
    }

    /// Generate a nucleotide sequence of the configured length — used to reproduce the
    /// "accidentally fed DNA into the protein pipeline" scenario of use case 2.
    pub fn nucleotide(&self, index: usize) -> Sequence {
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0xD4A ^ index as u64));
        let bases = [b'A', b'C', b'G', b'T'];
        let residues: Vec<u8> = (0..self.config.sequence_length)
            .map(|_| bases[rng.gen_range(0..4)])
            .collect();
        Sequence::new(
            format!("synthetic-dna|{:08}", index),
            "synthetic nucleotide sequence".to_string(),
            &residues,
        )
    }

    fn sample_composition(rng: &mut StdRng) -> u8 {
        let mut target: f64 = rng.gen_range(0.0..1.0);
        for (i, &p) in AVERAGE_COMPOSITION.iter().enumerate() {
            if target < p {
                return AMINO_ACIDS[i];
            }
            target -= p;
        }
        AMINO_ACIDS[19]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::sequence::SequenceKind;
    use crate::stats::entropy_bits_per_symbol;

    #[test]
    fn composition_sums_to_one() {
        let total: f64 = AVERAGE_COMPOSITION.iter().sum();
        assert!((total - 1.0).abs() < 0.01, "composition sums to {total}");
        assert_eq!(AVERAGE_COMPOSITION.len(), AMINO_ACIDS.len());
    }

    #[test]
    fn generated_proteins_are_valid_and_deterministic() {
        let config = SyntheticConfig {
            sequence_count: 4,
            sequence_length: 500,
            ..Default::default()
        };
        let gen = SyntheticGenerator::new(config.clone());
        let a = gen.proteins();
        let b = SyntheticGenerator::new(config).proteins();
        assert_eq!(a, b, "same seed must reproduce identical data");
        assert_eq!(a.len(), 4);
        for seq in &a {
            assert_eq!(seq.len(), 500);
            assert!(Alphabet::AminoAcid.validates(&seq.residues));
            assert_eq!(seq.kind(), SequenceKind::Protein);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticGenerator::new(SyntheticConfig {
            seed: 1,
            ..Default::default()
        })
        .protein(0);
        let b = SyntheticGenerator::new(SyntheticConfig {
            seed: 2,
            ..Default::default()
        })
        .protein(0);
        assert_ne!(a.residues, b.residues);
    }

    #[test]
    fn correlation_creates_compressible_structure() {
        let flat = SyntheticGenerator::new(SyntheticConfig {
            correlation: 0.0,
            motif_rate: 0.0,
            sequence_length: 20_000,
            sequence_count: 1,
            ..Default::default()
        })
        .protein(0);
        let structured = SyntheticGenerator::new(SyntheticConfig {
            correlation: 0.7,
            motif_rate: 0.05,
            sequence_length: 20_000,
            sequence_count: 1,
            ..Default::default()
        })
        .protein(0);
        // Entropy alone barely moves, but conditional structure should: adjacent-pair repeat
        // frequency is a cheap proxy.
        let repeats = |s: &[u8]| s.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats(&structured.residues) > repeats(&flat.residues) * 2);
        assert!(entropy_bits_per_symbol(&flat.residues) > 3.9);
    }

    #[test]
    fn nucleotide_sequences_trigger_the_use_case_2_trap() {
        let gen = SyntheticGenerator::new(SyntheticConfig::default());
        let dna = gen.nucleotide(0);
        assert_eq!(dna.kind(), SequenceKind::Nucleotide);
        // And crucially, it also validates as protein input.
        assert!(Alphabet::AminoAcid.validates(&dna.residues));
    }

    #[test]
    fn generated_ids_are_unique() {
        let gen = SyntheticGenerator::new(SyntheticConfig {
            sequence_count: 16,
            sequence_length: 50,
            ..Default::default()
        });
        let seqs = gen.proteins();
        let ids: std::collections::BTreeSet<&String> = seqs.iter().map(|s| &s.id).collect();
        assert_eq!(ids.len(), 16);
    }
}

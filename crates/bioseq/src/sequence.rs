//! Sequences and their classification.

use serde::{Deserialize, Serialize};

use crate::alphabet::classify;
#[cfg(test)]
use crate::alphabet::Alphabet;

/// What kind of biological sequence a record most plausibly is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SequenceKind {
    /// Valid only as an amino-acid sequence.
    Protein,
    /// Valid as a nucleotide sequence (and therefore, by symbol inclusion, also as protein —
    /// the ambiguity at the heart of use case 2).
    Nucleotide,
    /// Contains symbols outside both alphabets.
    Unknown,
}

/// A named residue sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sequence {
    /// Record identifier (the FASTA header up to the first whitespace).
    pub id: String,
    /// Free-text description (remainder of the FASTA header).
    pub description: String,
    /// Residues, upper-cased.
    pub residues: Vec<u8>,
}

impl Sequence {
    /// Create a sequence, upper-casing residues.
    pub fn new(id: impl Into<String>, description: impl Into<String>, residues: &[u8]) -> Self {
        Sequence {
            id: id.into(),
            description: description.into(),
            residues: residues.iter().map(|r| r.to_ascii_uppercase()).collect(),
        }
    }

    /// Number of residues.
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Classify this sequence. A sequence valid as DNA is reported as [`SequenceKind::Nucleotide`]
    /// even though it also passes the amino-acid check, because that is the conservative reading
    /// a semantic validator must apply.
    pub fn kind(&self) -> SequenceKind {
        let fit = classify(&self.residues);
        if fit.nucleotide && !self.residues.is_empty() {
            SequenceKind::Nucleotide
        } else if fit.amino_acid && !self.residues.is_empty() {
            SequenceKind::Protein
        } else {
            SequenceKind::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_uppercases() {
        let s = Sequence::new("p1", "test protein", b"mkvlaagg");
        assert_eq!(s.residues, b"MKVLAAGG");
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
    }

    #[test]
    fn protein_classification() {
        let s = Sequence::new("p", "", b"MKVLWYQN");
        assert_eq!(s.kind(), SequenceKind::Protein);
        assert!(Alphabet::AminoAcid.validates(&s.residues));
        assert!(!Alphabet::Nucleotide.validates(&s.residues));
    }

    #[test]
    fn nucleotide_classification_wins_over_protein() {
        // ACGT-only content is flagged as nucleotide even though the symbols are legal amino
        // acids — exactly the ambiguity use case 2 guards against.
        let s = Sequence::new("n", "", b"ACGTACGTACGT");
        assert_eq!(s.kind(), SequenceKind::Nucleotide);
        assert!(Alphabet::AminoAcid.validates(&s.residues));
    }

    #[test]
    fn unknown_classification() {
        assert_eq!(
            Sequence::new("x", "", b"HELLO WORLD!").kind(),
            SequenceKind::Unknown
        );
        assert_eq!(Sequence::new("e", "", b"").kind(), SequenceKind::Unknown);
    }

    #[test]
    fn serde_roundtrip() {
        let s = Sequence::new("p1", "desc", b"MKVL");
        let json = serde_json::to_string(&s).unwrap();
        let back: Sequence = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

//! Amino-acid group codings (reduced alphabets).
//!
//! The paper (following Sampath 2003) recodes amino-acid sequences by replacing each residue
//! with a symbol for the *group* it belongs to before compressing: "if the compression of the
//! sequences serves only to quantify structure and decompression is not intended, the sequences
//! can be recoded with a reduced alphabet". This module provides the group codings used by the
//! *Encode by Groups* activity, including several standard reductions from the literature, and
//! the recoding itself.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

#[cfg(test)]
use crate::alphabet::AMINO_ACIDS;

/// A named partition of the amino-acid alphabet into groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupCoding {
    /// Human-readable name recorded in provenance (it is part of what makes two runs of the
    /// experiment comparable — use case 1).
    pub name: String,
    /// The groups; each inner vector lists the residues belonging to that group.
    pub groups: Vec<Vec<u8>>,
}

/// Error produced when constructing or applying a group coding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupingError {
    /// A residue appears in more than one group.
    DuplicateResidue(u8),
    /// A residue of the input sequence belongs to no group.
    UnmappedResidue(u8),
    /// The coding has no groups at all.
    Empty,
}

impl std::fmt::Display for GroupingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupingError::DuplicateResidue(r) => {
                write!(f, "residue {} appears in more than one group", *r as char)
            }
            GroupingError::UnmappedResidue(r) => {
                write!(f, "residue {} belongs to no group", *r as char)
            }
            GroupingError::Empty => write!(f, "group coding has no groups"),
        }
    }
}

impl std::error::Error for GroupingError {}

impl GroupCoding {
    /// Create a coding from explicit groups, validating that no residue is duplicated.
    pub fn new(name: impl Into<String>, groups: Vec<Vec<u8>>) -> Result<Self, GroupingError> {
        if groups.is_empty() {
            return Err(GroupingError::Empty);
        }
        let mut seen = BTreeMap::new();
        let normalized: Vec<Vec<u8>> = groups
            .into_iter()
            .map(|g| {
                g.into_iter()
                    .map(|r| r.to_ascii_uppercase())
                    .collect::<Vec<u8>>()
            })
            .collect();
        for (gi, group) in normalized.iter().enumerate() {
            for &residue in group {
                if seen.insert(residue, gi).is_some() {
                    return Err(GroupingError::DuplicateResidue(residue));
                }
            }
        }
        Ok(GroupCoding {
            name: name.into(),
            groups: normalized,
        })
    }

    /// Parse a coding from a compact specification such as `"AGPST|C|DENQ|FWY|HKR|ILMV"`.
    pub fn from_spec(name: impl Into<String>, spec: &str) -> Result<Self, GroupingError> {
        let groups: Vec<Vec<u8>> = spec
            .split('|')
            .map(|g| g.trim().bytes().collect())
            .filter(|g: &Vec<u8>| !g.is_empty())
            .collect();
        Self::new(name, groups)
    }

    /// The symbol emitted for group `index` (groups are written as `A`, `B`, `C`, ... so the
    /// recoded sequence is still printable text).
    pub fn group_symbol(index: usize) -> u8 {
        debug_assert!(index < 26);
        b'A' + index as u8
    }

    /// Recode `sequence`: each residue is replaced by its group symbol.
    pub fn encode(&self, sequence: &[u8]) -> Result<Vec<u8>, GroupingError> {
        let mut table = [None::<u8>; 256];
        for (gi, group) in self.groups.iter().enumerate() {
            for &residue in group {
                table[residue as usize] = Some(Self::group_symbol(gi));
                table[residue.to_ascii_lowercase() as usize] = Some(Self::group_symbol(gi));
            }
        }
        let mut out = Vec::with_capacity(sequence.len());
        for &residue in sequence {
            match table[residue as usize] {
                Some(symbol) => out.push(symbol),
                None => return Err(GroupingError::UnmappedResidue(residue)),
            }
        }
        Ok(out)
    }

    /// A one-line description of the partition, stored in provenance actor-state p-assertions.
    pub fn spec_string(&self) -> String {
        self.groups
            .iter()
            .map(|g| String::from_utf8_lossy(g).into_owned())
            .collect::<Vec<_>>()
            .join("|")
    }
}

/// Standard group codings from the comparative-compressibility literature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StandardGrouping {
    /// The identity coding: 20 singleton groups (no reduction).
    Identity20,
    /// Hydrophobic vs. polar two-way split.
    HydrophobicPolar2,
    /// Dayhoff's six chemical classes.
    Dayhoff6,
    /// Murphy's ten-group reduction.
    Murphy10,
    /// A four-group reduction by broad physico-chemical character.
    Chemical4,
}

impl StandardGrouping {
    /// All standard groupings.
    pub const ALL: [StandardGrouping; 5] = [
        StandardGrouping::Identity20,
        StandardGrouping::HydrophobicPolar2,
        StandardGrouping::Dayhoff6,
        StandardGrouping::Murphy10,
        StandardGrouping::Chemical4,
    ];

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            StandardGrouping::Identity20 => "identity-20",
            StandardGrouping::HydrophobicPolar2 => "hydrophobic-polar-2",
            StandardGrouping::Dayhoff6 => "dayhoff-6",
            StandardGrouping::Murphy10 => "murphy-10",
            StandardGrouping::Chemical4 => "chemical-4",
        }
    }

    /// The compact group specification.
    pub fn spec(self) -> &'static str {
        match self {
            StandardGrouping::Identity20 => "A|C|D|E|F|G|H|I|K|L|M|N|P|Q|R|S|T|V|W|Y",
            StandardGrouping::HydrophobicPolar2 => "AVLIMCFWY|GPSTNQDEKRH",
            StandardGrouping::Dayhoff6 => "AGPST|C|DENQ|FWY|HKR|ILMV",
            StandardGrouping::Murphy10 => "A|C|G|H|P|LVIM|FYW|ST|DENQ|KR",
            StandardGrouping::Chemical4 => "AVLIMC|FWYH|STNQGP|DEKR",
        }
    }

    /// Build the [`GroupCoding`].
    pub fn coding(self) -> GroupCoding {
        GroupCoding::from_spec(self.name(), self.spec())
            .expect("standard groupings are well-formed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_groupings_cover_all_amino_acids() {
        for g in StandardGrouping::ALL {
            let coding = g.coding();
            assert!(
                coding.encode(&AMINO_ACIDS).is_ok(),
                "{} is incomplete",
                g.name()
            );
            let expected = match g {
                StandardGrouping::Identity20 => 20,
                StandardGrouping::HydrophobicPolar2 => 2,
                StandardGrouping::Dayhoff6 => 6,
                StandardGrouping::Murphy10 => 10,
                StandardGrouping::Chemical4 => 4,
            };
            assert_eq!(coding.groups.len(), expected, "{}", g.name());
        }
    }

    #[test]
    fn encode_maps_each_residue_to_its_group_symbol() {
        let coding = StandardGrouping::Dayhoff6.coding();
        // Dayhoff: AGPST=0, C=1, DENQ=2, FWY=3, HKR=4, ILMV=5.
        let encoded = coding.encode(b"ACDEFHIK").unwrap();
        assert_eq!(encoded, b"ABCCDEFE");
        // Lower-case input is accepted.
        assert_eq!(coding.encode(b"acdefhik").unwrap(), b"ABCCDEFE");
    }

    #[test]
    fn identity_coding_is_a_bijection_up_to_symbol_renaming() {
        let coding = StandardGrouping::Identity20.coding();
        let encoded = coding.encode(&AMINO_ACIDS).unwrap();
        let unique: std::collections::BTreeSet<u8> = encoded.iter().copied().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn encode_rejects_unmapped_residues() {
        let coding = StandardGrouping::HydrophobicPolar2.coding();
        assert_eq!(
            coding.encode(b"MKX"),
            Err(GroupingError::UnmappedResidue(b'X'))
        );
    }

    #[test]
    fn duplicate_residue_rejected_at_construction() {
        let err = GroupCoding::from_spec("bad", "AC|CD").unwrap_err();
        assert_eq!(err, GroupingError::DuplicateResidue(b'C'));
        assert!(err.to_string().contains('C'));
    }

    #[test]
    fn empty_spec_rejected() {
        assert_eq!(
            GroupCoding::from_spec("empty", ""),
            Err(GroupingError::Empty)
        );
    }

    #[test]
    fn spec_string_roundtrips() {
        for g in StandardGrouping::ALL {
            let coding = g.coding();
            let rebuilt = GroupCoding::from_spec(g.name(), &coding.spec_string()).unwrap();
            assert_eq!(rebuilt, coding);
        }
    }

    #[test]
    fn reduced_alphabet_lowers_symbol_diversity() {
        let coding2 = StandardGrouping::HydrophobicPolar2.coding();
        let coding6 = StandardGrouping::Dayhoff6.coding();
        let seq: Vec<u8> = AMINO_ACIDS.iter().cycle().take(500).copied().collect();
        let distinct = |data: &[u8]| -> usize {
            data.iter()
                .copied()
                .collect::<std::collections::BTreeSet<u8>>()
                .len()
        };
        assert_eq!(distinct(&coding2.encode(&seq).unwrap()), 2);
        assert_eq!(distinct(&coding6.encode(&seq).unwrap()), 6);
        assert_eq!(distinct(&seq), 20);
    }

    #[test]
    fn nucleotide_sequence_passes_protein_grouping_silently() {
        // This is the trap from use case 2: ACGT are all legal amino-acid codes, so encoding a
        // DNA sequence with a protein grouping raises no error.
        let coding = StandardGrouping::Dayhoff6.coding();
        let encoded = coding.encode(b"ACGTACGT").unwrap();
        assert_eq!(encoded.len(), 8);
    }
}

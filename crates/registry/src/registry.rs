//! The registry proper: publication, metadata attachment, lookup and discovery.
//!
//! Grimoires "provides an interface that supports metadata publication and metadata-based
//! service discovery". The registry here stores service descriptions, arbitrary key/value
//! metadata attached to whole services or to individual message parts, and the semantic-type
//! annotation of each part that use case 2 consumes.

use std::collections::BTreeMap;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use crate::description::{PartPath, ServiceDescription};
use crate::ontology::{Ontology, SemanticType};

/// Errors produced by registry operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegistryError {
    /// The referenced service is not published.
    UnknownService(String),
    /// The referenced operation does not exist on the service.
    UnknownOperation { service: String, operation: String },
    /// The referenced message part does not exist on the operation.
    UnknownPart(String),
    /// The semantic type being attached is not declared in the ontology.
    UndeclaredType(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownService(s) => write!(f, "unknown service: {s}"),
            RegistryError::UnknownOperation { service, operation } => {
                write!(f, "unknown operation {operation} on service {service}")
            }
            RegistryError::UnknownPart(p) => write!(f, "unknown message part: {p}"),
            RegistryError::UndeclaredType(t) => write!(f, "semantic type not in ontology: {t}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A metadata attachment: free key/value pairs on a service (UDDI-style categorisation).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceMetadata {
    /// Key → value.
    pub entries: BTreeMap<String, String>,
}

#[derive(Default)]
struct RegistryState {
    services: BTreeMap<String, ServiceDescription>,
    service_metadata: BTreeMap<String, ServiceMetadata>,
    part_types: BTreeMap<PartPath, SemanticType>,
}

/// The semantic registry.
pub struct Registry {
    ontology: Ontology,
    state: RwLock<RegistryState>,
}

impl Registry {
    /// Create a registry over the given ontology.
    pub fn new(ontology: Ontology) -> Self {
        Registry {
            ontology,
            state: RwLock::new(RegistryState::default()),
        }
    }

    /// Create a registry pre-loaded with the compressibility ontology fragment.
    pub fn for_compressibility() -> Self {
        Self::new(Ontology::compressibility_fragment())
    }

    /// The ontology in use.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Publish (or replace) a service description.
    pub fn publish(&self, description: ServiceDescription) {
        self.state
            .write()
            .services
            .insert(description.name.clone(), description);
    }

    /// Fetch a published description.
    pub fn describe(&self, service: &str) -> Result<ServiceDescription, RegistryError> {
        self.state
            .read()
            .services
            .get(service)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownService(service.to_string()))
    }

    /// Attach a metadata key/value pair to a service.
    pub fn attach_metadata(
        &self,
        service: &str,
        key: &str,
        value: &str,
    ) -> Result<(), RegistryError> {
        let mut state = self.state.write();
        if !state.services.contains_key(service) {
            return Err(RegistryError::UnknownService(service.to_string()));
        }
        state
            .service_metadata
            .entry(service.to_string())
            .or_default()
            .entries
            .insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// Metadata attached to a service (empty if none).
    pub fn metadata(&self, service: &str) -> ServiceMetadata {
        self.state
            .read()
            .service_metadata
            .get(service)
            .cloned()
            .unwrap_or_default()
    }

    /// Discover services whose metadata contains `key` = `value`.
    pub fn discover_by_metadata(&self, key: &str, value: &str) -> Vec<String> {
        let state = self.state.read();
        state
            .service_metadata
            .iter()
            .filter(|(_, md)| md.entries.get(key).map(|v| v == value).unwrap_or(false))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Annotate a message part with its semantic type.
    pub fn annotate_part(
        &self,
        path: PartPath,
        semantic_type: SemanticType,
    ) -> Result<(), RegistryError> {
        if !self.ontology.is_declared(semantic_type.as_str()) {
            return Err(RegistryError::UndeclaredType(
                semantic_type.as_str().to_string(),
            ));
        }
        let mut state = self.state.write();
        let service = state
            .services
            .get(&path.service)
            .ok_or_else(|| RegistryError::UnknownService(path.service.clone()))?;
        let operation = service.find_operation(&path.operation).ok_or_else(|| {
            RegistryError::UnknownOperation {
                service: path.service.clone(),
                operation: path.operation.clone(),
            }
        })?;
        let exists = if path.is_input {
            operation.find_input(&path.part).is_some()
        } else {
            operation.find_output(&path.part).is_some()
        };
        if !exists {
            return Err(RegistryError::UnknownPart(path.to_string()));
        }
        state.part_types.insert(path, semantic_type);
        Ok(())
    }

    /// Look up the semantic type of a message part — the call the semantic validator issues for
    /// every input and output of every interaction (≈10 calls per interaction in the paper).
    pub fn part_type(&self, path: &PartPath) -> Result<SemanticType, RegistryError> {
        self.state
            .read()
            .part_types
            .get(path)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownPart(path.to_string()))
    }

    /// Whether a value of `produced` type may flow into a slot of `expected` type under this
    /// registry's ontology.
    pub fn types_compatible(&self, produced: &SemanticType, expected: &SemanticType) -> bool {
        self.ontology.compatible(produced, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::description::Operation;
    use crate::ontology::types;

    fn registry_with_encode() -> Registry {
        let registry = Registry::for_compressibility();
        registry.publish(
            ServiceDescription::new("encode-by-groups", "recode a sample").operation(
                Operation::new("encode")
                    .input("sample", "sequence-text")
                    .output("encoded", "sequence-text"),
            ),
        );
        registry
    }

    #[test]
    fn publish_describe_and_count() {
        let registry = registry_with_encode();
        assert_eq!(registry.state.read().services.len(), 1);
        let desc = registry.describe("encode-by-groups").unwrap();
        assert_eq!(desc.operations.len(), 1);
        assert!(matches!(
            registry.describe("missing"),
            Err(RegistryError::UnknownService(_))
        ));
    }

    #[test]
    fn metadata_attachment_and_discovery() {
        let registry = registry_with_encode();
        registry
            .attach_metadata("encode-by-groups", "domain", "bioinformatics")
            .unwrap();
        registry
            .attach_metadata("encode-by-groups", "granularity", "fine")
            .unwrap();
        assert_eq!(
            registry
                .metadata("encode-by-groups")
                .entries
                .get("domain")
                .unwrap(),
            "bioinformatics"
        );
        assert_eq!(
            registry.discover_by_metadata("domain", "bioinformatics"),
            vec!["encode-by-groups".to_string()]
        );
        assert!(registry
            .discover_by_metadata("domain", "astronomy")
            .is_empty());
        assert!(registry.attach_metadata("nope", "k", "v").is_err());
        assert!(registry.metadata("nope").entries.is_empty());
    }

    #[test]
    fn part_annotation_and_lookup() {
        let registry = registry_with_encode();
        let input = PartPath::input("encode-by-groups", "encode", "sample");
        let output = PartPath::output("encode-by-groups", "encode", "encoded");
        registry
            .annotate_part(input.clone(), SemanticType::new(types::AMINO_ACID_SEQUENCE))
            .unwrap();
        registry
            .annotate_part(
                output.clone(),
                SemanticType::new(types::GROUP_ENCODED_SAMPLE),
            )
            .unwrap();
        assert_eq!(
            registry.part_type(&input).unwrap().as_str(),
            types::AMINO_ACID_SEQUENCE
        );
        assert_eq!(
            registry.part_type(&output).unwrap().as_str(),
            types::GROUP_ENCODED_SAMPLE
        );
        assert!(registry
            .part_type(&PartPath::input("encode-by-groups", "encode", "missing"))
            .is_err());
    }

    #[test]
    fn annotation_validation_errors() {
        let registry = registry_with_encode();
        // Unknown service.
        assert!(matches!(
            registry.annotate_part(
                PartPath::input("nope", "encode", "sample"),
                SemanticType::new(types::SEQUENCE)
            ),
            Err(RegistryError::UnknownService(_))
        ));
        // Unknown operation.
        assert!(matches!(
            registry.annotate_part(
                PartPath::input("encode-by-groups", "nope", "sample"),
                SemanticType::new(types::SEQUENCE)
            ),
            Err(RegistryError::UnknownOperation { .. })
        ));
        // Unknown part.
        assert!(matches!(
            registry.annotate_part(
                PartPath::input("encode-by-groups", "encode", "nope"),
                SemanticType::new(types::SEQUENCE)
            ),
            Err(RegistryError::UnknownPart(_))
        ));
        // Undeclared semantic type.
        assert!(matches!(
            registry.annotate_part(
                PartPath::input("encode-by-groups", "encode", "sample"),
                SemanticType::new("x:NotInOntology")
            ),
            Err(RegistryError::UndeclaredType(_))
        ));
    }

    #[test]
    fn compatibility_delegates_to_the_ontology() {
        let registry = Registry::for_compressibility();
        assert!(registry.types_compatible(
            &SemanticType::new(types::PROTEIN_SAMPLE),
            &SemanticType::new(types::AMINO_ACID_SEQUENCE)
        ));
        assert!(!registry.types_compatible(
            &SemanticType::new(types::NUCLEOTIDE_SEQUENCE),
            &SemanticType::new(types::AMINO_ACID_SEQUENCE)
        ));
    }

    #[test]
    fn error_display() {
        for e in [
            RegistryError::UnknownService("s".into()),
            RegistryError::UnknownOperation {
                service: "s".into(),
                operation: "o".into(),
            },
            RegistryError::UnknownPart("p".into()),
            RegistryError::UndeclaredType("t".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}

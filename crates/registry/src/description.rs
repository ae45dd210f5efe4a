//! Abstract service descriptions — the WSDL-abstract-part stand-in.
//!
//! "Each workflow activity is described by a WSDL interface: we use here the abstract part of a
//! WSDL interface to characterise the type of inputs or outputs taken by services." A
//! [`ServiceDescription`] lists the operations a service offers; each [`Operation`] lists its
//! input and output [`MessagePart`]s. Semantic annotations are attached separately through the
//! registry (as Grimoires attaches metadata to UDDI entities) so descriptions stay purely
//! structural.

use serde::{Deserialize, Serialize};

/// One named, syntactically-typed message part of an operation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessagePart {
    /// Part name, e.g. `sample`.
    pub name: String,
    /// Syntactic type, e.g. `xsd:string` or `fasta-document`.
    pub syntactic_type: String,
}

impl MessagePart {
    /// Create a part.
    pub fn new(name: impl Into<String>, syntactic_type: impl Into<String>) -> Self {
        MessagePart {
            name: name.into(),
            syntactic_type: syntactic_type.into(),
        }
    }
}

/// One operation of a service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Operation {
    /// Operation name, e.g. `encode`.
    pub name: String,
    /// Input message parts, in signature order.
    pub inputs: Vec<MessagePart>,
    /// Output message parts, in signature order.
    pub outputs: Vec<MessagePart>,
}

impl Operation {
    /// Create an operation.
    pub fn new(name: impl Into<String>) -> Self {
        Operation {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Builder-style: add an input part.
    pub fn input(mut self, name: &str, syntactic_type: &str) -> Self {
        self.inputs.push(MessagePart::new(name, syntactic_type));
        self
    }

    /// Builder-style: add an output part.
    pub fn output(mut self, name: &str, syntactic_type: &str) -> Self {
        self.outputs.push(MessagePart::new(name, syntactic_type));
        self
    }

    /// Find an input part by name.
    pub fn find_input(&self, name: &str) -> Option<&MessagePart> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Find an output part by name.
    pub fn find_output(&self, name: &str) -> Option<&MessagePart> {
        self.outputs.iter().find(|p| p.name == name)
    }
}

/// The abstract description of a service.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceDescription {
    /// Service name, matching the actor name used in provenance (e.g. `encode-by-groups`).
    pub name: String,
    /// Free-text description.
    pub documentation: String,
    /// Operations offered.
    pub operations: Vec<Operation>,
}

impl ServiceDescription {
    /// Create a description with no operations yet.
    pub fn new(name: impl Into<String>, documentation: impl Into<String>) -> Self {
        ServiceDescription {
            name: name.into(),
            documentation: documentation.into(),
            operations: Vec::new(),
        }
    }

    /// Builder-style: add an operation.
    pub fn operation(mut self, op: Operation) -> Self {
        self.operations.push(op);
        self
    }

    /// Find an operation by name.
    pub fn find_operation(&self, name: &str) -> Option<&Operation> {
        self.operations.iter().find(|o| o.name == name)
    }
}

/// The path of one message part within the registry: service / operation / direction / part.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PartPath {
    /// Service name.
    pub service: String,
    /// Operation name.
    pub operation: String,
    /// `true` for an input part, `false` for an output part.
    pub is_input: bool,
    /// Part name.
    pub part: String,
}

impl PartPath {
    /// Path of an input part.
    pub fn input(service: &str, operation: &str, part: &str) -> Self {
        PartPath {
            service: service.into(),
            operation: operation.into(),
            is_input: true,
            part: part.into(),
        }
    }

    /// Path of an output part.
    pub fn output(service: &str, operation: &str, part: &str) -> Self {
        PartPath {
            service: service.into(),
            operation: operation.into(),
            is_input: false,
            part: part.into(),
        }
    }
}

impl std::fmt::Display for PartPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/{}/{}",
            self.service,
            self.operation,
            if self.is_input { "in" } else { "out" },
            self.part
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_service() -> ServiceDescription {
        ServiceDescription::new("encode-by-groups", "recode an amino-acid sample").operation(
            Operation::new("encode")
                .input("sample", "sequence-text")
                .input("grouping", "group-spec")
                .output("encoded", "sequence-text"),
        )
    }

    #[test]
    fn build_and_navigate_description() {
        let svc = encode_service();
        assert_eq!(svc.operations.len(), 1);
        let op = svc.find_operation("encode").unwrap();
        assert_eq!(op.inputs.len() + op.outputs.len(), 3);
        assert_eq!(
            op.find_input("grouping").unwrap().syntactic_type,
            "group-spec"
        );
        assert_eq!(op.find_output("encoded").unwrap().name, "encoded");
        assert!(op.find_input("missing").is_none());
        assert!(svc.find_operation("missing").is_none());
    }

    #[test]
    fn part_paths_display_unambiguously() {
        let input = PartPath::input("encode-by-groups", "encode", "sample");
        let output = PartPath::output("encode-by-groups", "encode", "encoded");
        assert_eq!(input.to_string(), "encode-by-groups/encode/in/sample");
        assert_eq!(output.to_string(), "encode-by-groups/encode/out/encoded");
        assert_ne!(input, output);
    }

    #[test]
    fn serde_roundtrip() {
        let svc = encode_service();
        let json = serde_json::to_string(&svc).unwrap();
        assert_eq!(
            serde_json::from_str::<ServiceDescription>(&json).unwrap(),
            svc
        );
        let path = PartPath::input("a", "b", "c");
        let json = serde_json::to_string(&path).unwrap();
        assert_eq!(serde_json::from_str::<PartPath>(&json).unwrap(), path);
    }
}

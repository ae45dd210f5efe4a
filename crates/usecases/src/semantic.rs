//! Use case 2 — post-hoc semantic validation of a workflow execution.
//!
//! "The process of semantically validating an execution is as follows. Given a provenance trace
//! for an execution that led to some data, the semantic type of each service output (obtained
//! from interaction p-assertions and metadata stored in the registry) is verified to be equal
//! to the semantic type of the service input it is fed into."
//!
//! The validator walks the interaction records of a session in recording order. Response
//! interactions teach it which semantic type each data item was produced with (the annotated
//! output parts of the producing service); request interactions are then checked: every data
//! item flowing into a service must carry a type compatible with the annotated input part of
//! the invoked operation. Per interaction this costs **one store call** plus a series of
//! **registry calls** (service description, one lookup per message part, one compatibility check
//! per consumed data item) — about ten with the experiment's service signatures, which is why
//! the paper measures the semantic-validity slope at ≈11× the script-comparison slope.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use pasoa_core::ids::InteractionKey;
use pasoa_core::passertion::{PAssertion, ViewKind};
use pasoa_core::prep::{PrepMessage, QueryRequest, QueryResponse};
use pasoa_registry::description::PartPath;
use pasoa_registry::ontology::SemanticType;
use pasoa_registry::service::{call_registry, RegistryRequest, RegistryResponse};
use pasoa_wire::{Envelope, Transport, WireError};

/// One detected semantic violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The interaction in which the incompatible data arrived.
    pub interaction: String,
    /// The consuming service.
    pub service: String,
    /// The data item that flowed in.
    pub data: String,
    /// The semantic type the data was produced with.
    pub produced_type: String,
    /// The semantic type the consuming input expects.
    pub expected_type: String,
}

/// The outcome of validating one session.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Interactions inspected.
    pub interactions_checked: usize,
    /// Data-flow edges whose types were compared.
    pub flows_checked: usize,
    /// Detected violations.
    pub violations: Vec<Violation>,
    /// Store calls issued.
    pub store_calls: usize,
    /// Registry calls issued.
    pub registry_calls: usize,
}

impl ValidationReport {
    /// Whether the execution was semantically valid.
    pub fn is_valid(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The semantic validator. It reaches both the provenance store and the registry exclusively
/// through their wire interfaces (the paper deploys validator, store and registry on three
/// separate hosts).
pub struct SemanticValidator {
    store: Transport,
    registry: Transport,
}

impl SemanticValidator {
    /// Create a validator with independent transports to the store and the registry.
    pub fn new(store: Transport, registry: Transport) -> Self {
        SemanticValidator { store, registry }
    }

    fn store_query(&self, request: QueryRequest) -> Result<QueryResponse, WireError> {
        let message = PrepMessage::Query(request);
        let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, message.action())
            .with_json_payload(&message)?;
        self.store.call(envelope)?.json_payload()
    }

    fn registry_call(
        &self,
        report: &mut ValidationReport,
        request: &RegistryRequest,
    ) -> Result<RegistryResponse, WireError> {
        report.registry_calls += 1;
        call_registry(&self.registry, request)
    }

    /// Validate every interaction currently in the store.
    pub fn validate_store(&self) -> Result<ValidationReport, WireError> {
        let mut report = ValidationReport::default();
        let interactions = match self.store_query(QueryRequest::ListInteractions { limit: None })? {
            QueryResponse::Interactions(keys) => keys,
            _ => Vec::new(),
        };
        report.store_calls += 1;
        let mut produced_types: BTreeMap<String, SemanticType> = BTreeMap::new();
        for interaction in interactions {
            self.validate_interaction(&interaction, &mut produced_types, &mut report)?;
        }
        Ok(report)
    }

    fn validate_interaction(
        &self,
        interaction: &InteractionKey,
        produced_types: &mut BTreeMap<String, SemanticType>,
        report: &mut ValidationReport,
    ) -> Result<(), WireError> {
        // One store call per interaction record.
        report.store_calls += 1;
        let assertions = match self.store_query(QueryRequest::ByInteraction(
            InteractionKey::new(interaction.as_str()),
        ))? {
            QueryResponse::Assertions(found) => found,
            _ => return Ok(()),
        };
        for recorded in &assertions {
            let PAssertion::Interaction(ia) = &recorded.assertion else {
                continue;
            };
            report.interactions_checked += 1;
            let is_response = ia.operation.ends_with("-response");
            let (service, operation) = if is_response {
                (
                    ia.sender.as_str().to_string(),
                    ia.operation.trim_end_matches("-response").to_string(),
                )
            } else {
                (ia.receiver.as_str().to_string(), ia.operation.clone())
            };

            // Registry call 1: the service description.
            let description =
                match self.registry_call(report, &RegistryRequest::Describe(service.clone()))? {
                    RegistryResponse::Description(d) => d,
                    _ => continue, // unregistered service: nothing to check against
                };
            let Some(op) = description.find_operation(&operation).cloned() else {
                continue;
            };

            // Registry calls: the semantic type of every message part of the operation.
            let mut input_types = Vec::new();
            for part in &op.inputs {
                if let RegistryResponse::Type(t) = self.registry_call(
                    report,
                    &RegistryRequest::PartType(PartPath::input(&service, &operation, &part.name)),
                )? {
                    input_types.push(t);
                }
            }
            let mut output_types = Vec::new();
            for part in &op.outputs {
                if let RegistryResponse::Type(t) = self.registry_call(
                    report,
                    &RegistryRequest::PartType(PartPath::output(&service, &operation, &part.name)),
                )? {
                    output_types.push(t);
                }
            }

            if is_response {
                // Learn the produced type of every data item this service emitted (only the
                // asserting sender's view, so each emission is learnt once).
                if ia.view == ViewKind::Sender {
                    if let Some(output_type) = output_types.first() {
                        for data in &ia.data_ids {
                            produced_types.insert(data.as_str().to_string(), output_type.clone());
                        }
                    }
                }
            } else if let Some(expected) = input_types.first() {
                // Check every consumed data item whose production we have already witnessed.
                for data in &ia.data_ids {
                    let Some(produced) = produced_types.get(data.as_str()) else {
                        continue;
                    };
                    report.flows_checked += 1;
                    let compatible = match self.registry_call(
                        report,
                        &RegistryRequest::CheckCompatible {
                            produced: produced.clone(),
                            expected: expected.clone(),
                        },
                    )? {
                        RegistryResponse::Compatible(ok) => ok,
                        _ => true,
                    };
                    if !compatible {
                        report.violations.push(Violation {
                            interaction: interaction.as_str().to_string(),
                            service: service.clone(),
                            data: data.as_str().to_string(),
                            produced_type: produced.as_str().to_string(),
                            expected_type: expected.as_str().to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::{ActorId, DataId, IdGenerator, MessageId, SessionId};
    use pasoa_core::passertion::{InteractionPAssertion, PAssertionContent, RecordedAssertion};
    use pasoa_core::prep::RecordMessage;
    use pasoa_preserv::PreservService;
    use pasoa_registry::description::{Operation, ServiceDescription};
    use pasoa_registry::ontology::types;
    use pasoa_registry::registry::Registry;
    use pasoa_registry::service::RegistryService;
    use pasoa_wire::{ServiceHost, TransportConfig};
    use std::sync::Arc;

    struct Setup {
        host: ServiceHost,
        registry: Arc<Registry>,
        ids: IdGenerator,
    }

    fn deploy() -> Setup {
        let host = ServiceHost::new();
        let preserv = Arc::new(PreservService::in_memory().unwrap());
        preserv.register(&host);
        let registry = Arc::new(Registry::for_compressibility());
        Arc::new(RegistryService::new(Arc::clone(&registry))).register(&host);
        Setup {
            host,
            registry,
            ids: IdGenerator::new("uc2"),
        }
    }

    fn publish_services(registry: &Registry) {
        registry.publish(
            ServiceDescription::new("fetch-sequence", "download a sequence").operation(
                Operation::new("fetch")
                    .input("accession", "string")
                    .output("sequence", "text"),
            ),
        );
        registry
            .annotate_part(
                PartPath::output("fetch-sequence", "fetch", "sequence"),
                SemanticType::new(types::NUCLEOTIDE_SEQUENCE),
            )
            .unwrap();
        registry.publish(
            ServiceDescription::new("encode-by-groups", "recode a protein sample").operation(
                Operation::new("encode")
                    .input("sample", "text")
                    .input("grouping", "spec")
                    .output("encoded", "text"),
            ),
        );
        registry
            .annotate_part(
                PartPath::input("encode-by-groups", "encode", "sample"),
                SemanticType::new(types::AMINO_ACID_SEQUENCE),
            )
            .unwrap();
        registry
            .annotate_part(
                PartPath::input("encode-by-groups", "encode", "grouping"),
                SemanticType::new(types::GROUP_CODING),
            )
            .unwrap();
        registry
            .annotate_part(
                PartPath::output("encode-by-groups", "encode", "encoded"),
                SemanticType::new(types::GROUP_ENCODED_SAMPLE),
            )
            .unwrap();
    }

    fn record(transport: &Transport, assertion: PAssertion) {
        let message = PrepMessage::Record(RecordMessage {
            message_id: MessageId::new(format!("message:{}", rand_suffix())),
            asserter: ActorId::new("trace"),
            assertions: vec![RecordedAssertion {
                session: SessionId::new("session:uc2"),
                assertion,
            }],
        });
        let envelope = Envelope::request(pasoa_core::PROVENANCE_STORE_SERVICE, message.action())
            .with_json_payload(&message)
            .unwrap();
        transport.call(envelope).unwrap();
    }

    fn rand_suffix() -> u64 {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        N.fetch_add(1, Ordering::SeqCst)
    }

    fn response_interaction(
        ids: &IdGenerator,
        service: &str,
        operation: &str,
        data: &str,
    ) -> PAssertion {
        PAssertion::Interaction(InteractionPAssertion {
            interaction_key: ids.interaction_key(),
            asserter: ActorId::new(service),
            view: ViewKind::Sender,
            sender: ActorId::new(service),
            receiver: ActorId::new("workflow-engine"),
            operation: format!("{operation}-response"),
            content: PAssertionContent::text("response"),
            data_ids: vec![DataId::new(data)],
        })
    }

    fn request_interaction(
        ids: &IdGenerator,
        service: &str,
        operation: &str,
        data: &str,
    ) -> PAssertion {
        PAssertion::Interaction(InteractionPAssertion {
            interaction_key: ids.interaction_key(),
            asserter: ActorId::new("workflow-engine"),
            view: ViewKind::Sender,
            sender: ActorId::new("workflow-engine"),
            receiver: ActorId::new(service),
            operation: operation.to_string(),
            content: PAssertionContent::text("request"),
            data_ids: vec![DataId::new(data)],
        })
    }

    #[test]
    fn detects_a_nucleotide_sequence_fed_to_the_protein_encoder() {
        let setup = deploy();
        publish_services(&setup.registry);
        let transport = setup.host.transport(TransportConfig::free());
        // The trace: fetch-sequence produced d1 (a nucleotide sequence), and encode-by-groups
        // later consumed d1 — syntactically fine, semantically invalid.
        record(
            &transport,
            response_interaction(&setup.ids, "fetch-sequence", "fetch", "data:d1"),
        );
        record(
            &transport,
            request_interaction(&setup.ids, "encode-by-groups", "encode", "data:d1"),
        );

        let validator = SemanticValidator::new(
            setup.host.transport(TransportConfig::free()),
            setup.host.transport(TransportConfig::free()),
        );
        let report = validator.validate_store().unwrap();
        assert!(!report.is_valid());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.service, "encode-by-groups");
        assert_eq!(v.produced_type, types::NUCLEOTIDE_SEQUENCE);
        assert_eq!(v.expected_type, types::AMINO_ACID_SEQUENCE);
        assert_eq!(report.flows_checked, 1);
        assert!(report.registry_calls > report.store_calls);
    }

    #[test]
    fn a_correct_protein_trace_is_valid() {
        let setup = deploy();
        publish_services(&setup.registry);
        // Redefine the fetch service as producing amino-acid sequences for this trace.
        setup
            .registry
            .annotate_part(
                PartPath::output("fetch-sequence", "fetch", "sequence"),
                SemanticType::new(types::AMINO_ACID_SEQUENCE),
            )
            .unwrap();
        let transport = setup.host.transport(TransportConfig::free());
        record(
            &transport,
            response_interaction(&setup.ids, "fetch-sequence", "fetch", "data:p1"),
        );
        record(
            &transport,
            request_interaction(&setup.ids, "encode-by-groups", "encode", "data:p1"),
        );
        let validator = SemanticValidator::new(
            setup.host.transport(TransportConfig::free()),
            setup.host.transport(TransportConfig::free()),
        );
        let report = validator.validate_store().unwrap();
        assert!(report.is_valid(), "violations: {:?}", report.violations);
        assert_eq!(report.flows_checked, 1);
        assert_eq!(report.interactions_checked, 2);
    }

    #[test]
    fn unregistered_services_are_skipped_not_failed() {
        let setup = deploy();
        let transport = setup.host.transport(TransportConfig::free());
        record(
            &transport,
            request_interaction(&setup.ids, "mystery-service", "run", "data:x"),
        );
        let validator = SemanticValidator::new(
            setup.host.transport(TransportConfig::free()),
            setup.host.transport(TransportConfig::free()),
        );
        let report = validator.validate_store().unwrap();
        assert!(report.is_valid());
        assert_eq!(report.interactions_checked, 1);
        assert_eq!(report.registry_calls, 1); // only the (failed) describe lookup
    }

    #[test]
    fn registry_call_count_scales_with_interactions() {
        let setup = deploy();
        publish_services(&setup.registry);
        let transport = setup.host.transport(TransportConfig::free());
        for i in 0..10 {
            record(
                &transport,
                request_interaction(
                    &setup.ids,
                    "encode-by-groups",
                    "encode",
                    &format!("data:{i}"),
                ),
            );
        }
        let validator = SemanticValidator::new(
            setup.host.transport(TransportConfig::free()),
            setup.host.transport(TransportConfig::free()),
        );
        let report = validator.validate_store().unwrap();
        assert_eq!(report.interactions_checked, 10);
        // describe + 2 input parts + 1 output part per interaction (no compat checks: the data
        // producers are unknown) = 4 registry calls each.
        assert_eq!(report.registry_calls, 40);
        assert_eq!(report.store_calls, 11);
        assert!(report.registry_calls as f64 / report.interactions_checked as f64 > 3.9);
    }
}

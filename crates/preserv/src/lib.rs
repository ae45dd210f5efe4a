//! # pasoa-preserv — the PReServ provenance store
//!
//! PReServ (Provenance Recording for Services) is the paper's Web Service realisation of the
//! provenance store: "a provenance store, client APIs and XML schemas for storing data in and
//! retrieving data from the store". Its layered design (Figure 3 of the paper) is reproduced
//! here directly:
//!
//! ```text
//!            Envelope in                Envelope out
//!                 │                          ▲
//!        ┌────────▼──────────────────────────┴────────┐
//!        │        message translator ([`service`])    │   SOAP Message Translator
//!        ├────────────────┬────────────────┬──────────┤
//!        │  Store PlugIn  │ Query PlugIn   │ Lineage  │   PlugIns ([`plugins`])
//!        ├────────────────┴────────────────┴──────────┤
//!        │      ProvenanceStore ([`store`])           │   Provenance Store Interface
//!        ├──────────┬───────────────┬─────────────────┤
//!        │  Memory  │  File system  │  Database (kvdb)│   Backends ([`backend`])
//!        └──────────┴───────────────┴─────────────────┘
//! ```
//!
//! All three backends implement the same [`backend::StorageBackend`] interface, "making it easy
//! to integrate new backend stores without having to change already developed PlugIns"; the
//! database backend uses `pasoa-kvdb`, our Berkeley DB JE substitute. The store is designed to
//! persist provenance beyond the life of the application that produced it: reopening a file or
//! database backend recovers every p-assertion.

pub mod access;
pub mod backend;
pub mod index;
pub mod keys;
pub mod lineage;
pub mod plugins;
pub mod service;
pub mod store;

pub use access::AccessPath;
pub use backend::{BackendKind, FileBackend, KvBackend, MemoryBackend, StorageBackend};
pub use index::EdgeRecord;
pub use lineage::{LineageGraph, LineageNode};
pub use service::{PreservService, ServiceConfig};
pub use store::{IndexReport, ProvenanceStore, RecordStager, StoreError, StoreOptions};

//! The local p-assertion journal used by asynchronous recording.
//!
//! "When provenance is used after application completion, then p-assertions may be recorded
//! asynchronously so as to reduce recording overhead. We exploit the latter strategy in our
//! implementation of the protein compressibility experiment": during execution every
//! p-assertion is appended to a local journal (an in-memory buffer, optionally persisted as a
//! JSON-lines file exactly like the paper's "accumulated locally in a file"), and only after
//! the workflow finishes is the journal shipped to the provenance store in batches.

use std::io::{BufRead, Write};
use std::path::Path;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::group::Group;
use crate::passertion::RecordedAssertion;

/// One journal entry: either a p-assertion or a group registration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEntry {
    /// A recorded p-assertion.
    Assertion(RecordedAssertion),
    /// A group registration.
    Group(Group),
}

/// Error produced by journal persistence.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A persisted line could not be parsed.
    Corrupt { line: usize, reason: String },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A thread-safe, append-only journal of provenance documentation awaiting submission.
#[derive(Debug, Default)]
pub struct Journal {
    entries: Mutex<Vec<JournalEntry>>,
}

impl Journal {
    /// Create an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an assertion.
    pub fn push_assertion(&self, assertion: RecordedAssertion) {
        self.entries.lock().push(JournalEntry::Assertion(assertion));
    }

    /// Append a group registration.
    pub fn push_group(&self, group: Group) {
        self.entries.lock().push(JournalEntry::Group(group));
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take every entry out of the journal, leaving it empty.
    pub fn drain(&self) -> Vec<JournalEntry> {
        std::mem::take(&mut *self.entries.lock())
    }

    /// A copy of the entries without draining (used by tests and diagnostics).
    pub fn snapshot(&self) -> Vec<JournalEntry> {
        self.entries.lock().clone()
    }

    /// Persist the journal as JSON lines at `path` (overwriting), without draining it. Kept
    /// for paper fidelity — asynchronous recording accumulates "locally in a file" — until
    /// ROADMAP item 13 replaces it and [`Self::load`] with a durable journal.
    pub fn persist(&self, path: &Path) -> Result<usize, JournalError> {
        let entries = self.snapshot();
        let file = std::fs::File::create(path)?;
        let mut writer = std::io::BufWriter::new(file);
        for entry in &entries {
            let line = serde_json::to_string(entry).map_err(|e| JournalError::Corrupt {
                line: 0,
                reason: e.to_string(),
            })?;
            writeln!(writer, "{line}")?;
        }
        writer.flush()?;
        Ok(entries.len())
    }

    /// Load a journal previously written by [`Self::persist`].
    pub fn load(path: &Path) -> Result<Self, JournalError> {
        let file = std::fs::File::open(path)?;
        let reader = std::io::BufReader::new(file);
        let journal = Journal::new();
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let entry: JournalEntry =
                serde_json::from_str(&line).map_err(|e| JournalError::Corrupt {
                    line: idx + 1,
                    reason: e.to_string(),
                })?;
            journal.entries.lock().push(entry);
        }
        Ok(journal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupKind;
    use crate::ids::{ActorId, InteractionKey, SessionId};
    use crate::passertion::{
        ActorStateKind, ActorStatePAssertion, PAssertion, PAssertionContent, ViewKind,
    };

    fn assertion(i: usize) -> RecordedAssertion {
        RecordedAssertion {
            session: SessionId::new("session:test"),
            assertion: PAssertion::ActorState(ActorStatePAssertion {
                interaction_key: InteractionKey::new(format!("interaction:{i}")),
                asserter: ActorId::new("measure"),
                view: ViewKind::Receiver,
                kind: ActorStateKind::Script,
                content: PAssertionContent::text(format!("script body {i}")),
            }),
        }
    }

    #[test]
    fn push_and_drain() {
        let j = Journal::new();
        assert!(j.is_empty());
        j.push_assertion(assertion(1));
        j.push_group(Group::new("session:test", GroupKind::Session));
        j.push_assertion(assertion(2));
        assert_eq!(j.len(), 3);
        let drained = j.drain();
        assert_eq!(drained.len(), 3);
        assert!(j.is_empty());
        assert!(matches!(drained[1], JournalEntry::Group(_)));
    }

    #[test]
    fn snapshot_does_not_drain() {
        let j = Journal::new();
        j.push_assertion(assertion(1));
        assert_eq!(j.snapshot().len(), 1);
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn persist_and_load_roundtrip() {
        let j = Journal::new();
        for i in 0..25 {
            j.push_assertion(assertion(i));
        }
        j.push_group(Group::new("session:test", GroupKind::Session));
        let path = std::env::temp_dir().join(format!("journal-test-{}.jsonl", std::process::id()));
        let written = j.persist(&path).unwrap();
        assert_eq!(written, 26);
        let loaded = Journal::load(&path).unwrap();
        assert_eq!(loaded.snapshot(), j.snapshot());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_rejects_corrupt_lines() {
        let path =
            std::env::temp_dir().join(format!("journal-corrupt-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"not\": \"a journal entry\"}\n").unwrap();
        let err = Journal::load(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 1, .. }));
        assert!(err.to_string().contains("line 1"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_appends_are_all_kept() {
        let j = std::sync::Arc::new(Journal::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let j = j.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    j.push_assertion(assertion(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.len(), 400);
    }
}

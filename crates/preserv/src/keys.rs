//! Key scheme used by the provenance store when laying p-assertions out in a backend.
//!
//! Every backend is an ordered key/value namespace; the store encodes its access paths as key
//! prefixes so that the queries the use cases need (all assertions of an interaction, all
//! interactions, all groups of a kind) become ordered prefix scans.
//!
//! ```text
//! a/<interaction>/<seq>        → the p-assertion, packed (`pasoa_core::prepwire::encode_document`)
//! i/<interaction>              → "" (interaction existence marker)
//! g/<kind>/<group id>          → Group (JSON)
//! x/...                        → secondary indexes (see `crate::index`)
//! ```
//!
//! Identifier components are percent-escaped so user-supplied ids containing `/` cannot break
//! out of their key slot.

/// Prefix of assertion keys.
pub const ASSERTION_PREFIX: &str = "a/";
/// Prefix of interaction marker keys.
pub const INTERACTION_PREFIX: &str = "i/";
/// Prefix of group keys.
pub const GROUP_PREFIX: &str = "g/";

/// Escape an identifier component so it contains no `/` or `%`.
pub fn escape_component(component: &str) -> String {
    let mut out = String::with_capacity(component.len());
    for c in component.chars() {
        match c {
            '/' => out.push_str("%2F"),
            '%' => out.push_str("%25"),
            other => out.push(other),
        }
    }
    out
}

/// Undo [`escape_component`].
pub fn unescape_component(component: &str) -> String {
    component.replace("%2F", "/").replace("%25", "%")
}

/// Key under which assertion number `seq` of `interaction` is stored.
pub fn assertion_key(interaction: &str, seq: u64) -> Vec<u8> {
    format!(
        "{ASSERTION_PREFIX}{}/{seq:012}",
        escape_component(interaction)
    )
    .into_bytes()
}

/// Prefix of all assertion keys of `interaction`.
pub fn assertion_prefix(interaction: &str) -> Vec<u8> {
    format!("{ASSERTION_PREFIX}{}/", escape_component(interaction)).into_bytes()
}

/// Key marking that `interaction` has at least one recorded p-assertion.
pub fn interaction_key(interaction: &str) -> Vec<u8> {
    format!("{INTERACTION_PREFIX}{}", escape_component(interaction)).into_bytes()
}

/// Extract the interaction id back out of an interaction marker key.
pub fn interaction_from_key(key: &[u8]) -> Option<String> {
    let text = std::str::from_utf8(key).ok()?;
    text.strip_prefix(INTERACTION_PREFIX)
        .map(unescape_component)
}

/// Key under which a group is stored.
pub fn group_key(kind: &str, id: &str) -> Vec<u8> {
    format!(
        "{GROUP_PREFIX}{}/{}",
        escape_component(kind),
        escape_component(id)
    )
    .into_bytes()
}

/// Prefix of all group keys of a kind.
pub fn group_kind_prefix(kind: &str) -> Vec<u8> {
    format!("{GROUP_PREFIX}{}/", escape_component(kind)).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_roundtrips_and_removes_slashes() {
        let nasty = "interaction:run/7%full";
        let escaped = escape_component(nasty);
        assert!(!escaped.contains('/'));
        assert_eq!(unescape_component(&escaped), nasty);
        assert_eq!(escape_component("plain"), "plain");
    }

    #[test]
    fn assertion_keys_sort_by_sequence() {
        let a = assertion_key("interaction:1", 5);
        let b = assertion_key("interaction:1", 50);
        let c = assertion_key("interaction:1", 500);
        assert!(a < b && b < c);
        assert!(a.starts_with(&assertion_prefix("interaction:1")));
    }

    #[test]
    fn assertion_prefixes_do_not_collide_across_interactions() {
        // "interaction:1" must not be a prefix-match for "interaction:10"'s assertions.
        let p1 = assertion_prefix("interaction:1");
        let key10 = assertion_key("interaction:10", 0);
        assert!(!key10.starts_with(&p1));
    }

    #[test]
    fn interaction_marker_roundtrip() {
        let key = interaction_key("interaction:run/9");
        assert_eq!(interaction_from_key(&key).unwrap(), "interaction:run/9");
        assert_eq!(interaction_from_key(b"x/nope"), None);
    }

    #[test]
    fn group_keys_group_by_kind() {
        let a = group_key("session", "session:1");
        let b = group_key("session", "session:2");
        let c = group_key("thread", "thread:1");
        let prefix = group_kind_prefix("session");
        assert!(a.starts_with(&prefix) && b.starts_with(&prefix));
        assert!(!c.starts_with(&prefix));
    }
}

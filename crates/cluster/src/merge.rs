//! Scatter-gather result merging.
//!
//! Every merge here is written so that, for data recorded through the shard router (which
//! co-locates a session's p-assertions on one shard), the merged answer is *identical* to what
//! a single store holding all the data would return: assertions come back grouped by
//! interaction in ascending key order, interaction lists are globally sorted, groups follow the
//! store's escaped-key order and statistics are field-wise sums. Assertions merge on the sort
//! keys the shards answer with, never on their contents, so the documents stay in the stored
//! form the shards read them in.

use pasoa_core::ids::InteractionKey;
use pasoa_core::prep::{QueryRequest, QueryResponse, ShardQueryPage, StoreStatistics};
use pasoa_core::Group;
use pasoa_preserv::keys;
use pasoa_preserv::{LineageGraph, LineageNode};
use pasoa_wire::{WireError, WireResult};

/// Merge every live shard's typed answer to a request that produces no p-assertions (in
/// shard order) into the answer a single store would give. A shard answering with the wrong
/// kind of response is an error; assertion streams merge in stored form
/// ([`merge_documents`]).
pub(crate) fn merge_responses(
    request: &QueryRequest,
    responses: Vec<QueryResponse>,
) -> WireResult<QueryResponse> {
    Ok(match request {
        request if request.is_pageable() => {
            return Err(WireError::Payload(format!(
                "{request:?} answers in stored form, not as a typed response"
            )))
        }
        QueryRequest::ListInteractions { limit } => {
            QueryResponse::Interactions(merge_interactions(
                per_shard(responses, |response| match response {
                    QueryResponse::Interactions(list) => Ok(list),
                    QueryResponse::Empty => Ok(Vec::new()),
                    other => Err(other),
                })?,
                *limit,
            ))
        }
        QueryRequest::GroupsByKind(_) => QueryResponse::Groups(merge_groups(per_shard(
            responses,
            |response| match response {
                QueryResponse::Groups(list) => Ok(list),
                QueryResponse::Empty => Ok(Vec::new()),
                other => Err(other),
            },
        )?)),
        QueryRequest::Statistics => {
            QueryResponse::Statistics(merge_statistics(per_shard(responses, |response| {
                match response {
                    QueryResponse::Statistics(stats) => Ok(stats),
                    other => Err(other),
                }
            })?))
        }
        _ => unreachable!("every assertion stream is pageable"),
    })
}

/// What `pick` extracts from each shard's response; a response it hands back is unexpected.
fn per_shard<T>(
    responses: Vec<QueryResponse>,
    pick: impl Fn(QueryResponse) -> Result<T, QueryResponse>,
) -> WireResult<Vec<T>> {
    responses
        .into_iter()
        .map(|response| {
            pick(response).map_err(|other| {
                WireError::Payload(format!("unexpected shard query response: {other:?}"))
            })
        })
        .collect()
}

/// Merge per-shard answers to an assertion-producing query — `(sort key, item)` pairs, each
/// shard's in its own answer order — into a single store's order: grouped by interaction in
/// ascending escaped-key order, and within one interaction shard-major (shards in index order,
/// matching the store's sequence order for co-located sessions), each shard's items in its
/// own order. Only the sort keys are read, so items may be stored documents or decoded
/// assertions alike.
pub fn merge_documents<T>(per_shard: Vec<Vec<(String, T)>>) -> Vec<(String, T)> {
    let mut merged: Vec<(usize, String, T)> = per_shard
        .into_iter()
        .enumerate()
        .flat_map(|(shard, items)| {
            items
                .into_iter()
                .map(move |(sort, item)| (shard, sort, item))
        })
        .collect();
    // Stable, so one shard's items of one interaction keep their order.
    merged.sort_by(|a, b| (interaction_of(&a.1), a.0).cmp(&(interaction_of(&b.1), b.0)));
    merged
        .into_iter()
        .map(|(_, sort, item)| (sort, item))
        .collect()
}

/// The interaction a sort key belongs to, as `<escaped interaction>/` — with the trailing
/// slash, so interactions order exactly as the store's `a/<escaped interaction>/` prefixes do.
fn interaction_of(sort: &str) -> &str {
    sort.rfind('/').map_or(sort, |slash| &sort[..=slash])
}

/// Merge per-shard sorted interaction-key lists into one globally sorted list, honouring
/// `limit` after the merge (the order a single store's `i/` prefix scan would produce).
pub fn merge_interactions(
    per_shard: Vec<Vec<InteractionKey>>,
    limit: Option<usize>,
) -> Vec<InteractionKey> {
    let mut merged: Vec<InteractionKey> = per_shard.into_iter().flatten().collect();
    merged.sort_by_key(|key| keys::interaction_key(key.as_str()));
    merged.dedup();
    if let Some(limit) = limit {
        merged.truncate(limit);
    }
    merged
}

/// Merge per-shard group lists in the store's key order (escaped group id within one kind).
pub fn merge_groups(per_shard: Vec<Vec<Group>>) -> Vec<Group> {
    let mut merged: Vec<Group> = per_shard.into_iter().flatten().collect();
    merged.sort_by_key(|group| keys::group_key(group.kind.label(), &group.id));
    merged
}

/// Field-wise sum of per-shard statistics.
pub fn merge_statistics(per_shard: Vec<StoreStatistics>) -> StoreStatistics {
    let mut total = StoreStatistics::default();
    for stats in per_shard {
        total.interaction_passertions += stats.interaction_passertions;
        total.actor_state_passertions += stats.actor_state_passertions;
        total.relationship_passertions += stats.relationship_passertions;
        total.interactions += stats.interactions;
        total.groups += stats.groups;
        total.content_bytes += stats.content_bytes;
    }
    total
}

/// Union of per-shard lineage graphs. Nodes present on several shards (possible only for data
/// ids shared across sessions that hash apart) merge their edges in shard order, deduplicated
/// exactly like `LineageGraph::trace_session` deduplicates repeated causes.
pub fn merge_lineage(per_shard: Vec<LineageGraph>) -> LineageGraph {
    let mut merged = LineageGraph::default();
    for graph in per_shard {
        for (id, node) in graph.nodes {
            match merged.nodes.entry(id) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(node);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let existing: &mut LineageNode = slot.get_mut();
                    for parent in node.derived_from {
                        if !existing.derived_from.contains(&parent) {
                            existing.derived_from.push(parent);
                        }
                    }
                    for relation in node.relations {
                        if !existing.relations.contains(&relation) {
                            existing.relations.push(relation);
                        }
                    }
                }
            }
        }
    }
    merged
}

/// Merge bounded per-shard pages into one client page.
///
/// Each shard page covers that shard's full `(cursor, last item]` key range, and within one
/// shard sort keys are unique (the store's sequence disambiguates) — so every item with a key
/// at or below the *fence* (the minimum last-key over shards that are not exhausted) is
/// guaranteed fetched, and emitting up to the fence can never skip an item a lagging shard
/// still holds. Items past the fence are discarded and refetched on the next page. The emit
/// cap never splits a run of equal keys (they span shards, at most one per shard), so the
/// single returned cursor key is always a safe resume point. Within one interaction the merge
/// orders equal-prefix items by `(sort key, shard)`; for session- and interaction-co-located
/// data — the router's placement invariant — that coincides with the unpaginated merge order.
/// The merged page is exhausted exactly when no item remains anywhere, so its
/// [`ShardQueryPage::next`] is the client's cursor.
pub(crate) fn merge_shard_pages(pages: Vec<ShardQueryPage>, page_size: usize) -> ShardQueryPage {
    let fence: Option<String> = pages
        .iter()
        .filter(|page| !page.exhausted)
        .filter_map(|page| page.items.last().map(|(sort, _)| sort.clone()))
        .min();
    let all_exhausted = pages.iter().all(|page| {
        // An unexhausted page with no items cannot make progress claims; treat it as drained.
        page.exhausted || page.items.is_empty()
    });
    let mut merged: Vec<(String, usize, Vec<u8>)> = Vec::new();
    for (shard, page) in pages.into_iter().enumerate() {
        for (sort, document) in page.items {
            if fence.as_deref().is_none_or(|fence| sort.as_str() <= fence) {
                merged.push((sort, shard, document));
            }
        }
    }
    merged.sort_by(|a, b| (a.0.as_str(), a.1).cmp(&(b.0.as_str(), b.1)));
    let total = merged.len();
    let mut emit = total.min(page_size);
    // Never split an equal-key run across pages: the resume key must cover it whole.
    while emit > 0 && emit < total && merged[emit].0 == merged[emit - 1].0 {
        emit += 1;
    }
    merged.truncate(emit);
    ShardQueryPage {
        items: merged
            .into_iter()
            .map(|(sort, _, document)| (sort, document))
            .collect(),
        exhausted: all_exhausted && emit == total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasoa_core::ids::DataId;
    use pasoa_core::GroupKind;
    use pasoa_preserv::index::sort_key;

    #[test]
    fn assertions_merge_in_interaction_key_order() {
        fn item(interaction: &str, seq: u64, tag: &'static str) -> (String, &'static str) {
            (sort_key(interaction, seq), tag)
        }
        // Shard 1 holds a second `interaction:b` assertion recorded before shard 0's: the
        // merge is shard-major within an interaction, whatever the sequence numbers say.
        let shard0 = vec![
            item("interaction:b", 5, "b0"),
            item("interaction:b", 9, "b1"),
        ];
        let shard1 = vec![
            item("interaction:a", 7, "a0"),
            item("interaction:b", 1, "b2"),
        ];
        // `interaction:b-` escapes to a key sharing `interaction:b` as a prefix; the store's
        // `a/<interaction>/` order puts it first.
        let shard2 = vec![item("interaction:b-", 0, "b-0")];
        let merged = merge_documents(vec![shard0, shard1, shard2]);
        let tags: Vec<&str> = merged.iter().map(|(_, tag)| *tag).collect();
        assert_eq!(tags, vec!["a0", "b-0", "b0", "b1", "b2"]);
    }

    #[test]
    fn interactions_merge_sorted_with_limit() {
        let merged = merge_interactions(
            vec![
                vec![InteractionKey::new("interaction:c")],
                vec![
                    InteractionKey::new("interaction:a"),
                    InteractionKey::new("interaction:b"),
                ],
            ],
            Some(2),
        );
        assert_eq!(
            merged,
            vec![
                InteractionKey::new("interaction:a"),
                InteractionKey::new("interaction:b")
            ]
        );
    }

    #[test]
    fn groups_merge_in_key_order() {
        let g = |id: &str| Group::new(id, GroupKind::Session);
        let merged = merge_groups(vec![vec![g("session:2")], vec![g("session:1")]]);
        assert_eq!(merged[0].id, "session:1");
        assert_eq!(merged[1].id, "session:2");
    }

    #[test]
    fn statistics_sum() {
        let a = StoreStatistics {
            interactions: 2,
            groups: 1,
            ..Default::default()
        };
        let b = StoreStatistics {
            interactions: 3,
            content_bytes: 10,
            ..Default::default()
        };
        let total = merge_statistics(vec![a, b]);
        assert_eq!(total.interactions, 5);
        assert_eq!(total.groups, 1);
        assert_eq!(total.content_bytes, 10);
    }

    #[test]
    fn lineage_union_merges_shared_nodes() {
        let node = |parents: &[&str]| LineageNode {
            data: DataId::new("data:x"),
            derived_from: parents.iter().map(|p| DataId::new(*p)).collect(),
            relations: vec!["derived".into()],
        };
        let mut left = LineageGraph::default();
        left.nodes.insert("data:x".into(), node(&["data:a"]));
        let mut right = LineageGraph::default();
        right
            .nodes
            .insert("data:x".into(), node(&["data:a", "data:b"]));
        let merged = merge_lineage(vec![left, right]);
        assert_eq!(
            merged.nodes["data:x"].derived_from,
            vec![DataId::new("data:a"), DataId::new("data:b")]
        );
        assert_eq!(
            merged.nodes["data:x"].relations,
            vec!["derived".to_string()]
        );
    }

    fn item(sort: &str) -> (String, Vec<u8>) {
        (sort.to_string(), sort.as_bytes().to_vec())
    }

    fn tag(page: &ShardQueryPage) -> Vec<String> {
        page.items
            .iter()
            .map(|(_, document)| String::from_utf8(document.clone()).unwrap())
            .collect()
    }

    #[test]
    fn fence_holds_back_items_a_lagging_shard_could_still_produce() {
        // Shard 0 returned a full page up to "c" (not exhausted); shard 1 already produced
        // "e". "e" must wait: shard 0 may still hold "d".
        let pages = vec![
            ShardQueryPage {
                items: vec![item("a"), item("c")],
                exhausted: false,
            },
            ShardQueryPage {
                items: vec![item("b"), item("e")],
                exhausted: true,
            },
        ];
        let merged = merge_shard_pages(pages, 10);
        assert_eq!(tag(&merged), vec!["a", "b", "c"]);
        assert_eq!(merged.next().unwrap().after, "c");
    }

    #[test]
    fn all_exhausted_pages_drain_completely() {
        let pages = vec![
            ShardQueryPage {
                items: vec![item("a"), item("c")],
                exhausted: true,
            },
            ShardQueryPage {
                items: vec![item("b")],
                exhausted: true,
            },
        ];
        let merged = merge_shard_pages(pages, 10);
        assert_eq!(tag(&merged), vec!["a", "b", "c"]);
        assert!(merged.next().is_none());
    }

    #[test]
    fn emit_cap_never_splits_an_equal_key_run() {
        // Two shards share sort key "b" (possible only across shards); a page size of 2 must
        // stretch to include both copies, or resuming after "b" would skip the second.
        let pages = vec![
            ShardQueryPage {
                items: vec![item("a"), item("b")],
                exhausted: true,
            },
            ShardQueryPage {
                items: vec![item("b"), item("d")],
                exhausted: true,
            },
        ];
        let merged = merge_shard_pages(pages, 2);
        assert_eq!(tag(&merged), vec!["a", "b", "b"]);
        assert_eq!(merged.next().unwrap().after, "b");
    }

    #[test]
    fn empty_result_set_is_done_immediately() {
        let pages = vec![ShardQueryPage {
            items: vec![],
            exhausted: true,
        }];
        let merged = merge_shard_pages(pages, 4);
        assert!(merged.items.is_empty());
        assert!(merged.next().is_none());
    }
}

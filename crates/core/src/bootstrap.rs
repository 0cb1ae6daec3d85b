//! Cold-start bootstrap (paper §II-D).
//!
//! A node joining for the first time contacts a random node, inherits its
//! RPS and WUP views, and builds a fresh profile by rating the 3 most
//! popular news items found in the profiles of the inherited RPS view. The
//! resulting profile rarely matches the newcomer's interests, but — because
//! the WUP metric favors small profiles containing popular items — it makes
//! the newcomer visible to many nodes, which quickly sends it items it can
//! rate genuinely.

use crate::item::{ItemId, Timestamp};
use crate::profile::SharedProfile;
use serde::{Deserialize, Serialize};
use whatsup_gossip::Descriptor;

/// The view snapshots a joining node inherits from its contact.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ColdStart {
    pub rps_view: Vec<Descriptor<SharedProfile>>,
    pub wup_view: Vec<Descriptor<SharedProfile>>,
}

/// Returns the `k` most *liked* items across the given descriptors'
/// profiles, each with the freshest timestamp observed for it. Popularity is
/// the number of profiles liking the item; ties break on higher id
/// (an arbitrary but deterministic rule).
pub fn most_popular_items(
    descriptors: &[Descriptor<SharedProfile>],
    k: usize,
) -> Vec<(ItemId, Timestamp)> {
    // Profiles are tiny (window-bounded); a flat vec beats a hash map here.
    let mut tally: Vec<(ItemId, u32, Timestamp)> = Vec::new();
    for d in descriptors {
        for id in d.payload.liked_items() {
            let ts = d.payload.get(id).map(|e| e.timestamp).unwrap_or(0);
            match tally.iter_mut().find(|(i, _, _)| *i == id) {
                Some((_, count, newest)) => {
                    *count += 1;
                    *newest = (*newest).max(ts);
                }
                None => tally.push((id, 1, ts)),
            }
        }
    }
    tally.sort_by(|a, b| b.1.cmp(&a.1).then(b.0.cmp(&a.0)));
    tally.truncate(k);
    tally.into_iter().map(|(id, _, ts)| (id, ts)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Profile, ProfileEntry};

    fn desc(
        node: u32,
        likes: &[(ItemId, Timestamp)],
        dislikes: &[ItemId],
    ) -> Descriptor<SharedProfile> {
        let p = Profile::from_entries(
            likes
                .iter()
                .map(|&(i, t)| ProfileEntry {
                    item: i,
                    timestamp: t,
                    score: 1.0,
                })
                .chain(dislikes.iter().map(|&i| ProfileEntry {
                    item: i,
                    timestamp: 0,
                    score: 0.0,
                })),
        );
        Descriptor::fresh(node, SharedProfile::new(p))
    }

    #[test]
    fn ranks_by_like_count() {
        let views = vec![
            desc(1, &[(10, 1), (20, 1)], &[]),
            desc(2, &[(10, 2)], &[]),
            desc(3, &[(10, 3), (30, 1)], &[]),
        ];
        let top = most_popular_items(&views, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 10);
        assert_eq!(top[0].1, 3, "freshest timestamp kept");
    }

    #[test]
    fn dislikes_do_not_count_as_popularity() {
        let views = vec![
            desc(1, &[(7, 0)], &[9]),
            desc(2, &[], &[9]),
            desc(3, &[], &[9]),
        ];
        let top = most_popular_items(&views, 1);
        assert_eq!(top[0].0, 7);
    }

    #[test]
    fn empty_views_give_empty_bootstrap() {
        assert!(most_popular_items(&[], 3).is_empty());
        let views = vec![desc(1, &[], &[])];
        assert!(most_popular_items(&views, 3).is_empty());
    }

    #[test]
    fn requests_more_than_available() {
        let views = vec![desc(1, &[(5, 0)], &[])];
        let top = most_popular_items(&views, 3);
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn ties_are_deterministic() {
        let views = vec![desc(1, &[(5, 0), (9, 0)], &[])];
        let a = most_popular_items(&views, 1);
        let b = most_popular_items(&views, 1);
        assert_eq!(a, b);
        assert_eq!(a[0].0, 9, "tie breaks on higher id");
    }
}

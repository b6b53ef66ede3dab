//! The consistent-hash ring: stable key → shard placement with
//! virtual nodes.
//!
//! Each shard endpoint is hashed onto [`VNODES_PER_SHARD`] points of a
//! 64-bit ring (a `BTreeMap` keyed by point). A request key owns the
//! first point clockwise from its own hash; its R-replica set is the
//! next R *distinct* shards along the ring. Virtual nodes smooth the
//! load (one physical shard owns many small arcs instead of one big
//! one), and membership changes move only the arcs adjacent to the
//! joining/leaving shard's points — ≈ `1/N` of the key space, never a
//! full reshuffle. That minimal-remap property is what keeps the
//! shards' content-addressed caches hot across membership changes, and
//! it is pinned by property tests in `tests/ring_properties.rs`.

use std::collections::BTreeMap;

/// FNV-1a, the stable hash the rest of the workspace uses for content
/// identity; ring points and routing keys are built on it.
pub use dagsched_isa::fnv64;
use dagsched_isa::splitmix64_at;

/// Virtual nodes per shard. 512 points keeps the per-shard load share
/// within a few percent of uniform (σ ≈ 1/√V ≈ 4.4%) at every cluster
/// size the property tests cover; the ring stays tiny (≤ 8K points at
/// 16 shards) so membership ops remain microseconds.
pub const VNODES_PER_SHARD: u32 = 512;

/// The ring point for virtual node `vnode` of `endpoint`. The SplitMix64
/// finalizer spreads FNV's low-entropy tail bits across the whole word
/// so ring points land uniformly.
fn point(endpoint: &str, vnode: u32) -> u64 {
    splitmix64_at(
        fnv64(endpoint.as_bytes()) ^ ((u64::from(vnode) << 32) | u64::from(vnode)),
        0,
    )
}

/// A consistent-hash ring over shard endpoint strings.
#[derive(Debug, Clone, Default)]
pub struct Ring {
    /// Ring point → index into `members`.
    points: BTreeMap<u64, usize>,
    /// Shard endpoints in join order. Removal leaves a `None` hole so
    /// surviving indices (and therefore their ring points) stay put.
    members: Vec<Option<String>>,
}

impl Ring {
    /// An empty ring.
    pub fn new() -> Ring {
        Ring::default()
    }

    /// A ring over `endpoints`, in order.
    pub fn with_members<I, S>(endpoints: I) -> Ring
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut ring = Ring::new();
        for e in endpoints {
            ring.add(e.into());
        }
        ring
    }

    /// Live member endpoints, join order.
    pub fn members(&self) -> Vec<&str> {
        self.members.iter().filter_map(|m| m.as_deref()).collect()
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.iter().filter(|m| m.is_some()).count()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `endpoint` is a member.
    pub fn contains(&self, endpoint: &str) -> bool {
        self.members.iter().any(|m| m.as_deref() == Some(endpoint))
    }

    /// Add a shard. Returns `false` (and changes nothing) when it is
    /// already a member. On a hash-point collision with an existing
    /// member the incumbent keeps the point, so either insertion order
    /// converges to the same ring.
    pub fn add(&mut self, endpoint: impl Into<String>) -> bool {
        let endpoint = endpoint.into();
        if self.contains(&endpoint) {
            return false;
        }
        let index = match self.members.iter().position(|m| m.is_none()) {
            Some(hole) => {
                self.members[hole] = Some(endpoint.clone());
                hole
            }
            None => {
                self.members.push(Some(endpoint.clone()));
                self.members.len() - 1
            }
        };
        for vnode in 0..VNODES_PER_SHARD {
            self.points.entry(point(&endpoint, vnode)).or_insert(index);
        }
        true
    }

    /// Remove a shard. Returns `false` when it was not a member.
    pub fn remove(&mut self, endpoint: &str) -> bool {
        let Some(index) = self
            .members
            .iter()
            .position(|m| m.as_deref() == Some(endpoint))
        else {
            return false;
        };
        self.points.retain(|_, i| *i != index);
        self.members[index] = None;
        true
    }

    /// The shard owning `key` (`None` on an empty ring).
    pub fn primary(&self, key: u64) -> Option<&str> {
        self.replicas(key, 1).into_iter().next()
    }

    /// The first `r` *distinct* shards clockwise from `key` — the
    /// key's replica set, primary first. Fewer than `r` when the ring
    /// has fewer members.
    pub fn replicas(&self, key: u64, r: usize) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::with_capacity(r.min(self.len()));
        if r == 0 {
            return out;
        }
        // One clockwise walk: the range above the key, then the wrap.
        for (_, &index) in self.points.range(key..).chain(self.points.range(..key)) {
            let Some(endpoint) = self.members[index].as_deref() else {
                continue;
            };
            if !out.contains(&endpoint) {
                out.push(endpoint);
                if out.len() == r {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = Ring::new();
        assert!(ring.is_empty());
        assert_eq!(ring.primary(42), None);
        assert!(ring.replicas(42, 2).is_empty());
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = Ring::with_members(["unix:/tmp/a.sock"]);
        for key in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(ring.primary(key), Some("unix:/tmp/a.sock"));
        }
    }

    #[test]
    fn replica_sets_are_distinct_and_primary_first() {
        let ring = Ring::with_members(["a", "b", "c"]);
        for key in 0..1000u64 {
            let reps = ring.replicas(splitmix64_at(key, 0), 2);
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            assert_eq!(ring.primary(splitmix64_at(key, 0)), Some(reps[0]));
        }
        // Asking for more replicas than members yields all members.
        assert_eq!(ring.replicas(7, 5).len(), 3);
    }

    #[test]
    fn placement_ignores_insertion_order() {
        let forward = Ring::with_members(["a", "b", "c", "d"]);
        let backward = Ring::with_members(["d", "c", "b", "a"]);
        for key in 0..2000u64 {
            assert_eq!(
                forward.primary(splitmix64_at(key, 0)),
                backward.primary(splitmix64_at(key, 0)),
                "key {key}"
            );
        }
    }

    #[test]
    fn add_remove_round_trips() {
        let mut ring = Ring::with_members(["a", "b", "c"]);
        let before: Vec<Option<String>> = (0..500u64)
            .map(|k| ring.primary(splitmix64_at(k, 0)).map(str::to_string))
            .collect();
        assert!(ring.remove("b"));
        assert!(!ring.remove("b"), "double remove is a no-op");
        assert!(!ring.contains("b"));
        assert!(ring.add("b"));
        assert!(!ring.add("b"), "double add is a no-op");
        let after: Vec<Option<String>> = (0..500u64)
            .map(|k| ring.primary(splitmix64_at(k, 0)).map(str::to_string))
            .collect();
        assert_eq!(before, after, "remove+add restores every placement");
    }

    #[test]
    fn removed_shards_never_appear_in_replica_sets() {
        let mut ring = Ring::with_members(["a", "b", "c", "d"]);
        ring.remove("c");
        assert_eq!(ring.len(), 3);
        for key in 0..2000u64 {
            for rep in ring.replicas(splitmix64_at(key, 0), 3) {
                assert_ne!(rep, "c");
            }
        }
    }
}

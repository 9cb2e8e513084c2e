//! Property tests for the consistent-hash shard map (and the engine-level
//! residency invariant it underwrites).
//!
//! The three contracts from the sharding design (`engine::shard`):
//!
//! * **Stability** — `shard_for` is a pure function of the live shard set;
//!   rebuilding a map with the same shards reproduces every assignment.
//! * **Bounded movement** — adding a shard moves keys only *to* it, and
//!   only a minority of them; removing a shard moves only the keys it
//!   owned. Untouched shards never lose or gain residents as bystanders.
//! * **Unique ownership** — every fingerprint routes to exactly one live
//!   shard, and at the engine level an instance is never resident in two
//!   shards' caches, even across topology changes.

use std::sync::Arc;

use lsc_automata::families::blowup_nfa;
use lsc_core::engine::{EngineConfig, ShardMap, ShardedConfig, ShardedEngine};
use lsc_core::PreparedInstance;
use proptest::prelude::*;

const REPLICAS: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stability + unique ownership: routing is a function into the live
    /// shard set, identical across independently built maps.
    #[test]
    fn routing_is_a_stable_function(shards in 1usize..12, fps in collection::vec(any::<u64>(), 1..256)) {
        let map = ShardMap::new(shards, REPLICAS);
        let rebuilt = ShardMap::new(shards, REPLICAS);
        for &fp in &fps {
            let owner = map.shard_for(fp);
            prop_assert!(map.shard_ids().contains(&owner), "owner must be live");
            prop_assert_eq!(owner, map.shard_for(fp), "same map, same answer");
            prop_assert_eq!(owner, rebuilt.shard_for(fp), "same shard set, same answer");
        }
    }

    /// Adding a shard moves keys only to the new shard — every key either
    /// keeps its owner or lands on the addition.
    #[test]
    fn adding_a_shard_bounds_key_movement(shards in 1usize..10, fps in collection::vec(any::<u64>(), 1..512)) {
        let mut map = ShardMap::new(shards, REPLICAS);
        let before: Vec<usize> = fps.iter().map(|&fp| map.shard_for(fp)).collect();
        let new_shard = shards; // next free id
        map.add_shard(new_shard);
        let mut moved = 0usize;
        for (i, &fp) in fps.iter().enumerate() {
            let now = map.shard_for(fp);
            if now != before[i] {
                prop_assert_eq!(now, new_shard, "keys may move only to the new shard");
                moved += 1;
            }
        }
        // With V=64 virtual nodes the moved fraction concentrates near
        // 1/(N+1); assert a loose upper bound so a broken ring (everything
        // rehashed) fails loudly without flaking on small samples.
        if fps.len() >= 64 {
            prop_assert!(
                moved * (shards + 1) <= fps.len() * 3,
                "moved {} of {} keys at {} -> {} shards: far beyond the consistent-hashing bound",
                moved, fps.len(), shards, shards + 1
            );
        }
    }

    /// Removing a shard moves only the keys it owned; everyone else's
    /// assignment is untouched.
    #[test]
    fn removing_a_shard_moves_only_its_keys(shards in 2usize..10, victim_seed in any::<u64>(), fps in collection::vec(any::<u64>(), 1..512)) {
        let mut map = ShardMap::new(shards, REPLICAS);
        let victim = (victim_seed % shards as u64) as usize;
        let before: Vec<usize> = fps.iter().map(|&fp| map.shard_for(fp)).collect();
        prop_assert!(map.remove_shard(victim));
        for (i, &fp) in fps.iter().enumerate() {
            let now = map.shard_for(fp);
            if before[i] == victim {
                prop_assert!(now != victim, "victim's keys must move off it");
            } else {
                prop_assert_eq!(now, before[i], "bystander keys must not move");
            }
        }
    }

    /// Add-then-remove round trip restores every assignment (the ring is a
    /// pure function of the shard set, not of its history).
    #[test]
    fn topology_round_trip_restores_assignments(shards in 1usize..10, fps in collection::vec(any::<u64>(), 1..256)) {
        let mut map = ShardMap::new(shards, REPLICAS);
        let before: Vec<usize> = fps.iter().map(|&fp| map.shard_for(fp)).collect();
        map.add_shard(shards);
        prop_assert!(map.remove_shard(shards));
        for (i, &fp) in fps.iter().enumerate() {
            prop_assert_eq!(map.shard_for(fp), before[i]);
        }
    }

    /// Engine-level unique residency: after preparing instances and
    /// churning the topology, no instance is resident in two shards, and
    /// each resident copy sits on its map-assigned home shard.
    #[test]
    fn no_instance_is_ever_resident_in_two_shards(shards in 1usize..6, ks in collection::vec(3usize..9, 1..8), churn in 0usize..4) {
        let engine = ShardedEngine::new(ShardedConfig {
            engine: EngineConfig::default(),
            shards,
        });
        let instances: Vec<(Arc<_>, usize)> = ks
            .iter()
            .map(|&k| (Arc::new(blowup_nfa(k)), 6 + k))
            .collect();
        for (nfa, n) in &instances {
            engine.prepare_nfa(nfa, *n);
        }
        for round in 0..churn {
            if round % 2 == 0 {
                engine.add_shard();
            } else {
                let last = engine
                    .stats()
                    .per_shard
                    .last()
                    .map(|(id, _)| *id)
                    .expect("shards exist");
                engine.remove_shard(last);
            }
            // Re-touch half the instances between changes, as live traffic
            // would.
            for (nfa, n) in instances.iter().step_by(2) {
                engine.prepare_nfa(nfa, *n);
            }
        }
        for (nfa, n) in &instances {
            let fp = PreparedInstance::instance_fingerprint(nfa, *n);
            let resident = engine.resident_shards(fp);
            prop_assert!(resident.len() <= 1, "double residency: {:?}", resident);
            if let Some(&shard) = resident.first() {
                prop_assert_eq!(
                    shard,
                    engine.shard_for_fingerprint(fp),
                    "resident off its home shard"
                );
            }
        }
    }
}

/// Keys spread over every shard (not a property test: one fixed, larger
/// sample keeps the distribution check deterministic).
#[test]
fn every_shard_owns_a_fair_share() {
    let shards = 8;
    let map = ShardMap::new(shards, REPLICAS);
    let mut owned = vec![0usize; shards];
    let keys = 64_000u64;
    for fp in 0..keys {
        owned[map.shard_for(fp)] += 1;
    }
    let ideal = keys as usize / shards;
    for (shard, &count) in owned.iter().enumerate() {
        assert!(
            count * 3 >= ideal && count <= ideal * 3,
            "shard {shard} owns {count} of {keys} keys (ideal {ideal}): ring is badly skewed"
        );
    }
}

//! Key-routed sharding: partition the database over several independent
//! group-safe replication groups.
//!
//! The paper argues group-safety for a single replica group; scaling past
//! one group's sequencer means *partitioning* the key space across `N`
//! groups, each running its own batched group-safe atomic-broadcast
//! pipeline with its own sequencer, GCS view and stable logs (the
//! direction of Sutra & Shapiro's fault-tolerant partial replication).
//! This module owns the routing layer:
//!
//! * [`ShardMap`] — a deterministic key → group router by modulo
//!   striping, validated at build time ([`ShardError`]: no groups, or a
//!   group that owns no key, is rejected before any actor is wired),
//! * [`ShardSpec`] — the builder-facing configuration
//!   ([`SystemBuilder::shards`](crate::SystemBuilder::shards),
//!   [`SystemBuilder::cross_shard_fraction`](crate::SystemBuilder::cross_shard_fraction)),
//!   resolved against the database size when the system is built,
//! * [`sharded_generator`] — a [`WorkloadSpec`] wrapper that draws
//!   single-group transactions (all keys from one group) and, with a
//!   configurable probability, cross-group transactions spanning two
//!   groups.
//!
//! Transactions that touch one group pay only that group's abcast cost;
//! transactions that span groups commit through an ordered two-phase
//! protocol layered on the per-group broadcasts (certify in every touched
//! group, then a coordinator-group decision broadcast — see the
//! cross-group section of `ARCHITECTURE.md` and the `XgPrepare` /
//! `XgDecision` messages in [`crate::msg`]).
//!
//! # Example
//!
//! ```
//! use groupsafe_core::shard::ShardMap;
//! use groupsafe_db::ItemId;
//!
//! // 10 000 keys striped over 4 groups.
//! let map = ShardMap::hash(4, 10_000).unwrap();
//! assert_eq!(map.group_of(ItemId(5)), 1);
//! assert_eq!(map.group_of(ItemId(8)), 0);
//! // More groups than keys would leave a group empty.
//! assert!(ShardMap::hash(11, 10).is_err());
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "a routed transaction indexes its one or two groups below their count"
)]

use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;

use groupsafe_db::{ItemId, Operation};

use crate::builder::WorkloadSpec;
use crate::client::{OpGenerator, TxnPlan};

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a shard configuration was rejected at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Zero groups: the router needs at least one.
    NoGroups,
    /// A group owns no keys (more groups than keys).
    EmptyGroup {
        /// The group that owns nothing.
        group: u32,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoGroups => write!(f, "a shard map needs at least one group"),
            ShardError::EmptyGroup { group } => {
                write!(f, "shard group {group} owns no keys")
            }
        }
    }
}

impl std::error::Error for ShardError {}

// ---------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------

/// A validated, deterministic key → group router over a fixed key space:
/// modulo striping, key `k` belongs to group `k % n_groups`, which
/// spreads any hotspot evenly and needs no configuration.
///
/// Construction validates the partition: every group must own at least
/// one key ([`ShardError`] otherwise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    n_groups: u32,
    n_items: u32,
}

impl ShardMap {
    /// Modulo ("hash") striping of `n_items` keys over `n_groups` groups.
    pub fn hash(n_groups: u32, n_items: u32) -> Result<ShardMap, ShardError> {
        if n_groups == 0 {
            return Err(ShardError::NoGroups);
        }
        if n_groups > n_items {
            // Some group would own nothing.
            return Err(ShardError::EmptyGroup { group: n_items });
        }
        Ok(ShardMap { n_groups, n_items })
    }

    /// The degenerate single-group map (the unsharded system).
    pub fn single(n_items: u32) -> ShardMap {
        ShardMap {
            n_groups: 1,
            n_items: n_items.max(1),
        }
    }

    /// Number of groups.
    pub fn n_groups(&self) -> u32 {
        self.n_groups
    }

    /// Size of the key space.
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// The group owning `item`.
    pub fn group_of(&self, item: ItemId) -> u32 {
        debug_assert!(item.0 < self.n_items, "key outside the shard map's space");
        item.0 % self.n_groups
    }

    /// The distinct groups touched by `ops`, in ascending group order.
    pub fn groups_of(&self, ops: &[Operation]) -> Vec<u32> {
        let mut gs: Vec<u32> = ops.iter().map(|o| self.group_of(o.item())).collect();
        gs.sort_unstable();
        gs.dedup();
        gs
    }

    /// Number of keys group `g` owns.
    pub fn group_len(&self, g: u32) -> u32 {
        let n = self.n_items / self.n_groups;
        n + u32::from(g < self.n_items % self.n_groups)
    }

    /// The `j`-th key of group `g` (closed-form uniform sampling over a
    /// group's key set; `j < group_len(g)`).
    pub fn nth_key(&self, g: u32, j: u32) -> ItemId {
        ItemId(g + j * self.n_groups)
    }

    /// Number of keys of group `g` below `limit` (the hot-set prefix a
    /// workload's hotspot targets).
    pub fn group_len_below(&self, g: u32, limit: u32) -> u32 {
        let limit = limit.min(self.n_items);
        limit / self.n_groups + u32::from(g < limit % self.n_groups)
    }
}

// ---------------------------------------------------------------------
// ShardSpec (builder-facing configuration)
// ---------------------------------------------------------------------

/// The sharding configuration a [`SystemBuilder`](crate::SystemBuilder)
/// carries: group count (resolved into a validated [`ShardMap`] against
/// the database size at build time) plus the built-in generator's
/// cross-group transaction fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Number of replica groups (1 = the classic unsharded system).
    pub groups: u32,
    /// Fraction of generated transactions that span two groups (built-in
    /// generator only; 0.0 = every transaction stays within one group).
    pub cross_fraction: f64,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec {
            groups: 1,
            cross_fraction: 0.0,
        }
    }
}

impl ShardSpec {
    /// Resolve into a validated [`ShardMap`] over `n_items` keys.
    pub fn resolve(&self, n_items: u32) -> Result<ShardMap, ShardError> {
        ShardMap::hash(self.groups, n_items)
    }
}

// ---------------------------------------------------------------------
// Sharded workload generation
// ---------------------------------------------------------------------

/// Draw one key of group `g`, honouring the spec's hotspot: with
/// probability `hot_access_fraction` the key comes from the group's
/// share of the hot prefix (when the group owns any of it).
fn draw_group_item(spec: &WorkloadSpec, map: &ShardMap, g: u32, rng: &mut StdRng) -> ItemId {
    let hot_limit = ((spec.n_items as f64 * spec.hot_set_fraction) as u32).max(1);
    let hot_len = map.group_len_below(g, hot_limit);
    if spec.hot_access_fraction > 0.0 && hot_len > 0 && rng.random_bool(spec.hot_access_fraction) {
        map.nth_key(g, rng.random_range(0..hot_len))
    } else {
        map.nth_key(g, rng.random_range(0..map.group_len(g)))
    }
}

/// One transaction routed within `groups` (one entry = single-group, two
/// entries = cross-group with at least one operation in each). With
/// `force_reads` every operation is a read (the routed form of the
/// spec's read-only fraction).
fn generate_routed_txn(
    spec: &WorkloadSpec,
    map: &ShardMap,
    groups: &[u32],
    force_reads: bool,
    rng: &mut StdRng,
) -> Vec<Operation> {
    let len = rng.random_range(spec.txn_len_min..=spec.txn_len_max);
    let mut ops = Vec::with_capacity(len);
    for i in 0..len {
        // The first `groups.len()` operations pin one op per touched
        // group (so a "cross" transaction really crosses); the rest coin-
        // flip between them.
        let g = if i < groups.len() {
            groups[i]
        } else {
            groups[rng.random_range(0..groups.len())]
        };
        let item = draw_group_item(spec, map, g, rng);
        if !force_reads && rng.random_bool(spec.write_probability) {
            ops.push(Operation::Write(
                item,
                rng.random_range(-1_000_000..1_000_000),
            ));
        } else {
            ops.push(Operation::Read(item));
        }
    }
    ops
}

/// A per-client generator over `spec`, routed through `map`: each
/// transaction's keys come from a single randomly-chosen group, except a
/// `cross_fraction` of transactions which span two distinct groups.
///
/// With a single-group map this delegates to
/// [`WorkloadSpec::generate_txn`] unchanged — the draw sequence (and thus
/// any seeded run) is bit-for-bit identical to the unsharded system.
pub fn sharded_generator(
    spec: &WorkloadSpec,
    map: Rc<ShardMap>,
    cross_fraction: f64,
) -> OpGenerator {
    let spec = spec.clone();
    Box::new(move |rng: &mut StdRng| {
        let n = map.n_groups();
        if n <= 1 {
            return spec.generate_plan(rng);
        }
        // The read-mix coin is drawn only when the knob is set, so the
        // historical draw sequence — and every seeded sharded run —
        // replays identically at the default.
        let readonly = spec.read_fraction > 0.0 && rng.random_bool(spec.read_fraction);
        let cross =
            cross_fraction > 0.0 && spec.txn_len_max >= 2 && rng.random_bool(cross_fraction);
        if cross {
            let a = rng.random_range(0..n);
            let b = (a + 1 + rng.random_range(0..n - 1)) % n;
            let mut spec2 = spec.clone();
            spec2.txn_len_min = spec.txn_len_min.max(2);
            TxnPlan::new(generate_routed_txn(&spec2, &map, &[a, b], readonly, rng))
        } else {
            let g = rng.random_range(0..n);
            // The SI coin is drawn only for single-group update
            // transactions (cross-group slices certify classically) and
            // only when the knob is set — same fingerprint discipline as
            // the read-mix coin.
            if !readonly && spec.txn_fraction > 0.0 && rng.random_bool(spec.txn_fraction) {
                let mut spec2 = spec.clone();
                spec2.txn_len_min = spec.txn_ops_min;
                spec2.txn_len_max = spec.txn_ops_max;
                let mut ops = generate_routed_txn(&spec2, &map, &[g], false, rng);
                if !ops.iter().any(|o| o.is_write()) {
                    let item = draw_group_item(&spec, &map, g, rng);
                    ops.push(Operation::Write(
                        item,
                        rng.random_range(-1_000_000..1_000_000),
                    ));
                }
                return TxnPlan::snapshot(ops);
            }
            let ops = generate_routed_txn(&spec, &map, &[g], readonly, rng);
            // Read-only transactions ride snapshots whenever the mix
            // contains snapshot transactions (no extra coin — the flag
            // is deterministic), mirroring the unsharded generator: an
            // empty write set never conflicts at certification.
            if readonly && spec.txn_fraction > 0.0 {
                return TxnPlan::snapshot(ops);
            }
            TxnPlan::new(ops)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hash_map_routes_by_modulo_and_samples_in_group() {
        let map = ShardMap::hash(3, 10).unwrap();
        assert_eq!(map.group_of(ItemId(0)), 0);
        assert_eq!(map.group_of(ItemId(4)), 1);
        assert_eq!(map.group_of(ItemId(8)), 2);
        // Sizes: 10 = 4 + 3 + 3.
        assert_eq!(map.group_len(0), 4);
        assert_eq!(map.group_len(1), 3);
        assert_eq!(map.group_len(2), 3);
        for g in 0..3 {
            for j in 0..map.group_len(g) {
                assert_eq!(map.group_of(map.nth_key(g, j)), g);
            }
        }
    }

    #[test]
    fn hash_with_more_groups_than_keys_is_rejected() {
        assert!(ShardMap::hash(11, 10).is_err());
        assert!(ShardMap::hash(0, 10).is_err());
        assert!(ShardMap::hash(10, 10).is_ok());
    }

    #[test]
    fn hot_prefix_splits_by_modulo() {
        let map = ShardMap::hash(4, 100).unwrap();
        // Hot prefix [0, 10): keys 0..10 → groups 0,1,2,3,0,1,2,3,0,1.
        assert_eq!(map.group_len_below(0, 10), 3);
        assert_eq!(map.group_len_below(1, 10), 3);
        assert_eq!(map.group_len_below(2, 10), 2);
        assert_eq!(map.group_len_below(3, 10), 2);
        assert_eq!(map.group_len_below(0, 0), 0);
    }

    #[test]
    fn single_group_generator_is_bit_for_bit_the_spec() {
        let spec = WorkloadSpec::table4();
        let map = Rc::new(ShardMap::single(spec.n_items));
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut gen = sharded_generator(&spec, map, 0.0);
        for _ in 0..50 {
            assert_eq!(gen(&mut a), spec.generate_plan(&mut b));
        }
    }

    #[test]
    fn routed_txns_stay_in_their_groups() {
        let spec = WorkloadSpec::table4();
        let map = Rc::new(ShardMap::hash(4, spec.n_items).unwrap());
        let mut rng = StdRng::seed_from_u64(11);
        let mut gen = sharded_generator(&spec, map.clone(), 0.25);
        let mut single = 0;
        let mut cross = 0;
        for _ in 0..400 {
            let ops = gen(&mut rng).ops;
            let gs = map.groups_of(&ops);
            match gs.len() {
                1 => single += 1,
                2 => cross += 1,
                n => panic!("a generated transaction touched {n} groups"),
            }
        }
        assert!(single > 200, "single-group majority expected, got {single}");
        assert!(
            (40..=180).contains(&cross),
            "~25% cross-group expected, got {cross}/400"
        );
    }
}

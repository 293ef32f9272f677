//! Buffer pool models.
//!
//! The paper's simulator fixes the buffer hit ratio at 20 % (Table 4), so
//! the default model is probabilistic. A real LRU page cache is also
//! provided for ablations (the hit ratio then emerges from the access
//! pattern instead of being assumed).

#![expect(
    clippy::indexing_slicing,
    reason = "dirty is sized to the page count at construction; pos comes from the modulus of the same count"
)]

use rand::rngs::StdRng;
use rand::Rng;

use crate::types::ItemId;

/// Items per page (the LRU model caches pages, not items).
pub const ITEMS_PER_PAGE: u32 = 10;

/// Which buffer model to use.
#[derive(Debug, Clone)]
pub enum BufferModel {
    /// Each access hits with fixed probability (Table 4: 0.2).
    Probabilistic {
        /// Hit probability in `[0, 1]`.
        hit_ratio: f64,
    },
    /// True LRU over pages with the given capacity (in pages).
    Lru {
        /// Number of pages the pool can hold.
        capacity: usize,
    },
}

/// Buffer pool access statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BufferStats {
    /// Accesses that hit the pool.
    pub hits: u64,
    /// Accesses that missed (require a disk read).
    pub misses: u64,
    /// Dirty pages evicted (require a write-back before the read).
    pub dirty_evictions: u64,
}

impl BufferStats {
    /// Observed hit ratio (0.0 when no accesses yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Outcome of a buffer access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferAccess {
    /// The page was already cached.
    pub hit: bool,
    /// A dirty page must be written back before the read can proceed.
    pub writeback: bool,
}

/// The buffer pool.
#[derive(Debug, Clone)]
pub struct BufferPool {
    model: BufferModel,
    /// LRU state: pages in recency order (front = LRU victim).
    lru: Vec<u32>,
    dirty: Vec<bool>,
    stats: BufferStats,
}

impl BufferPool {
    /// Create a pool with the given model.
    pub fn new(model: BufferModel) -> Self {
        if let BufferModel::Probabilistic { hit_ratio } = &model {
            assert!(
                (0.0..=1.0).contains(hit_ratio),
                "hit ratio out of range: {hit_ratio}"
            );
        }
        BufferPool {
            model,
            lru: Vec::new(),
            dirty: Vec::new(),
            stats: BufferStats::default(),
        }
    }

    /// The paper's default: 20 % hit ratio.
    pub fn paper_default() -> Self {
        BufferPool::new(BufferModel::Probabilistic { hit_ratio: 0.2 })
    }

    fn page_of(item: ItemId) -> u32 {
        item.0 / ITEMS_PER_PAGE
    }

    /// Access `item` for reading. Returns whether it hit and whether a
    /// dirty write-back precedes the fill.
    pub fn access(&mut self, item: ItemId, rng: &mut StdRng) -> BufferAccess {
        match &self.model {
            BufferModel::Probabilistic { hit_ratio } => {
                let hit = rng.random_bool(*hit_ratio);
                if hit {
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                }
                BufferAccess {
                    hit,
                    writeback: false,
                }
            }
            BufferModel::Lru { capacity } => {
                let capacity = *capacity;
                let page = Self::page_of(item);
                if let Some(pos) = self.lru.iter().position(|&p| p == page) {
                    // Move to MRU position.
                    self.lru.remove(pos);
                    let d = self.dirty.remove(pos);
                    self.lru.push(page);
                    self.dirty.push(d);
                    self.stats.hits += 1;
                    return BufferAccess {
                        hit: true,
                        writeback: false,
                    };
                }
                self.stats.misses += 1;
                let mut writeback = false;
                if self.lru.len() >= capacity && capacity > 0 {
                    // Evict the LRU page.
                    self.lru.remove(0);
                    if self.dirty.remove(0) {
                        self.stats.dirty_evictions += 1;
                        writeback = true;
                    }
                }
                if capacity > 0 {
                    self.lru.push(page);
                    self.dirty.push(false);
                }
                BufferAccess {
                    hit: false,
                    writeback,
                }
            }
        }
    }

    /// Mark `item`'s page dirty (it was written in the pool).
    pub fn mark_dirty(&mut self, item: ItemId) {
        if let BufferModel::Lru { .. } = self.model {
            let page = Self::page_of(item);
            if let Some(pos) = self.lru.iter().position(|&p| p == page) {
                self.dirty[pos] = true;
            }
        }
    }

    /// Clean every dirty page (a background flush completed).
    pub fn flush_all(&mut self) -> usize {
        let n = self.dirty.iter().filter(|d| **d).count();
        for d in &mut self.dirty {
            *d = false;
        }
        n
    }

    /// Access statistics.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Drop all cached pages (crash: the pool is volatile).
    pub fn clear(&mut self) {
        self.lru.clear();
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn probabilistic_ratio_converges() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pool = BufferPool::paper_default();
        for i in 0..10_000u32 {
            pool.access(ItemId(i % 100), &mut rng);
        }
        let r = pool.stats().hit_ratio();
        assert!((0.18..=0.22).contains(&r), "hit ratio {r}");
    }

    #[test]
    fn lru_caches_hot_pages() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pool = BufferPool::new(BufferModel::Lru { capacity: 2 });
        // First touch: miss; second touch same page: hit.
        assert!(!pool.access(ItemId(0), &mut rng).hit);
        assert!(pool.access(ItemId(1), &mut rng).hit, "same page as item 0");
        assert!(!pool.access(ItemId(10), &mut rng).hit);
        // Pages 0 and 1 cached; page 2 evicts page 0 (LRU).
        assert!(!pool.access(ItemId(20), &mut rng).hit);
        assert!(!pool.access(ItemId(0), &mut rng).hit, "page 0 was evicted");
    }

    #[test]
    fn lru_dirty_eviction_requires_writeback() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pool = BufferPool::new(BufferModel::Lru { capacity: 1 });
        pool.access(ItemId(0), &mut rng);
        pool.mark_dirty(ItemId(0));
        let a = pool.access(ItemId(10), &mut rng);
        assert!(!a.hit);
        assert!(a.writeback, "evicting a dirty page needs a write-back");
        assert_eq!(pool.stats().dirty_evictions, 1);
    }

    #[test]
    fn flush_all_cleans() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pool = BufferPool::new(BufferModel::Lru { capacity: 4 });
        pool.access(ItemId(0), &mut rng);
        pool.mark_dirty(ItemId(0));
        assert_eq!(pool.flush_all(), 1);
        assert_eq!(pool.flush_all(), 0);
    }

    #[test]
    #[should_panic(expected = "hit ratio out of range")]
    fn invalid_ratio_rejected() {
        let _ = BufferPool::new(BufferModel::Probabilistic { hit_ratio: 1.5 });
    }
}

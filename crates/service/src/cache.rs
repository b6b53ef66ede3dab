//! The content-addressed schedule cache.
//!
//! Real programs repeat themselves: unrolled loops, macro expansions and
//! generated code produce the same basic block over and over, and a
//! long-running scheduling daemon sees the same hot blocks across many
//! requests. This cache keys each block by *content* — a canonical
//! rendering of its instructions plus the machine / algorithm
//! configuration — and replays the previously computed schedule on a
//! hit, skipping DAG construction, heuristic calculation and list
//! scheduling entirely.
//!
//! # Keying
//!
//! The key format lives in the driver ([`dagsched_driver::key`]): the
//! batch loop hashes the configuration once per batch and rung into a
//! [`CacheScope`](dagsched_driver::CacheScope), keys each block once,
//! and hands the key to both [`BlockCache::lookup`] and, on a miss,
//! [`BlockCache::store`]. [`block_key`] and [`Key`] are re-exported
//! here.
//!
//! # Why values store indices, not instructions
//!
//! A cached entry must replay *bit-identically* — including the interned
//! memory-expression identities the pipeline simulator keys on, which
//! differ from program to program. Entries therefore store the emitted
//! **order** exactly as the scheduler produced it
//! ([`BlockOutcome::order`]: 4-byte indices into the block, with
//! [`NOP_SLOT`] for the delay-slot `nop`), and the batch loop
//! reconstructs the stream from the *requesting* block's own
//! instructions; a hit is indistinguishable from a fresh compile by
//! construction. The persisted record holds the same slots.
//!
//! # Eviction
//!
//! A doubly-linked LRU list threaded through a slab, bounded by both an
//! entry count and an approximate byte budget. Oversized single entries
//! are never admitted. Hits, misses, insertions and evictions are
//! counted for the metrics endpoint.

use std::collections::HashMap;
use std::sync::Mutex;

use dagsched_core::NodeId;
use dagsched_driver::{BlockCache, BlockOutcome, BlockReport};
use dagsched_sched::{CarryOut, SlotFill, NOP_SLOT};

pub use dagsched_driver::{block_key, Key};

/// Sentinel slab index for "no node".
const NONE: usize = usize::MAX;

/// Fixed per-entry bookkeeping charged by [`entry_cost`]: LRU links,
/// report fields, the order's header and hash-table slack.
const ENTRY_OVERHEAD: usize = 96;

/// The minimum [`CachedBlock::cost_bytes`] any entry can be charged:
/// key storage (map + slab copy), the map's slab-index value, and
/// [`ENTRY_OVERHEAD`]. Exposed for the byte-accounting invariant in
/// the cache property test.
pub const MIN_ENTRY_COST: usize =
    2 * std::mem::size_of::<Key>() + std::mem::size_of::<usize>() + ENTRY_OVERHEAD;

/// Approximate footprint of an entry with `order_len` emitted slots
/// (used both when storing a fresh compile and when rehydrating a
/// persisted entry, so the byte budget means the same thing in both
/// directions): 4 bytes per slot, plus the 128-bit key the entry pins
/// (stored twice — once in the lookup map, once in the slab entry), the
/// map's slab-index value and the fixed bookkeeping. The key and index
/// are counted so that a cache full of tiny blocks stays within its
/// byte budget.
fn entry_cost(order_len: usize) -> usize {
    order_len * std::mem::size_of::<u32>() + MIN_ENTRY_COST
}

/// Configuration for [`ScheduleCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum number of cached blocks.
    pub max_entries: usize,
    /// Approximate byte budget over all cached blocks.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_entries: 4096,
            max_bytes: 64 << 20,
        }
    }
}

/// The cached value: everything needed to reproduce a [`BlockOutcome`]
/// for the requesting block.
#[derive(Debug, Clone)]
struct CachedBlock {
    /// The emitted order, as the scheduler produced it.
    order: Box<[u32]>,
    len: usize,
    original_makespan: u64,
    scheduled_makespan: u64,
    slot: Option<SlotFill>,
    cost_bytes: usize,
}

impl CachedBlock {
    /// The entry for a freshly compiled outcome: its order, copied once.
    fn of(outcome: &BlockOutcome) -> CachedBlock {
        CachedBlock {
            order: outcome.order.as_slice().into(),
            len: outcome.report.len,
            original_makespan: outcome.report.original_makespan,
            scheduled_makespan: outcome.report.scheduled_makespan,
            slot: outcome.report.slot.clone(),
            cost_bytes: entry_cost(outcome.order.len()),
        }
    }

    /// The outcome for block `block` of the requesting program, `len`
    /// instructions long; `None` when the entry was made for a block of
    /// another length (a key collision).
    fn replay(&self, block: usize, len: usize) -> Option<BlockOutcome> {
        if len != self.len {
            return None;
        }
        Some(BlockOutcome {
            order: self.order.to_vec(),
            report: BlockReport {
                block,
                len: self.len,
                original_makespan: self.original_makespan,
                scheduled_makespan: self.scheduled_makespan,
                slot: self.slot.clone(),
            },
            // The carry is only consumed under latency inheritance,
            // which bypasses the cache entirely.
            carry: CarryOut::default(),
        })
    }
}

impl CachedBlock {
    /// Serialize this entry (with its `key`) for the durability layer:
    /// a fixed header, then the order's slots as they are, little-endian
    /// ([`NOP_SLOT`] for the delay-slot `nop`).
    fn encode(&self, key: Key) -> Vec<u8> {
        let mut out = Vec::with_capacity(49 + 4 * self.order.len());
        let (a, b) = key.to_parts();
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        out.extend_from_slice(&self.original_makespan.to_le_bytes());
        out.extend_from_slice(&self.scheduled_makespan.to_le_bytes());
        let (slot_tag, slot_val): (u8, u32) = match &self.slot {
            None => (0, 0),
            Some(SlotFill::Moved(nid)) => (1, nid.index() as u32),
            Some(SlotFill::Nop) => (2, 0),
            Some(SlotFill::NoSlot) => (3, 0),
        };
        out.push(slot_tag);
        out.extend_from_slice(&slot_val.to_le_bytes());
        out.extend_from_slice(&(self.order.len() as u32).to_le_bytes());
        for slot in self.order.iter() {
            out.extend_from_slice(&slot.to_le_bytes());
        }
        out
    }

    /// Decode a persisted entry. `None` on any structural mismatch,
    /// a slot outside the block included — the record is simply skipped
    /// during recovery (per-record checksums make this unreachable short
    /// of a format bug, but a corrupt record must never panic recovery
    /// or replay).
    fn decode(bytes: &[u8]) -> Option<(Key, CachedBlock)> {
        let u64_at = |o: usize| -> Option<u64> {
            bytes.get(o..o + 8)?.try_into().ok().map(u64::from_le_bytes)
        };
        let u32_at = |o: usize| -> Option<u32> {
            bytes.get(o..o + 4)?.try_into().ok().map(u32::from_le_bytes)
        };
        let key = Key::from_parts(u64_at(0)?, u64_at(8)?);
        let len = usize::try_from(u64_at(16)?).ok()?;
        let original_makespan = u64_at(24)?;
        let scheduled_makespan = u64_at(32)?;
        let slot_tag = *bytes.get(40)?;
        let slot_val = u32_at(41)?;
        let slot = match slot_tag {
            0 => None,
            1 => Some(SlotFill::Moved(NodeId::new(slot_val as usize))),
            2 => Some(SlotFill::Nop),
            3 => Some(SlotFill::NoSlot),
            _ => return None,
        };
        let count = usize::try_from(u32_at(45)?).ok()?;
        let body = bytes.get(49..)?;
        if body.len() != 4 * count {
            return None;
        }
        let order = body
            .chunks_exact(4)
            .map(|raw| {
                let slot = u32::from_le_bytes(raw.try_into().ok()?);
                (slot == NOP_SLOT || (slot as usize) < len).then_some(slot)
            })
            .collect::<Option<Box<[u32]>>>()?;
        Some((
            key,
            CachedBlock {
                cost_bytes: entry_cost(order.len()),
                order,
                len,
                original_makespan,
                scheduled_makespan,
                slot,
            },
        ))
    }
}

struct Entry {
    key: Key,
    value: CachedBlock,
    prev: usize,
    next: usize,
}

/// Counters exposed by [`ScheduleCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
    /// Current entry count.
    pub entries: usize,
    /// Current approximate byte footprint.
    pub bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]`. Reads as `0.0` (not
    /// NaN) before any lookup has happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Lru {
    map: HashMap<Key, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Lru {
    fn new() -> Lru {
        Lru {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            bytes: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Unlink slot `ix` from the recency list.
    fn unlink(&mut self, ix: usize) {
        let (prev, next) = (self.slab[ix].prev, self.slab[ix].next);
        if prev != NONE {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Link slot `ix` at the head (most recently used).
    fn link_front(&mut self, ix: usize) {
        self.slab[ix].prev = NONE;
        self.slab[ix].next = self.head;
        if self.head != NONE {
            self.slab[self.head].prev = ix;
        }
        self.head = ix;
        if self.tail == NONE {
            self.tail = ix;
        }
    }

    fn touch(&mut self, ix: usize) {
        if self.head != ix {
            self.unlink(ix);
            self.link_front(ix);
        }
    }

    fn evict_tail(&mut self) {
        let ix = self.tail;
        if ix == NONE {
            return;
        }
        self.unlink(ix);
        self.map.remove(&self.slab[ix].key);
        self.bytes -= self.slab[ix].value.cost_bytes;
        // Drop the payload; keep the slot for reuse.
        self.slab[ix].value.order = Box::default();
        self.free.push(ix);
        self.evictions += 1;
    }

    /// Insert-if-absent; returns whether the entry was admitted. The
    /// if-absent semantics are what make recovery replay idempotent:
    /// double-replay, or a snapshot overlapping the WAL tail, converges
    /// to the same cache.
    fn insert(&mut self, key: Key, value: CachedBlock, config: &CacheConfig) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        if value.cost_bytes > config.max_bytes || config.max_entries == 0 {
            // A single over-budget entry would evict the whole cache and
            // still not fit; never admit it.
            return false;
        }
        self.bytes += value.cost_bytes;
        let entry = Entry {
            key,
            value,
            prev: NONE,
            next: NONE,
        };
        let ix = match self.free.pop() {
            Some(ix) => {
                self.slab[ix] = entry;
                ix
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.link_front(ix);
        self.map.insert(key, ix);
        self.insertions += 1;
        while self.map.len() > config.max_entries || self.bytes > config.max_bytes {
            self.evict_tail();
        }
        true
    }
}

/// Write-through sink invoked (outside the cache lock) with the encoded
/// bytes of every freshly admitted entry.
pub type PersistWriter = Box<dyn Fn(&[u8]) + Send + Sync>;

/// A bounded, thread-safe, content-addressed schedule cache implementing
/// the driver's [`BlockCache`] interposition point.
pub struct ScheduleCache {
    config: CacheConfig,
    inner: Mutex<Lru>,
    /// Optional durability hook: called with the encoded bytes of every
    /// admitted entry, *after* the cache lock is released (so the sink
    /// may freely re-enter the cache, e.g. to export for a snapshot).
    writer: Mutex<Option<PersistWriter>>,
}

impl ScheduleCache {
    /// An empty cache bounded by `config`.
    pub fn new(config: CacheConfig) -> ScheduleCache {
        ScheduleCache {
            config,
            inner: Mutex::new(Lru::new()),
            writer: Mutex::new(None),
        }
    }

    /// Lock the LRU, recovering from poisoning. This lock is shared by
    /// every worker; under `catch_unwind` supervision a worker that
    /// panics while holding it (an injected fault, or a bug in the
    /// replay path) would otherwise poison it and turn *every*
    /// subsequent request into an `internal` error — one contained
    /// crash must cost one reply, not the whole cache. The LRU's
    /// intrusive lists are written with index assignments that either
    /// fully happen or don't (no temporarily-dangling states across a
    /// panic point), so the recovered data is structurally sound.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_writer(&self) -> std::sync::MutexGuard<'_, Option<PersistWriter>> {
        self.writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Install (or replace) the write-through persistence sink. Import
    /// recovered entries *before* installing the writer, or recovery
    /// would re-log everything it just read.
    pub fn set_writer(&self, writer: PersistWriter) {
        *self.lock_writer() = Some(writer);
    }

    /// Serialize every cached entry, least recently used first (so
    /// re-importing in order reproduces the recency order).
    pub fn export_entries(&self) -> Vec<Vec<u8>> {
        let inner = self.lock_inner();
        let mut out = Vec::with_capacity(inner.map.len());
        let mut ix = inner.tail;
        while ix != NONE {
            let entry = &inner.slab[ix];
            out.push(entry.value.encode(entry.key));
            ix = entry.prev;
        }
        out
    }

    /// Rehydrate one persisted entry (insert-if-absent, budgets
    /// enforced). Returns `true` when the entry was admitted; `false`
    /// for duplicates, over-budget entries, or undecodable bytes. Never
    /// triggers the write-through sink.
    pub fn import_entry(&self, bytes: &[u8]) -> bool {
        match CachedBlock::decode(bytes) {
            Some((key, value)) => self.lock_inner().insert(key, value, &self.config),
            None => false,
        }
    }

    /// Snapshot the hit/miss/size counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock_inner();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.map.len(),
            bytes: inner.bytes,
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.lock_inner().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cached keys from most to least recently used (test/diagnostic
    /// helper).
    pub fn keys_by_recency(&self) -> Vec<Key> {
        let inner = self.lock_inner();
        let mut out = Vec::with_capacity(inner.map.len());
        let mut ix = inner.head;
        while ix != NONE {
            out.push(inner.slab[ix].key);
            ix = inner.slab[ix].next;
        }
        out
    }
}

impl Default for ScheduleCache {
    fn default() -> ScheduleCache {
        ScheduleCache::new(CacheConfig::default())
    }
}

impl BlockCache for ScheduleCache {
    fn lookup(&self, block: usize, len: usize, key: Key) -> Option<BlockOutcome> {
        let mut inner = self.lock_inner();
        match inner.map.get(&key).copied() {
            Some(ix) => {
                inner.touch(ix);
                let replayed = inner.slab[ix].value.replay(block, len);
                if replayed.is_some() {
                    inner.hits += 1;
                } else {
                    inner.misses += 1;
                }
                replayed
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn store(&self, key: Key, outcome: &BlockOutcome) {
        let value = CachedBlock::of(outcome);
        // Build the record only for an attached writer, before insert
        // moves the value, and hand it over only when the entry was
        // admitted — *after* the cache lock is dropped, so the sink can
        // safely re-enter the cache.
        let record = self.lock_writer().is_some().then(|| value.encode(key));
        let admitted = self.lock_inner().insert(key, value, &self.config);
        if admitted {
            if let (Some(bytes), Some(writer)) = (record, self.lock_writer().as_ref()) {
                writer(&bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::{Duration, Instant};

    use dagsched_core::PhaseStats;
    use dagsched_core::Scratch;
    use dagsched_driver::{
        compile_block, schedule_program_batch_scratch, DegradePolicy, DriverConfig, Limits,
        NoCache, ScheduledProgram,
    };
    use dagsched_isa::{Instruction, MachineModel};
    use dagsched_workloads::{generate, generate_canon, parse_asm, BenchmarkProfile, PAPER_SEED};

    fn block(text: &str) -> Vec<Instruction> {
        parse_asm(text).unwrap().insns
    }

    fn compile(insns: &[Instruction], model: &MachineModel, config: &DriverConfig) -> BlockOutcome {
        let mut scratch = Scratch::new();
        compile_block(0, insns, model, config, None, &mut scratch).expect("well-formed block")
    }

    /// Regression: a worker that panics while holding the cache lock
    /// (injected fault mid-insert, or a bug in the replay path)
    /// poisons a plain `Mutex`. Every lock site recovers the guard, so
    /// one contained panic costs one reply — not `internal` errors for
    /// every request thereafter.
    #[test]
    fn the_cache_survives_a_poisoned_lock() {
        use std::sync::Arc;
        let cache = Arc::new(ScheduleCache::default());
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("injected fault: panic while holding the cache lock");
        })
        .join();
        assert!(cache.inner.is_poisoned(), "setup must actually poison");

        // Every public surface still works after the poisoning.
        let insns = block("ld [%o0], %l0\n add %l0, %o1, %o2");
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let outcome = compile(&insns, &model, &config);
        cache.store(block_key(&insns, &model, &config), &outcome);
        let hit = cache
            .lookup(0, insns.len(), block_key(&insns, &model, &config))
            .unwrap();
        assert_eq!(hit.order, outcome.order);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().hits, 1);
        assert!(!cache.export_entries().is_empty());
    }

    #[test]
    fn store_then_lookup_replays_the_same_outcome() {
        let insns = block("ld [%o0], %l0\n add %l0, %o1, %o2\n st %o2, [%o3]");
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let cache = ScheduleCache::default();
        let outcome = compile(&insns, &model, &config);
        cache.store(block_key(&insns, &model, &config), &outcome);
        let hit = cache
            .lookup(3, insns.len(), block_key(&insns, &model, &config))
            .unwrap();
        assert_eq!(hit.order, outcome.order);
        assert_eq!(hit.report.block, 3, "block index is the requester's");
        assert_eq!(
            hit.report.scheduled_makespan,
            outcome.report.scheduled_makespan
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let cache = ScheduleCache::new(CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX >> 1,
        });
        let b1 = block("add %o0, %o1, %o2");
        let b2 = block("sub %o0, %o1, %o2");
        let b3 = block("xor %o0, %o1, %o2");
        for b in [&b1, &b2] {
            let o = compile(b, &model, &config);
            cache.store(block_key(b, &model, &config), &o);
        }
        // Touch b1 so b2 becomes the LRU victim.
        assert!(cache
            .lookup(0, b1.len(), block_key(&b1, &model, &config))
            .is_some());
        let o3 = compile(&b3, &model, &config);
        cache.store(block_key(&b3, &model, &config), &o3);
        assert_eq!(cache.len(), 2);
        assert!(
            cache
                .lookup(0, b2.len(), block_key(&b2, &model, &config))
                .is_none(),
            "b2 evicted"
        );
        assert!(
            cache
                .lookup(0, b1.len(), block_key(&b1, &model, &config))
                .is_some(),
            "b1 kept"
        );
        assert!(
            cache
                .lookup(0, b3.len(), block_key(&b3, &model, &config))
                .is_some(),
            "b3 kept"
        );
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(
            cache.keys_by_recency().len(),
            2,
            "recency list stays consistent"
        );
    }

    #[test]
    fn byte_budget_is_enforced_and_oversized_entries_are_skipped() {
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let one = block("add %o0, %o1, %o2");
        let o = compile(&one, &model, &config);
        let entry_cost = CachedBlock::of(&o).cost_bytes;

        // Budget for exactly two single-instruction entries.
        let cache = ScheduleCache::new(CacheConfig {
            max_entries: usize::MAX,
            max_bytes: 2 * entry_cost,
        });
        let blocks = [
            block("add %o0, %o1, %o2"),
            block("sub %o0, %o1, %o2"),
            block("xor %o0, %o1, %o2"),
        ];
        for b in &blocks {
            let o = compile(b, &model, &config);
            cache.store(block_key(b, &model, &config), &o);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "{stats:?}");
        assert!(stats.bytes <= 2 * entry_cost, "{stats:?}");
        assert_eq!(stats.evictions, 1);

        // An entry larger than the whole budget is never admitted (and
        // evicts nothing).
        let tiny = ScheduleCache::new(CacheConfig {
            max_entries: usize::MAX,
            max_bytes: entry_cost.saturating_sub(1),
        });
        tiny.store(block_key(&one, &model, &config), &o);
        assert!(tiny.is_empty());
        assert_eq!(tiny.stats().evictions, 0);
    }

    #[test]
    fn duplicate_instructions_map_to_distinct_indices() {
        // Two identical adds: the stored order is the scheduler's own
        // permutation of the block, so both keep their own index.
        let insns = block("add %o0, %o1, %o2\n add %o0, %o1, %o2\n smul %o2, %o3, %o4");
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let cache = ScheduleCache::default();
        let outcome = compile(&insns, &model, &config);
        cache.store(block_key(&insns, &model, &config), &outcome);
        let hit = cache
            .lookup(0, insns.len(), block_key(&insns, &model, &config))
            .unwrap();
        let mut slots = hit.order.clone();
        slots.sort_unstable();
        assert_eq!(slots, [0, 1, 2]);
        assert_eq!(hit.order, outcome.order);
    }

    /// A hit replays only onto a block of the entry's length, and a
    /// persisted record with a slot outside its block never decodes:
    /// either would index past the requesting block.
    #[test]
    fn slots_outside_the_block_never_replay() {
        let insns = block("ld [%o0], %l0\n add %l0, %o1, %o2\n st %o2, [%o3]");
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let key = block_key(&insns, &model, &config);
        let cache = ScheduleCache::default();
        cache.store(key, &compile(&insns, &model, &config));
        assert!(cache.lookup(0, insns.len() - 1, key).is_none());
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.lookup(0, insns.len(), key).is_some());

        let mut record = cache.export_entries().pop().expect("one entry");
        let last = record.len() - 4;
        record[last..].copy_from_slice(&(insns.len() as u32).to_le_bytes());
        assert!(CachedBlock::decode(&record).is_none());
        record[last..].copy_from_slice(&NOP_SLOT.to_le_bytes());
        assert!(CachedBlock::decode(&record).is_some());
    }

    fn grep() -> dagsched_isa::Program {
        generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED).program
    }

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The blocks whose records are pinned below: the first two blocks
    /// of three or more instructions of a Table 3 and a canon profile,
    /// under the default configuration, then two blocks under
    /// `fill_delay_slots`, one whose delay slot takes a moved
    /// instruction and one whose slot takes a `nop`.
    fn record_blocks() -> Vec<(Vec<Instruction>, DriverConfig)> {
        let fill = DriverConfig {
            fill_delay_slots: true,
            ..DriverConfig::default()
        };
        let mut blocks = Vec::new();
        for program in [grep(), generate_canon("canon-gnp-16", 7).unwrap().program] {
            let firsts = program
                .basic_blocks()
                .iter()
                .map(|b| program.block_insns(b).to_vec())
                .filter(|insns| insns.len() >= 3)
                .take(2)
                .map(|insns| (insns, DriverConfig::default()))
                .collect::<Vec<_>>();
            blocks.extend(firsts);
        }
        blocks.push((
            block("cmp %o0, %o1\nadd %o2, %o3, %o5\nbne L1"),
            fill.clone(),
        ));
        blocks.push((block("cmp %o0, %o1\nbne L1"), fill));
        blocks
    }

    /// Persisted records stay byte-identical: each block's record, built
    /// from a fresh compile and handed to the writer by a store, equals
    /// the bytes recorded when entries were captured by matching each
    /// emitted instruction back to the block. Each pinned record decodes
    /// and replays the emitted stream recorded with it.
    #[test]
    fn records_are_pinned() {
        let pinned = [
            (
                concat!(
                    "a0bf5e0a37f75c00ff73d6610272fd3807000000000000000800000000000000",
                    "0700000000000000000000000007000000000000000400000001000000030000",
                    "00020000000500000006000000",
                ),
                "ld [%i6], %i4\nadd %l0, %o2, %l5\nsub %i0, %i4, %i3\nld [%i3+8], %l2\nand %i3, %l1, %l6\nor %l2, %i5, %l3\nsave",
            ),
            (
                concat!(
                    "77b9b40544bd4c52a09d80bdd5bfed5e03000000000000000300000000000000",
                    "0300000000000000000000000003000000000000000100000002000000",
                ),
                "add %g3, %i4, %o0\nsubcc %o0, %o0\nbicc",
            ),
            (
                concat!(
                    "a82c97650ea4ec494b33da70b0f2f38814000000000000001500000000000000",
                    "1400000000000000000000000014000000020000000400000000000000050000",
                    "00010000000300000006000000070000000b00000008000000090000000c0000",
                    "000a0000000e000000100000000d00000011000000120000000f000000130000",
                    "00",
                ),
                "mov 2, %l2\nmov 4, %l4\nmov 0, %l0\nadd %l2, %l4, %l5\nld [%l0], %l1\nadd %l0, %l2, %l3\nld [%l5+8], %l6\nadd %l3, %l4, %l7\nsub %l1, %l2, %o2\nst %l7, [%i6+16]\nadd %l6, %l7, %o0\nsub %l6, %o0, %o3\nadd %l7, %o0, %o1\nadd %l7, %o0, %o5\nld [%o3+24], %i1\nadd %l5, %o1, %o4\nst %i1, [%i6+32]\nsubcc %i1, %g0\nand %l4, %o4, %i0\nbicc",
            ),
            (
                concat!(
                    "9c573da60d5a2875195b4b1261a2da960b000000000000000b00000000000000",
                    "0b0000000000000000000000000b000000000000000300000001000000020000",
                    "000400000005000000060000000700000008000000090000000a000000",
                ),
                "mov 0, %l0\nmov 3, %l3\nmov 1, %l1\nld [%l0], %l2\nsub %l0, %l3, %l4\nadd %l3, 8, %l5\nsub %l1, %l2, %l6\nand %l4, %l5, %l7\nst %l7, [%i6+8]\nsubcc %l7, %g0\nbicc",
            ),
            (
                concat!(
                    "77b38ff18187160c12f43011b565d79203000000000000000300000000000000",
                    "0300000000000000010100000003000000000000000200000001000000",
                ),
                "subcc %o0, %o1\nbicc\nadd %o2, %o3, %o5",
            ),
            (
                concat!(
                    "6de9306085ec7908848c48a00360364002000000000000000200000000000000",
                    "02000000000000000200000000030000000000000001000000ffffffff",
                ),
                "subcc %o0, %o1\nbicc\nnop",
            ),
        ];
        let model = MachineModel::sparc2();
        let cache = ScheduleCache::default();
        let written = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&written);
        cache.set_writer(Box::new(move |bytes: &[u8]| {
            sink.lock().unwrap().push(bytes.to_vec())
        }));
        let blocks = record_blocks();
        assert_eq!(blocks.len(), pinned.len());
        for ((insns, config), (hex, emitted)) in blocks.iter().zip(pinned) {
            let bytes = from_hex(hex);
            let key = block_key(insns, &model, config);
            let outcome = compile(insns, &model, config);
            assert_eq!(CachedBlock::of(&outcome).encode(key), bytes, "{emitted}");
            cache.store(key, &outcome);
            assert_eq!(written.lock().unwrap().last(), Some(&bytes), "{emitted}");

            let (decoded_key, value) = CachedBlock::decode(&bytes).expect("a pinned record");
            assert_eq!(decoded_key, key);
            let replayed = value.replay(0, insns.len()).expect("the block's length");
            let text: Vec<String> = replayed.emitted(insns).map(|i| i.to_string()).collect();
            assert_eq!(text.join("\n"), emitted);
        }
        assert_eq!(written.lock().unwrap().len(), pinned.len());
    }

    fn batch(
        program: &dagsched_isa::Program,
        limits: &Limits,
        cache: &dyn BlockCache,
    ) -> (ScheduledProgram, PhaseStats) {
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        schedule_program_batch_scratch(program, &model, &config, limits, cache, &mut Scratch::new())
            .expect("grep compiles")
    }

    /// A batch stores each block under exactly [`block_key`], the key
    /// callers outside the batch loop compute (the benchmark counts a
    /// request set's distinct blocks with it).
    #[test]
    fn a_batch_stores_every_block_under_its_block_key() {
        let program = grep();
        let cache = ScheduleCache::default();
        batch(&program, &Limits::none(), &cache);
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let expected: HashSet<Key> = program
            .basic_blocks()
            .iter()
            .map(|b| program.block_insns(b))
            .filter(|insns| !insns.is_empty())
            .map(|insns| block_key(insns, &model, &config))
            .collect();
        let stored = cache.keys_by_recency();
        assert_eq!(stored.len(), expected.len());
        assert_eq!(stored.into_iter().collect::<HashSet<_>>(), expected);
    }

    /// Limits that pin every block of a batch to one degradation rung:
    /// the deadline is an hour away, and `soft` / `hard` sit either side
    /// of it.
    fn pinned(soft_secs: u64, hard_secs: u64) -> Limits {
        Limits {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            degrade: Some(DegradePolicy {
                soft: Duration::from_secs(soft_secs),
                hard: Duration::from_secs(hard_secs),
            }),
            ..Limits::none()
        }
    }

    /// Each degradation rung keys its blocks apart from full fidelity
    /// and from the other rung, in the real cache: a pinned run shares
    /// no entry with the runs before it, replays nothing but its own
    /// rung's schedules, and leaves the full-fidelity entries intact.
    #[test]
    fn degradation_rungs_never_share_entries_in_the_real_cache() {
        let program = grep();
        let cache = ScheduleCache::default();
        let (full, cold) = batch(&program, &Limits::none(), &cache);
        assert_eq!(cold.cache_misses, 365);
        for (rung, limits) in [("cheap", pinned(7200, 0)), ("floor", pinned(7200, 7200))] {
            let (out, stats) = batch(&program, &limits, &cache);
            assert_eq!(stats.cache_misses, cold.cache_misses, "{rung}");
            let blocks = stats.cache_hits + stats.cache_misses;
            assert_eq!(stats.degraded_blocks, blocks, "{rung}");
            let (reference, _) = batch(&program, &limits, &NoCache);
            assert_eq!(out.insns, reference.insns, "{rung}");
        }
        let (again, warm) = batch(&program, &Limits::none(), &cache);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(again.insns, full.insns);
    }
}

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
//! A key has a configuration half and a block half, hashed with two
//! independent FNV-1a streams into 128 bits, so accidental collisions
//! are out of reach for any realistic cache population.
//!
//! The configuration half is the scheduler's full `Debug` rendering
//! (construction algorithm, memory policy, heuristic list, direction,
//! postpass flag), the driver flags and [`MachineModel::fingerprint`].
//! It is the same for every block of a batch, so the driver hashes it
//! once per batch and degradation rung into a [`CacheScope`], and both
//! streams start from the scope's hashes. A lookup or store hashes only
//! the block.
//!
//! The block half is, per instruction, its rendered text (which
//! deliberately excludes the program-absolute `orig_index` and the
//! program-interned [`MemExprId`](dagsched_isa::MemExprId)), a delimiter
//! byte, and the *first-occurrence ordinal* of the instruction's
//! memory-expression id within the block. The text is written into both
//! streams as `Display` produces it, without building a `String`. The
//! ordinal encoding captures exactly the information the symbolic
//! memory-disambiguation policy consumes — which memory references
//! within the block share an address expression — while remaining
//! invariant under the program-wide renumbering that makes raw
//! `MemExprId`s unusable as keys.
//!
//! Keys hash instruction text, not opcode and register numbers, because
//! the text is stable across builds and persisted entries outlive a
//! build. An enum discriminant is not: reordering the opcode list would
//! make a recovered entry keyed on discriminants replay one block's
//! order onto a different block.
//!
//! [`block_key`] computes the same key in one call, scope included.

//! # Why values store indices, not instructions
//!
//! A cached entry must replay *bit-identically* — including the interned
//! memory-expression identities the pipeline simulator keys on, which
//! differ from program to program. Entries therefore store the emitted
//! **order** (indices into the block, plus literal `nop`s inserted by
//! delay-slot filling) and reconstruct the stream from the *requesting*
//! block's own instructions; a hit is indistinguishable from a fresh
//! compile by construction.
//!
//! # Eviction
//!
//! A doubly-linked LRU list threaded through a slab, bounded by both an
//! entry count and an approximate byte budget. Oversized single entries
//! are never admitted. Hits, misses, insertions and evictions are
//! counted for the metrics endpoint.

use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::Mutex;

use dagsched_core::NodeId;
use dagsched_driver::{BlockCache, BlockOutcome, BlockReport, CacheScope, DriverConfig};
use dagsched_isa::{Fnv64, InlineList, Instruction, MachineModel};
use dagsched_sched::{CarryOut, SlotFill};

/// Ends each instruction's text in the key: no UTF-8 text contains this
/// byte, so the text and the ordinal after it cannot run together.
const TEXT_END: u8 = 0xFF;

/// Sentinel slab index for "no node".
const NONE: usize = usize::MAX;

/// Fixed per-entry bookkeeping charged by [`CachedBlock::capture`]:
/// LRU links, report fields, vector headers and hash-table slack.
const ENTRY_OVERHEAD: usize = 96;

/// The minimum [`CachedBlock::cost_bytes`] any entry can be charged:
/// key storage (map + slab copy), the map's slab-index value, and
/// [`ENTRY_OVERHEAD`]. Exposed for the byte-accounting invariant in
/// the cache property test.
pub const MIN_ENTRY_COST: usize =
    2 * std::mem::size_of::<Key>() + std::mem::size_of::<usize>() + ENTRY_OVERHEAD;

/// Approximate footprint of an entry with `order_len` emitted slots
/// (used both when capturing a fresh compile and when rehydrating a
/// persisted entry, so the byte budget means the same thing in both
/// directions).
fn entry_cost(order_len: usize) -> usize {
    order_len * std::mem::size_of::<Instruction>() + MIN_ENTRY_COST
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

/// A 128-bit content key: two independent FNV-1a streams over the same
/// canonical bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key {
    a: u64,
    b: u64,
}

impl Key {
    /// The two 64-bit halves (for persistence).
    pub fn to_parts(self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// Rebuild from the two halves.
    pub fn from_parts(a: u64, b: u64) -> Key {
        Key { a, b }
    }
}

/// Compute the cache key for (`insns`, `model`, `config`): the key
/// [`ScheduleCache`] stores the block under in a batch with that model
/// and configuration.
pub fn block_key(insns: &[Instruction], model: &MachineModel, config: &DriverConfig) -> Key {
    scoped_key(insns, &CacheScope::new(model, config))
}

/// The key of `insns` under `scope`: the scope's two streams, continued
/// over the block's canonical bytes.
fn scoped_key(insns: &[Instruction], scope: &CacheScope<'_>) -> Key {
    let mut sink = KeySink(scope.streams());
    let mut ordinals = Ordinals::default();
    for insn in insns {
        let ord = match &insn.mem {
            Some(m) => ordinals.of(m.expr.index()),
            None => u32::MAX,
        };
        let _ = write!(sink, "{insn}");
        for stream in &mut sink.0 {
            stream.write(&[TEXT_END]);
            stream.write_u32(ord);
        }
    }
    let [a, b] = sink.0;
    Key {
        a: a.finish(),
        b: b.finish(),
    }
}

/// Distinct memory expressions a block keys without a map: blocks
/// rarely hold more, and a linear scan over this few costs less than
/// hashing.
const INLINE_EXPRS: usize = 16;

/// First-occurrence ordinals of a block's memory-expression ids, in the
/// order the ids first appear: a linear scan over the first
/// [`INLINE_EXPRS`] distinct ids, kept inline, and a map for the rest,
/// so a small block allocates nothing and a large one stays linear.
#[derive(Default)]
struct Ordinals {
    first: InlineList<u32, INLINE_EXPRS>,
    rest: HashMap<u32, u32>,
}

impl Ordinals {
    /// The ordinal of `id`: how many distinct ids came before its first
    /// occurrence.
    fn of(&mut self, id: u32) -> u32 {
        if let Some(i) = self.first.iter().position(|&seen| seen == id) {
            return i as u32;
        }
        if self.first.len() < INLINE_EXPRS {
            self.first.push(id);
            return (self.first.len() - 1) as u32;
        }
        let next = (INLINE_EXPRS + self.rest.len()) as u32;
        *self.rest.entry(id).or_insert(next)
    }
}

/// Both key streams behind one [`fmt::Write`], so an instruction's
/// `Display` text is hashed as it is rendered.
struct KeySink([Fnv64; 2]);

impl fmt::Write for KeySink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for stream in &mut self.0 {
            stream.write(s.as_bytes());
        }
        Ok(())
    }
}

/// One position of a cached emitted stream.
#[derive(Debug, Clone)]
enum EmitSlot {
    /// The instruction at this index of the *requesting* block.
    FromBlock(u32),
    /// A literal instruction not present in the block (the delay-slot
    /// `nop`).
    Literal(Instruction),
}

/// The cached value: everything needed to reproduce a [`BlockOutcome`]
/// from the requesting block's own instructions.
#[derive(Debug, Clone)]
struct CachedBlock {
    order: Vec<EmitSlot>,
    len: usize,
    original_makespan: u64,
    scheduled_makespan: u64,
    slot: Option<SlotFill>,
    cost_bytes: usize,
}

impl CachedBlock {
    /// Capture a freshly compiled outcome, mapping each emitted
    /// instruction back to its index in `insns` (multiset matching, so
    /// duplicate instructions are assigned distinct indices).
    fn capture(insns: &[Instruction], outcome: &BlockOutcome) -> CachedBlock {
        let mut positions: HashMap<&Instruction, VecDeque<usize>> = HashMap::new();
        for (i, insn) in insns.iter().enumerate() {
            positions.entry(insn).or_default().push_back(i);
        }
        let order: Vec<EmitSlot> = outcome
            .emitted
            .iter()
            .map(
                |insn| match positions.get_mut(insn).and_then(VecDeque::pop_front) {
                    Some(i) => EmitSlot::FromBlock(i as u32),
                    None => EmitSlot::Literal(*insn),
                },
            )
            .collect();
        // Approximate footprint of the whole entry, not just the
        // payload: the emitted-order slots, plus the 128-bit content
        // key this entry pins (stored twice — once in the lookup map,
        // once in the slab entry), the map's slab-index value, and
        // fixed per-entry bookkeeping (LRU links, report fields).
        // Omitting the key/index share under-counted every entry by
        // ~40 bytes, so a cache full of tiny blocks blew its byte
        // budget by an unbounded margin.
        let cost_bytes = entry_cost(order.len());
        CachedBlock {
            order,
            len: outcome.report.len,
            original_makespan: outcome.report.original_makespan,
            scheduled_makespan: outcome.report.scheduled_makespan,
            slot: outcome.report.slot.clone(),
            cost_bytes,
        }
    }

    /// Reconstruct the outcome for block `block` of the requesting
    /// program, using *its* instructions.
    fn replay(&self, block: usize, insns: &[Instruction]) -> Option<BlockOutcome> {
        let emitted: Option<Vec<Instruction>> = self
            .order
            .iter()
            .map(|slot| match slot {
                EmitSlot::FromBlock(i) => insns.get(*i as usize).cloned(),
                EmitSlot::Literal(insn) => Some(*insn),
            })
            .collect();
        Some(BlockOutcome {
            emitted: emitted?,
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

/// Sentinel order-slot value marking a literal delay-slot `nop` in the
/// persisted encoding (block indices are capped far below this).
const PERSIST_NOP_SLOT: u32 = u32::MAX;

impl CachedBlock {
    /// Serialize this entry (with its `key`) for the durability layer.
    ///
    /// Returns `None` when the entry cannot be persisted faithfully:
    /// the only literal instruction delay-slot filling ever emits is
    /// the canonical `nop`, which round-trips as a tag; any other
    /// literal (impossible today, conceivable after a scheduler change)
    /// keeps the entry RAM-only rather than risking a lossy encoding.
    fn encode(&self, key: Key) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(64 + 4 * self.order.len());
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
        for slot in &self.order {
            match slot {
                EmitSlot::FromBlock(i) => {
                    debug_assert!(*i < PERSIST_NOP_SLOT);
                    out.extend_from_slice(&i.to_le_bytes());
                }
                EmitSlot::Literal(insn) if *insn == Instruction::nop() => {
                    out.extend_from_slice(&PERSIST_NOP_SLOT.to_le_bytes());
                }
                EmitSlot::Literal(_) => return None,
            }
        }
        Some(out)
    }

    /// Decode a persisted entry. `None` on any structural mismatch —
    /// the record is simply skipped during recovery (per-record
    /// checksums make this unreachable short of a format bug, but a
    /// corrupt record must never panic recovery).
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
        let mut order = Vec::with_capacity(count);
        for i in 0..count {
            let raw = u32::from_le_bytes(body[4 * i..4 * i + 4].try_into().ok()?);
            order.push(if raw == PERSIST_NOP_SLOT {
                EmitSlot::Literal(Instruction::nop())
            } else {
                EmitSlot::FromBlock(raw)
            });
        }
        let cost_bytes = entry_cost(order.len());
        Some((
            key,
            CachedBlock {
                order,
                len,
                original_makespan,
                scheduled_makespan,
                slot,
                cost_bytes,
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
        self.slab[ix].value.order = Vec::new();
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
    /// re-importing in order reproduces the recency order). Entries
    /// that cannot be encoded faithfully are skipped.
    pub fn export_entries(&self) -> Vec<Vec<u8>> {
        let inner = self.lock_inner();
        let mut out = Vec::with_capacity(inner.map.len());
        let mut ix = inner.tail;
        while ix != NONE {
            let entry = &inner.slab[ix];
            if let Some(bytes) = entry.value.encode(entry.key) {
                out.push(bytes);
            }
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
    fn lookup(
        &self,
        block: usize,
        insns: &[Instruction],
        scope: &CacheScope<'_>,
    ) -> Option<BlockOutcome> {
        let key = scoped_key(insns, scope);
        let mut inner = self.lock_inner();
        match inner.map.get(&key).copied() {
            Some(ix) => {
                inner.touch(ix);
                let replayed = inner.slab[ix].value.replay(block, insns);
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

    fn store(&self, insns: &[Instruction], scope: &CacheScope<'_>, outcome: &BlockOutcome) {
        let key = scoped_key(insns, scope);
        let value = CachedBlock::capture(insns, outcome);
        // Encode before inserting (insert moves the value), but only
        // touch the sink when the entry was actually admitted — and do
        // so *after* the cache lock is dropped, so the sink can safely
        // re-enter the cache.
        let encoded = value.encode(key);
        let admitted = self.lock_inner().insert(key, value, &self.config);
        if admitted {
            if let (Some(bytes), Some(writer)) = (encoded, self.lock_writer().as_ref()) {
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
        compile_block, schedule_program_batch_scratch, DegradePolicy, Limits, NoCache,
        ScheduledProgram,
    };
    use dagsched_workloads::{generate, parse_asm, BenchmarkProfile, PAPER_SEED};

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
        cache.store(&insns, &CacheScope::new(&model, &config), &outcome);
        let hit = cache
            .lookup(0, &insns, &CacheScope::new(&model, &config))
            .unwrap();
        assert_eq!(hit.emitted, outcome.emitted);
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
        cache.store(&insns, &CacheScope::new(&model, &config), &outcome);
        let hit = cache
            .lookup(3, &insns, &CacheScope::new(&model, &config))
            .unwrap();
        assert_eq!(hit.emitted, outcome.emitted);
        assert_eq!(hit.report.block, 3, "block index is the requester's");
        assert_eq!(
            hit.report.scheduled_makespan,
            outcome.report.scheduled_makespan
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn key_is_sensitive_to_model_config_and_expr_structure() {
        let insns = block("ld [%o0], %l0\n faddd %f0, %f2, %f4");
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let base = block_key(&insns, &model, &config);

        assert_ne!(
            base,
            block_key(&insns, &MachineModel::deep_fpu(), &config),
            "machine model must be part of the key"
        );
        let other_cfg = DriverConfig {
            scheduler: dagsched_sched::Scheduler::new(dagsched_sched::SchedulerKind::Tiemann),
            ..DriverConfig::default()
        };
        assert_ne!(
            base,
            block_key(&insns, &model, &other_cfg),
            "scheduler must be part of the key"
        );
        let flagged = DriverConfig {
            fill_delay_slots: true,
            ..DriverConfig::default()
        };
        assert_ne!(base, block_key(&insns, &model, &flagged));

        // Same rendered text, different expr sharing structure.
        let shared = block("ld [%o0], %l0\n st %l0, [%o0]");
        let a = block_key(&shared, &model, &config);
        let mut unshared = shared.clone();
        unshared[1].mem.as_mut().unwrap().expr = dagsched_isa::MemExprId::from_index(7);
        assert_ne!(
            a,
            block_key(&unshared, &model, &config),
            "expr-sharing structure must be part of the key"
        );
    }

    #[test]
    fn key_ignores_program_position() {
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let a = block("add %o0, %o1, %o2\n sub %o2, %o3, %o4");
        let mut b = a.clone();
        for (i, insn) in b.iter_mut().enumerate() {
            insn.orig_index = 1000 + i as u32; // same block later in a program
        }
        assert_eq!(
            block_key(&a, &model, &config),
            block_key(&b, &model, &config)
        );
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
            cache.store(b, &CacheScope::new(&model, &config), &o);
        }
        // Touch b1 so b2 becomes the LRU victim.
        assert!(cache
            .lookup(0, &b1, &CacheScope::new(&model, &config))
            .is_some());
        let o3 = compile(&b3, &model, &config);
        cache.store(&b3, &CacheScope::new(&model, &config), &o3);
        assert_eq!(cache.len(), 2);
        assert!(
            cache
                .lookup(0, &b2, &CacheScope::new(&model, &config))
                .is_none(),
            "b2 evicted"
        );
        assert!(
            cache
                .lookup(0, &b1, &CacheScope::new(&model, &config))
                .is_some(),
            "b1 kept"
        );
        assert!(
            cache
                .lookup(0, &b3, &CacheScope::new(&model, &config))
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
        let entry_cost = CachedBlock::capture(&one, &o).cost_bytes;

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
            cache.store(b, &CacheScope::new(&model, &config), &o);
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
        tiny.store(&one, &CacheScope::new(&model, &config), &o);
        assert!(tiny.is_empty());
        assert_eq!(tiny.stats().evictions, 0);
    }

    #[test]
    fn duplicate_instructions_map_to_distinct_indices() {
        // Two identical adds: multiset matching must keep both.
        let insns = block("add %o0, %o1, %o2\n add %o0, %o1, %o2\n smul %o2, %o3, %o4");
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let cache = ScheduleCache::default();
        let outcome = compile(&insns, &model, &config);
        cache.store(&insns, &CacheScope::new(&model, &config), &outcome);
        let hit = cache
            .lookup(0, &insns, &CacheScope::new(&model, &config))
            .unwrap();
        assert_eq!(hit.emitted.len(), insns.len());
        assert_eq!(hit.emitted, outcome.emitted);
    }

    fn grep() -> dagsched_isa::Program {
        generate(BenchmarkProfile::by_name("grep").unwrap(), PAPER_SEED).program
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

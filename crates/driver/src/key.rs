//! Schedule-cache keys: the one place their format is defined.
//!
//! A [`Key`] has a configuration half and a block half, hashed with two
//! independent FNV-1a streams into 128 bits, so accidental collisions
//! are out of reach for any realistic cache population.
//!
//! The configuration half is the scheduler's full `Debug` rendering
//! (construction algorithm, memory policy, heuristic list, direction,
//! postpass flag), the driver flags and [`MachineModel::fingerprint`].
//! It is the same for every block of a batch, so the batch loop hashes
//! it once per batch and degradation rung into a [`CacheScope`], and
//! both streams start from the scope's hashes.
//!
//! The block half ([`CacheScope::key`]) is, per instruction, its
//! rendered text (which deliberately excludes the program-absolute
//! `orig_index` and the program-interned [`MemExprId`]), a delimiter
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
//! The batch loop keys each block once: a miss is stored under the key
//! its lookup computed. [`block_key`] computes the same key in one call,
//! scope included.
//!
//! [`MemExprId`]: dagsched_isa::MemExprId

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use dagsched_core::MAX_NODES;
use dagsched_isa::{Fnv64, InlineList, Instruction, MachineModel};

use crate::driver::DriverConfig;

/// Seed of the second key stream (an arbitrary odd constant).
const KEY_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Ends each instruction's text in the key: no UTF-8 text contains this
/// byte, so the text and the ordinal after it cannot run together.
const TEXT_END: u8 = 0xFF;

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

/// The configuration half of a block's cache key.
///
/// A cached schedule is only valid under the model and configuration it
/// was compiled for, so a cache key covers both, and they are the same
/// for every block of a batch. The batch loop therefore hashes them once
/// per batch and degradation rung: the configuration's `Debug` rendering
/// and the model's [`MachineModel::fingerprint`] go into two FNV-1a
/// streams, the second seeded apart from the first. [`CacheScope::key`]
/// continues both streams over one block's bytes.
#[derive(Debug, Clone, Copy)]
pub struct CacheScope {
    streams: [Fnv64; 2],
}

impl CacheScope {
    /// Hash (`model`, `config`) into the two key streams.
    pub fn new(model: &MachineModel, config: &DriverConfig) -> CacheScope {
        let rendering = format!(
            "{:?}|inherit={}|fill={}",
            config.scheduler, config.inherit_latencies, config.fill_delay_slots
        );
        let fingerprint = model.fingerprint();
        let mut streams = [Fnv64::new(), Fnv64::with_seed(KEY_SEED)];
        for stream in &mut streams {
            stream.write_str(&rendering);
            stream.write_u64(fingerprint);
        }
        CacheScope { streams }
    }

    /// The key of `insns` under this scope: the scope's two streams,
    /// continued over the block's canonical bytes.
    pub fn key(&self, insns: &[Instruction]) -> Key {
        self.key_in(insns, &mut HashMap::new())
    }

    /// [`CacheScope::key`], counting the memory-expression ordinals past
    /// the first 16 in `spill`, which keeps its storage for the next
    /// block (the batch loop passes `Scratch::key_ordinals`).
    pub fn key_in(&self, insns: &[Instruction], spill: &mut HashMap<u32, u32>) -> Key {
        spill.clear();
        let mut sink = KeySink(self.streams);
        let mut ordinals = Ordinals {
            first: InlineList::new(),
            rest: spill,
        };
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
        // A block past `MAX_NODES`, which compiling rejects, does not
        // leave its map behind.
        if insns.len() > MAX_NODES {
            *spill = HashMap::new();
        }
        let [a, b] = sink.0;
        Key {
            a: a.finish(),
            b: b.finish(),
        }
    }
}

/// Compute the cache key for (`insns`, `model`, `config`): the key a
/// batch with that model and configuration stores the block under.
pub fn block_key(insns: &[Instruction], model: &MachineModel, config: &DriverConfig) -> Key {
    CacheScope::new(model, config).key(insns)
}

/// Distinct memory expressions a block keys without a map: blocks
/// rarely hold more, and a linear scan over this few costs less than
/// hashing.
const INLINE_EXPRS: usize = 16;

/// First-occurrence ordinals of a block's memory-expression ids, in the
/// order the ids first appear: a linear scan over the first
/// [`INLINE_EXPRS`] distinct ids, kept inline, and a map for the rest,
/// so a small block touches no map and a large one stays linear.
struct Ordinals<'a> {
    first: InlineList<u32, INLINE_EXPRS>,
    rest: &'a mut HashMap<u32, u32>,
}

impl Ordinals<'_> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_workloads::{canon_mix, generate_canon, parse_asm};

    fn block(text: &str) -> Vec<Instruction> {
        parse_asm(text).unwrap().insns
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

    /// A map reused across blocks, as the batch loop reuses
    /// `Scratch::key_ordinals`, keys every block as a fresh one does,
    /// blocks past the inline ordinals included.
    #[test]
    fn a_reused_ordinal_map_keys_as_a_fresh_one() {
        let model = MachineModel::sparc2();
        let config = DriverConfig::default();
        let scope = CacheScope::new(&model, &config);
        let mut spill = HashMap::new();
        let mut spilled = 0;
        for name in canon_mix() {
            let program = generate_canon(&name, 7).unwrap().program;
            for b in program.basic_blocks() {
                let insns = program.block_insns(&b);
                assert_eq!(
                    scope.key_in(insns, &mut spill),
                    block_key(insns, &model, &config)
                );
                spilled += usize::from(!spill.is_empty());
            }
        }
        assert!(spilled > 0, "no block spilled past the inline ordinals");
    }
}

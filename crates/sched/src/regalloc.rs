//! A block-local linear-scan register allocator.
//!
//! The paper's register-usage heuristics (§3) exist because scheduling
//! *before* register allocation trades stalls against spills: "it is more
//! advantageous to postpone scheduling of an instruction that increases
//! the register pressure", and "the integration of register allocation
//! and instruction scheduling into one pass has also been studied"
//! \[2, 5\]. This module supplies the allocation substrate those
//! heuristics interact with: a classic linear-scan allocator (whole-range
//! intervals, furthest-end spilling) over one basic block, inserting
//! spill stores and reloads against dedicated stack slots.
//!
//! Registers that are live-in (used before any definition) or potentially
//! live-out (defined but not exhausted in the block) keep their
//! architectural identity; everything else may be renamed into the
//! allocatable pool.

use std::collections::HashMap;

use dagsched_isa::{Instruction, MemExprPool, MemRef, Opcode, Reg, RegClass, Resource};

/// Configuration: the allocatable pools and the reserved scratch
/// registers used by spill code (scratches must not be in the pools).
#[derive(Debug, Clone)]
pub struct LinearScan {
    /// Allocatable integer registers.
    pub int_pool: Vec<Reg>,
    /// Allocatable FP registers (use even registers for double-word code).
    pub fp_pool: Vec<Reg>,
    /// Two integer scratches for spill reloads.
    pub int_scratch: [Reg; 2],
    /// Two FP scratches for spill reloads.
    pub fp_scratch: [Reg; 2],
}

impl Default for LinearScan {
    fn default() -> LinearScan {
        LinearScan {
            int_pool: (8..14).map(Reg::Int).collect(), // %o0-%o5
            fp_pool: (0..12).step_by(2).map(Reg::Fp).collect(),
            int_scratch: [Reg::Int(16), Reg::Int(17)], // %l0, %l1
            fp_scratch: [Reg::Fp(28), Reg::Fp(30)],
        }
    }
}

/// The outcome of allocating one block.
#[derive(Debug, Clone)]
pub struct AllocResult {
    /// The rewritten instruction stream (spill code included).
    pub insns: Vec<Instruction>,
    /// Number of spilled live ranges.
    pub spilled_ranges: usize,
    /// Number of spill stores + reloads inserted.
    pub spill_code: usize,
    /// Final register mapping (original → assigned) for renamed ranges.
    pub mapping: HashMap<Reg, Reg>,
}

#[derive(Debug, Clone)]
struct Interval {
    reg: Reg,
    start: usize,
    end: usize,
    /// Pinned intervals keep their architectural register (live-in or
    /// possibly live-out values).
    pinned: bool,
}

fn interesting(r: Reg) -> bool {
    matches!(r.class(), RegClass::Int | RegClass::Fp) && r.is_writable()
}

fn reg_uses(insn: &Instruction) -> Vec<Reg> {
    insn.uses()
        .into_iter()
        .filter_map(|res| match res {
            Resource::Reg(r) if interesting(r) => Some(r),
            _ => None,
        })
        .collect()
}

fn reg_defs(insn: &Instruction) -> Vec<Reg> {
    insn.defs()
        .into_iter()
        .filter_map(|res| match res {
            Resource::Reg(r) if interesting(r) => Some(r),
            _ => None,
        })
        .collect()
}

impl LinearScan {
    /// Allocate `insns` into the configured pools, inserting spill code
    /// when pressure exceeds pool capacity. Spill slots are interned into
    /// `mem_exprs` as `[%fp-spillN]` expressions.
    ///
    /// # Panics
    ///
    /// Panics if a scratch register is also in its allocatable pool, or
    /// if spilling is required while the input block itself names a
    /// scratch register (the spill reloads would clobber it).
    pub fn allocate(&self, insns: &[Instruction], mem_exprs: &mut MemExprPool) -> AllocResult {
        for s in self.int_scratch {
            assert!(!self.int_pool.contains(&s), "scratch {s} in int pool");
        }
        for s in self.fp_scratch {
            assert!(!self.fp_pool.contains(&s), "scratch {s} in fp pool");
        }
        let intervals = self.build_intervals(insns);
        let (assignment, spilled) = self.scan(&intervals);
        // Spill code reloads through the scratch registers; if the input
        // itself holds live values in them, those reloads would clobber
        // them. Refuse loudly rather than miscompile.
        if !spilled.is_empty() {
            let scratches: Vec<Reg> = self
                .int_scratch
                .iter()
                .chain(&self.fp_scratch)
                .copied()
                .collect();
            for iv in &intervals {
                assert!(
                    !scratches.contains(&iv.reg),
                    "input block uses scratch register {} but spilling is required;                      configure different scratches",
                    iv.reg
                );
            }
        }
        self.rewrite(insns, &assignment, &spilled, mem_exprs)
    }

    fn build_intervals(&self, insns: &[Instruction]) -> Vec<Interval> {
        #[derive(Default)]
        struct Ev {
            first: Option<usize>,
            last: usize,
            defined_first: bool,
            last_is_def: bool,
            dword: bool,
        }
        let mut events: HashMap<Reg, Ev> = HashMap::new();
        for (i, insn) in insns.iter().enumerate() {
            // Double-word pairs must not be renamed: moving the named
            // register would silently move its partner too.
            let dword = insn.opcode.is_dword();
            for r in reg_uses(insn) {
                let e = events.entry(r).or_default();
                if e.first.is_none() {
                    e.first = Some(i);
                    e.defined_first = false;
                }
                e.last = i;
                e.last_is_def = false;
                e.dword |= dword;
            }
            for r in reg_defs(insn) {
                let e = events.entry(r).or_default();
                if e.first.is_none() {
                    e.first = Some(i);
                    e.defined_first = true;
                }
                e.last = i;
                e.last_is_def = true;
                e.dword |= dword;
            }
        }
        let block_end = insns.len();
        let mut out: Vec<Interval> = events
            .into_iter()
            .map(|(reg, e)| {
                // Live-in (read before written) or possibly live-out
                // (final event is a definition): identity must survive,
                // and the value is live from block entry / to block exit
                // respectively — the architectural register must be
                // reserved for that whole span.
                let live_in = !e.defined_first;
                let live_out = e.last_is_def;
                Interval {
                    reg,
                    start: if live_in { 0 } else { e.first.unwrap() },
                    end: if live_out { block_end } else { e.last },
                    pinned: live_in || live_out || e.dword,
                }
            })
            .collect();
        out.sort_by_key(|iv| (iv.start, iv.reg));
        out
    }

    /// Poletto–Sarkar linear scan: returns the register assignment and
    /// the set of spilled registers.
    fn scan(&self, intervals: &[Interval]) -> (HashMap<Reg, Reg>, Vec<Reg>) {
        let mut assignment: HashMap<Reg, Reg> = HashMap::new();
        let mut spilled: Vec<Reg> = Vec::new();
        // Per class: free pool and active intervals (end, virtual reg).
        // Every architectural register with a pinned interval anywhere in
        // the block is withheld from the pool outright: pinned ranges may
        // start mid-block, and handing their register to an overlapping
        // virtual first would collide.
        let pinned_regs: Vec<Reg> = intervals
            .iter()
            .filter(|iv| iv.pinned)
            .map(|iv| iv.reg)
            .collect();
        let mut free: HashMap<RegClass, Vec<Reg>> = HashMap::new();
        free.insert(
            RegClass::Int,
            self.int_pool
                .iter()
                .copied()
                .filter(|p| !pinned_regs.contains(p))
                .collect(),
        );
        free.insert(
            RegClass::Fp,
            self.fp_pool
                .iter()
                .copied()
                .filter(|p| !pinned_regs.contains(p))
                .collect(),
        );
        let mut active: Vec<(usize, Reg, Reg)> = Vec::new(); // (end, virtual, physical)

        for iv in intervals {
            // Expire finished intervals.
            active.retain(|&(end, _v, phys)| {
                if end < iv.start {
                    free.get_mut(&phys.class()).unwrap().push(phys);
                    false
                } else {
                    true
                }
            });
            let class = iv.reg.class();
            if iv.pinned {
                assignment.insert(iv.reg, iv.reg);
                continue;
            }
            let pool = free.get_mut(&class).unwrap();
            if let Some(phys) = pool.pop() {
                assignment.insert(iv.reg, phys);
                active.push((iv.end, iv.reg, phys));
            } else {
                // Spill the unpinned active interval with the furthest
                // end; if none (all pinned), spill this one.
                let victim = active
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, v, _))| {
                        v.class() == class && assignment.get(&v).is_none_or(|&p| p != v)
                    })
                    .max_by_key(|(_, &(end, _, _))| end);
                match victim {
                    Some((ix, &(end, v, phys))) if end > iv.end => {
                        active.remove(ix);
                        spilled.push(v);
                        assignment.remove(&v);
                        assignment.insert(iv.reg, phys);
                        active.push((iv.end, iv.reg, phys));
                    }
                    _ => {
                        spilled.push(iv.reg);
                    }
                }
            }
        }
        (assignment, spilled)
    }

    fn rewrite(
        &self,
        insns: &[Instruction],
        assignment: &HashMap<Reg, Reg>,
        spilled: &[Reg],
        mem_exprs: &mut MemExprPool,
    ) -> AllocResult {
        // Assign each spilled register a stack slot.
        let mut slots: HashMap<Reg, MemRef> = HashMap::new();
        for (k, &r) in spilled.iter().enumerate() {
            let expr = mem_exprs.intern(&format!("[%fp-spill{k}]"));
            slots.insert(
                r,
                MemRef::base_offset(Reg::fp(), -(256 + 8 * k as i32), expr),
            );
        }
        let rename = |r: Reg| -> Reg { assignment.get(&r).copied().unwrap_or(r) };

        let mut out: Vec<Instruction> = Vec::with_capacity(insns.len());
        let mut spill_code = 0usize;
        for insn in insns {
            let mut work = *insn;
            // Reload spilled uses into scratches.
            let mut scratch_ix: HashMap<RegClass, usize> = HashMap::new();
            let uses: Vec<Reg> = reg_uses(&work);
            let mut replacements: HashMap<Reg, Reg> = HashMap::new();
            for r in uses {
                if let Some(&slot) = slots.get(&r) {
                    if replacements.contains_key(&r) {
                        continue;
                    }
                    let class = r.class();
                    let ix = scratch_ix.entry(class).or_insert(0);
                    let scratch = match class {
                        RegClass::Fp => self.fp_scratch[*ix % 2],
                        _ => self.int_scratch[*ix % 2],
                    };
                    *ix += 1;
                    // Single-register save/restore forms: the double-word
                    // ops move register *pairs* and would drag the
                    // scratch's partner into the slot.
                    let op = if class == RegClass::Fp {
                        Opcode::LdF
                    } else {
                        Opcode::Ld
                    };
                    out.push(Instruction::load(op, slot, scratch));
                    spill_code += 1;
                    replacements.insert(r, scratch);
                }
            }
            // Spilled definition goes through scratch 0 then to memory.
            let def_spill = work.rd.filter(|rd| slots.contains_key(rd));
            substitute(&mut work, |r| {
                replacements.get(&r).copied().unwrap_or_else(|| rename(r))
            });
            if let Some(orig_rd) = def_spill {
                let class = orig_rd.class();
                let scratch = match class {
                    RegClass::Fp => self.fp_scratch[0],
                    _ => self.int_scratch[0],
                };
                work.rd = Some(scratch);
                out.push(work);
                let op = if class == RegClass::Fp {
                    Opcode::StF
                } else {
                    Opcode::St
                };
                out.push(Instruction::store(op, scratch, slots[&orig_rd]));
                spill_code += 1;
            } else {
                out.push(work);
            }
        }
        // Reassign original order indices for the rewritten stream.
        for (i, insn) in out.iter_mut().enumerate() {
            insn.orig_index = i as u32;
        }
        AllocResult {
            insns: out,
            spilled_ranges: spilled.len(),
            spill_code,
            mapping: assignment.clone(),
        }
    }
}

/// Replace every register operand of `insn` via `f` (destination,
/// sources, memory base and index).
fn substitute(insn: &mut Instruction, f: impl Fn(Reg) -> Reg) {
    if let Some(rd) = insn.rd {
        insn.rd = Some(f(rd));
    }
    for r in &mut insn.rs {
        *r = f(*r);
    }
    if let Some(mem) = &mut insn.mem {
        mem.base = f(mem.base);
        if let Some(ix) = mem.index {
            mem.index = Some(f(ix));
        }
    }
}

/// Maximum number of simultaneously live integer+FP registers in a block
/// (nothing assumed live-in/live-out beyond block-local usage).
pub fn max_register_pressure(insns: &[Instruction]) -> usize {
    let mut live: std::collections::HashSet<Reg> = std::collections::HashSet::new();
    let mut max = 0usize;
    for insn in insns.iter().rev() {
        for r in reg_defs(insn) {
            live.remove(&r);
        }
        for r in reg_uses(insn) {
            live.insert(r);
        }
        max = max.max(live.len());
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_isa::Program;

    fn chain_block(width: usize) -> Program {
        // `width` parallel load→use pairs, all live simultaneously at the
        // midpoint: pressure = width.
        let mut p = Program::new();
        let exprs: Vec<_> = (0..width)
            .map(|k| p.mem_exprs.intern(&format!("[%fp-{}]", 8 * (k + 1))))
            .collect();
        // Virtual names avoiding %sp and the allocator's scratches.
        const VREGS: [u8; 12] = [8, 9, 10, 11, 12, 13, 18, 19, 20, 21, 22, 23];
        for (k, &expr) in exprs.iter().enumerate() {
            p.push(Instruction::load(
                Opcode::Ld,
                MemRef::base_offset(Reg::fp(), -(8 * (k as i32 + 1)), expr),
                Reg::Int(VREGS[k % VREGS.len()]),
            ));
        }
        // Consume all loaded values pairwise into %g1 (killing them).
        for k in 0..width {
            p.push(Instruction::int3(
                Opcode::Add,
                Reg::Int(VREGS[k % VREGS.len()]),
                Reg::Int(1),
                Reg::Int(1),
            ));
        }
        p
    }

    #[test]
    fn no_spills_when_pressure_fits() {
        let p = chain_block(4);
        let mut pool = p.mem_exprs.clone();
        let alloc = LinearScan::default().allocate(&p.insns, &mut pool);
        assert_eq!(alloc.spilled_ranges, 0);
        assert_eq!(alloc.spill_code, 0);
        assert_eq!(alloc.insns.len(), p.insns.len());
    }

    #[test]
    fn spills_when_pressure_exceeds_pool() {
        let p = chain_block(8); // pressure 9 (8 loads + accumulator)
        let mut pool = p.mem_exprs.clone();
        let scan = LinearScan {
            int_pool: (8..12).map(Reg::Int).collect(), // only 4 registers
            ..LinearScan::default()
        };
        let alloc = scan.allocate(&p.insns, &mut pool);
        assert!(alloc.spilled_ranges > 0, "must spill");
        assert!(alloc.insns.len() > p.insns.len(), "spill code inserted");
        // After allocation the rewritten stream fits the pool + scratches
        // + pinned registers.
        let pressure = max_register_pressure(&alloc.insns);
        assert!(
            pressure <= 4 + 2 + 1, // pool + scratches + pinned %g1
            "post-alloc pressure {pressure}"
        );
    }

    #[test]
    fn live_in_registers_keep_their_identity() {
        // %i0 is used before any definition: it must not be renamed.
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::i(0), 1, Reg::o(0)),
            Instruction::int3(Opcode::Add, Reg::o(0), Reg::i(0), Reg::o(1)),
        ];
        let mut pool = MemExprPool::new();
        let alloc = LinearScan::default().allocate(&insns, &mut pool);
        assert_eq!(alloc.mapping.get(&Reg::i(0)), Some(&Reg::i(0)));
        assert!(alloc.insns[0].rs.contains(&Reg::i(0)));
    }

    #[test]
    fn dataflow_is_preserved_by_renaming() {
        // def %o3 -> use %o3: whatever %o3 becomes, the def and the use
        // must still name the same register.
        let insns = vec![
            Instruction::int_imm(Opcode::Add, Reg::i(0), 1, Reg::o(3)),
            Instruction::int_imm(Opcode::Add, Reg::o(3), 2, Reg::o(4)),
            Instruction::int3(Opcode::Add, Reg::o(4), Reg::o(3), Reg::o(5)),
        ];
        let mut pool = MemExprPool::new();
        let alloc = LinearScan::default().allocate(&insns, &mut pool);
        assert_eq!(alloc.spilled_ranges, 0);
        let def = alloc.insns[0].rd.unwrap();
        assert_eq!(alloc.insns[1].rs[0], def);
        assert_eq!(alloc.insns[2].rs[1], def);
    }

    #[test]
    fn spill_slots_are_distinct_expressions() {
        let p = chain_block(10);
        let mut pool = p.mem_exprs.clone();
        let scan = LinearScan {
            int_pool: (8..11).map(Reg::Int).collect(),
            ..LinearScan::default()
        };
        let before = pool.len();
        let alloc = scan.allocate(&p.insns, &mut pool);
        assert!(alloc.spilled_ranges >= 2);
        assert_eq!(pool.len(), before + alloc.spilled_ranges);
    }

    #[test]
    fn pressure_helper_counts_overlap() {
        let p = chain_block(5);
        assert_eq!(max_register_pressure(&p.insns), 6); // 5 loads + %g1
    }

    #[test]
    #[should_panic(expected = "scratch")]
    fn scratch_in_pool_is_rejected() {
        let bad = LinearScan {
            int_pool: vec![Reg::Int(16)],
            int_scratch: [Reg::Int(16), Reg::Int(17)],
            ..LinearScan::default()
        };
        let mut pool = MemExprPool::new();
        let _ = bad.allocate(&[], &mut pool);
    }
}

//! The dependence DAG, stored struct-of-arrays.
//!
//! Arcs live in four parallel columns (`from`, `to`, `kind`, `latency`)
//! rather than an array of structs, and per-node adjacency is a pair of
//! CSR (offsets + arc-id) arrays rather than one growable `Vec` per
//! node: the construction algorithms append into the flat columns and
//! the adjacency is built afterwards in two counting-sort passes
//! ([`Dag::build_adjacency`]), so a 12k-instruction block performs four
//! flat allocations instead of tens of thousands of per-node list
//! growths. Duplicate-pair merging is split by construction pattern:
//! the table-building algorithms add all arcs of one instruction
//! consecutively, so their merge check scans only the current
//! instruction's batch of column entries, and the compare-against-all
//! family — which visits each ordered pair exactly once and can never
//! produce a duplicate — appends unchecked, removing the out-list scan
//! that made `n**2` construction quadratic in arc degree. The paper's
//! "one bit position per node" reachability maps are materialized on
//! demand ([`Dag::descendants`]) as whole-word row unions over one flat
//! [`BitMatrix`] allocation, not stored per DAG.
//!
//! The columns also record whether arcs were appended in `to`-ascending
//! or `from`-descending order. Every constructor in this crate produces
//! one of the two, which lets the heuristic passes in
//! [`crate::heur`] run as single linear sweeps over the arc columns.

use std::fmt;

use dagsched_isa::{DepKind, Opcode};

use crate::bitset::{BitMatrix, BitSet};

/// Hard cap on nodes per DAG (instructions per basic block).
///
/// Two birds: a `NodeId` fits `u32` with room to spare, and the merged
/// arc count is bounded by `MAX_NODES * (MAX_NODES - 1) / 2` ≈ 2^27, so
/// `ArcId(arcs.len() as u32)` can never wrap. Blocks above the cap are
/// rejected with [`ConstructError::TooManyNodes`] before construction
/// starts (the service surfaces that as `bad-request`). The cap must
/// clear the largest real basic block (fpppp's ~12k instructions); it
/// also bounds the `n × n` reachability bit-matrix a worker's
/// [`crate::Scratch`] arena may grow to (n²/8 ≈ 32 MB worst case).
pub const MAX_NODES: usize = 16384;

/// A typed failure detected while preparing a block for DAG
/// construction. These are *input* errors — the serving stack maps them
/// to `bad-request` instead of letting a worker panic and reply
/// `internal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstructError {
    /// An instruction with a memory-class opcode carries no parsed
    /// memory operand, so its dependence key cannot be formed.
    MissingMemOperand {
        /// Block-relative instruction index.
        index: usize,
        /// The offending opcode.
        opcode: Opcode,
    },
    /// The block exceeds [`MAX_NODES`] instructions.
    TooManyNodes {
        /// Instructions in the block.
        nodes: usize,
    },
}

impl fmt::Display for ConstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstructError::MissingMemOperand { index, opcode } => write!(
                f,
                "instruction {index} ({opcode:?}) is a memory operation without a memory operand"
            ),
            ConstructError::TooManyNodes { nodes } => write!(
                f,
                "block has {nodes} instructions, more than the {MAX_NODES}-node DAG limit"
            ),
        }
    }
}

impl std::error::Error for ConstructError {}

/// Identifier of a DAG node. Node `i` always corresponds to the `i`-th
/// instruction of the basic block the DAG was built from, so arcs always
/// point from lower to higher original index (program-forward), regardless
/// of whether the DAG was *constructed* by a forward or a backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Construct from a raw index. Indices at or above [`MAX_NODES`]
    /// cannot name a node of any constructible DAG (debug-checked here;
    /// the typed guard is [`Dag::try_new`]).
    pub fn new(ix: usize) -> NodeId {
        debug_assert!(ix < MAX_NODES, "node index {ix} above MAX_NODES");
        NodeId(ix as u32)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a DAG arc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArcId(u32);

impl ArcId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A dependence arc: `from` must precede `to`.
///
/// When several dependencies connect the same ordered pair of nodes (e.g.
/// an RAW on one register and a WAR on another), they are merged into a
/// single arc carrying the *strongest* dependence: maximum latency, with
/// ties broken RAW > WAW > WAR. This keeps the paper's per-block arc
/// statistics meaningful and matches how its schedulers consume arcs.
///
/// `DagArc` is a *view*: the DAG stores arcs as parallel columns and
/// materializes this POD on access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagArc {
    /// Parent (earlier) node.
    pub from: NodeId,
    /// Child (later) node.
    pub to: NodeId,
    /// Dependence kind of the strongest merged dependence.
    pub kind: DepKind,
    /// Arc delay in cycles.
    pub latency: u32,
}

fn kind_rank(kind: DepKind) -> u8 {
    match kind {
        DepKind::Raw => 2,
        DepKind::Waw => 1,
        DepKind::War => 0,
    }
}

/// A dependence DAG over one basic block.
///
/// Nodes are created up front (one per instruction); arcs are added by the
/// construction algorithms via [`Dag::add_arc`].
///
/// ```
/// use dagsched_core::{Dag, NodeId};
/// use dagsched_isa::DepKind;
/// let mut dag = Dag::new(3);
/// dag.add_arc(NodeId::new(0), NodeId::new(1), DepKind::War, 1);
/// dag.add_arc(NodeId::new(1), NodeId::new(2), DepKind::Raw, 4);
/// assert_eq!(dag.roots(), vec![NodeId::new(0)]);
/// assert_eq!(dag.leaves(), vec![NodeId::new(2)]);
/// assert_eq!(dag.arc_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Dag {
    // ---- arc columns (struct-of-arrays) ----
    arc_from: Vec<NodeId>,
    arc_to: Vec<NodeId>,
    arc_kind: Vec<DepKind>,
    arc_latency: Vec<u32>,
    // ---- per-node adjacency, CSR over the arc columns ----
    /// `out_ids[out_off[i]..out_off[i + 1]]` are the outgoing arc ids of
    /// node `i`, ascending (= insertion order). `out_off.len()` is the
    /// node count plus one.
    out_off: Vec<u32>,
    out_ids: Vec<ArcId>,
    /// Incoming mirror of `out_off` / `out_ids`.
    inc_off: Vec<u32>,
    inc_ids: Vec<ArcId>,
    /// `arc_to` is nondecreasing in arc-id order (forward constructors).
    to_sorted: bool,
    /// `arc_from` is nonincreasing in arc-id order (backward constructors).
    from_rev_sorted: bool,
    /// Debug builds only: per-node marks for the duplicate-pair check in
    /// [`Dag::build_adjacency`], kept with the DAG so a recycled one
    /// checks without allocating.
    seen: Vec<u32>,
}

impl Dag {
    /// A DAG with `n` isolated nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_NODES`; use [`Dag::try_new`] where oversized
    /// input must surface as a typed error instead.
    pub fn new(n: usize) -> Dag {
        match Dag::try_new(n) {
            Ok(dag) => dag,
            Err(e) => panic!("{e}"),
        }
    }

    /// A DAG with `n` isolated nodes, or
    /// [`ConstructError::TooManyNodes`] if `n` exceeds [`MAX_NODES`].
    pub fn try_new(n: usize) -> Result<Dag, ConstructError> {
        if n > MAX_NODES {
            return Err(ConstructError::TooManyNodes { nodes: n });
        }
        let mut dag = Dag {
            arc_from: Vec::new(),
            arc_to: Vec::new(),
            arc_kind: Vec::new(),
            arc_latency: Vec::new(),
            out_off: Vec::new(),
            out_ids: Vec::new(),
            inc_off: Vec::new(),
            inc_ids: Vec::new(),
            to_sorted: true,
            from_rev_sorted: true,
            seen: Vec::new(),
        };
        dag.reset(n);
        Ok(dag)
    }

    /// Empty this DAG into `n` isolated nodes, keeping the storage of
    /// its columns: every constructor in this crate builds into a DAG
    /// recycled from an earlier block this way (see
    /// [`crate::Scratch::recycle`]), so construction allocates only when
    /// a block needs more arcs than any before it.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_NODES` (callers check with
    /// [`crate::PreparedBlock::try_new`] first).
    pub(crate) fn reset(&mut self, n: usize) {
        assert!(
            n <= MAX_NODES,
            "{}",
            ConstructError::TooManyNodes { nodes: n }
        );
        self.arc_from.clear();
        self.arc_to.clear();
        self.arc_kind.clear();
        self.arc_latency.clear();
        self.out_off.clear();
        self.out_off.resize(n + 1, 0);
        self.out_ids.clear();
        self.inc_off.clear();
        self.inc_off.resize(n + 1, 0);
        self.inc_ids.clear();
        self.to_sorted = true;
        self.from_rev_sorted = true;
    }

    /// Bytes of column and adjacency storage held.
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.arc_from.capacity() + self.arc_to.capacity()) * size_of::<NodeId>()
            + self.arc_kind.capacity() * size_of::<DepKind>()
            + self.arc_latency.capacity() * size_of::<u32>()
            + (self.out_off.capacity() + self.inc_off.capacity()) * size_of::<u32>()
            + (self.out_ids.capacity() + self.inc_ids.capacity()) * size_of::<ArcId>()
            + self.seen.capacity() * size_of::<u32>()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out_off.len() - 1
    }

    /// Number of (merged) arcs.
    pub fn arc_count(&self) -> usize {
        self.arc_from.len()
    }

    /// All arcs in arc-id order.
    pub fn arcs(&self) -> impl Iterator<Item = DagArc> + '_ {
        (0..self.arc_count()).map(|k| self.arc_at(k))
    }

    /// Arc by id.
    pub fn arc(&self, id: ArcId) -> DagArc {
        self.arc_at(id.index())
    }

    #[inline]
    fn arc_at(&self, k: usize) -> DagArc {
        DagArc {
            from: self.arc_from[k],
            to: self.arc_to[k],
            kind: self.arc_kind[k],
            latency: self.arc_latency[k],
        }
    }

    /// The `from` column: parent node per arc, in arc-id order.
    pub fn arc_froms(&self) -> &[NodeId] {
        &self.arc_from
    }

    /// The `to` column: child node per arc, in arc-id order.
    pub fn arc_tos(&self) -> &[NodeId] {
        &self.arc_to
    }

    /// The `latency` column, in arc-id order.
    pub fn arc_latencies(&self) -> &[u32] {
        &self.arc_latency
    }

    /// Whether `arc_to` is nondecreasing in arc-id order. Holds for the
    /// forward constructors; together with program-forward arcs it lets
    /// the forward heuristic pass run as one ascending sweep over the
    /// arc columns (and the backward pass as the descending sweep).
    pub fn arcs_to_sorted(&self) -> bool {
        self.to_sorted
    }

    /// Whether `arc_from` is nonincreasing in arc-id order. Holds for
    /// the backward (table-building) constructors; the mirror-image
    /// sweep property of [`Dag::arcs_to_sorted`].
    pub fn arcs_from_rev_sorted(&self) -> bool {
        self.from_rev_sorted
    }

    /// Add (or merge) a dependence arc from `from` to `to`.
    ///
    /// Returns `true` if a new arc was created, `false` if an existing arc
    /// between the pair absorbed the dependence.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either id is out of range (a self-arc
    /// would make the graph cyclic; construction algorithms must filter
    /// same-instruction def/use overlap).
    pub fn add_arc(&mut self, from: NodeId, to: NodeId, kind: DepKind, latency: u32) -> bool {
        assert_ne!(from, to, "self-arc on {from}");
        let (f, t) = (from.index(), to.index());
        assert!(t < self.node_count(), "arc target {to} out of range");
        // Duplicate-pair check through the CSR adjacency (scan whichever
        // side is shorter), then a full rebuild: this entry point favors
        // always-queryable adjacency over insertion throughput. The
        // construction algorithms use the crate-private batch path below
        // and build the adjacency once per block instead.
        if let Some(k) = self.find_pair(f, t) {
            self.merge_into(k, kind, latency);
            return false;
        }
        self.push_arc(from, to, kind, latency);
        self.build_adjacency();
        true
    }

    /// Append an arc whose ordered pair is guaranteed new — the
    /// compare-against-all constructors visit each pair exactly once, so
    /// their merge logic lives in `strongest_dep` and the per-arc
    /// duplicate scan (quadratic in arc degree on transitive-arc-heavy
    /// DAGs) can be skipped entirely. Debug builds verify the claim once
    /// per block, in [`Dag::build_adjacency`].
    ///
    /// Leaves the adjacency stale; the caller must finish with
    /// [`Dag::build_adjacency`] before the DAG escapes the crate.
    pub(crate) fn push_arc_distinct(
        &mut self,
        from: NodeId,
        to: NodeId,
        kind: DepKind,
        latency: u32,
    ) {
        assert_ne!(from, to, "self-arc on {from}");
        let t = to.index();
        assert!(t < self.node_count(), "arc target {to} out of range");
        self.push_arc(from, to, kind, latency);
    }

    /// Add-or-merge for the table-building constructors, which emit all
    /// arcs of one instruction consecutively: an arc toward instruction
    /// `i` (forward pass) is never produced again after `i`'s batch, and
    /// likewise for arcs out of `i` in the backward pass. A duplicate
    /// pair can therefore only sit in the current batch — the column tail
    /// from `batch_start` (the arc count when the instruction's
    /// processing began) — so the merge check is one linear scan of that
    /// tail and needs no adjacency at all. Debug builds check that no
    /// pair was pushed twice once per block, in [`Dag::build_adjacency`].
    ///
    /// Leaves the adjacency stale; the caller must finish with
    /// [`Dag::build_adjacency`] before the DAG escapes the crate.
    pub(crate) fn merge_or_push_batch(
        &mut self,
        batch_start: usize,
        from: NodeId,
        to: NodeId,
        kind: DepKind,
        latency: u32,
    ) {
        assert_ne!(from, to, "self-arc on {from}");
        let t = to.index();
        assert!(t < self.node_count(), "arc target {to} out of range");
        for k in batch_start..self.arc_from.len() {
            if self.arc_from[k] == from && self.arc_to[k] == to {
                self.merge_into(k, kind, latency);
                return;
            }
        }
        self.push_arc(from, to, kind, latency);
    }

    /// Fold a second dependence between an existing arc's pair into that
    /// arc: keep the maximum latency, ties broken RAW > WAW > WAR.
    #[inline]
    fn merge_into(&mut self, k: usize, kind: DepKind, latency: u32) {
        if latency > self.arc_latency[k]
            || (latency == self.arc_latency[k] && kind_rank(kind) > kind_rank(self.arc_kind[k]))
        {
            self.arc_latency[k] = latency;
            self.arc_kind[k] = kind;
        }
    }

    /// Arc-column index of the arc `f -> t` via the adjacency, scanning
    /// the shorter of the two CSR buckets. Requires current adjacency.
    #[inline]
    fn find_pair(&self, f: usize, t: usize) -> Option<usize> {
        let out = self.out_bucket(f);
        let inc = self.inc_bucket(t);
        if out.len() <= inc.len() {
            out.iter()
                .map(|aid| aid.index())
                .find(|&k| self.arc_to[k].index() == t)
        } else {
            inc.iter()
                .map(|aid| aid.index())
                .find(|&k| self.arc_from[k].index() == f)
        }
    }

    #[inline]
    fn out_bucket(&self, i: usize) -> &[ArcId] {
        &self.out_ids[self.out_off[i] as usize..self.out_off[i + 1] as usize]
    }

    #[inline]
    fn inc_bucket(&self, i: usize) -> &[ArcId] {
        &self.inc_ids[self.inc_off[i] as usize..self.inc_off[i + 1] as usize]
    }

    #[inline]
    fn push_arc(&mut self, from: NodeId, to: NodeId, kind: DepKind, latency: u32) {
        if let (Some(&last_to), Some(&last_from)) = (self.arc_to.last(), self.arc_from.last()) {
            self.to_sorted &= last_to <= to;
            self.from_rev_sorted &= last_from >= from;
        }
        self.arc_from.push(from);
        self.arc_to.push(to);
        self.arc_kind.push(kind);
        self.arc_latency.push(latency);
    }

    /// (Re)build the CSR adjacency from the arc columns: one counting
    /// sort per direction, each a pair of linear passes over flat
    /// memory. Called once per block by the construction algorithms
    /// (and per arc by the incremental [`Dag::add_arc`]).
    ///
    /// # Panics
    ///
    /// With debug assertions, panics if two arcs join the same ordered
    /// pair: the constructors' unchecked appends
    /// ([`Dag::push_arc_distinct`], [`Dag::merge_or_push_batch`]) must
    /// never produce one.
    pub(crate) fn build_adjacency(&mut self) {
        let n = self.node_count();
        // In range by construction: MAX_NODES bounds the merged-pair
        // count well under u32::MAX.
        let m = self.arc_from.len();
        for (off, ids, col) in [
            (&mut self.out_off, &mut self.out_ids, &self.arc_from),
            (&mut self.inc_off, &mut self.inc_ids, &self.arc_to),
        ] {
            off.clear();
            off.resize(n + 1, 0);
            for e in col {
                off[e.index() + 1] += 1;
            }
            for i in 0..n {
                off[i + 1] += off[i];
            }
            ids.clear();
            ids.resize(m, ArcId(0));
            // `off[i]` serves as the fill cursor of bucket `i`; after the
            // fill every entry has advanced to the next bucket's start,
            // so shifting right by one restores the offsets.
            for (k, e) in col.iter().enumerate() {
                let slot = &mut off[e.index()];
                ids[*slot as usize] = ArcId(k as u32);
                *slot += 1;
            }
            for i in (1..=n).rev() {
                off[i] = off[i - 1];
            }
            off[0] = 0;
        }
        if cfg!(debug_assertions) {
            self.assert_distinct_pairs();
        }
    }

    /// Panic if an out-bucket names one child twice: one mark per node,
    /// stamped with the bucket's owner, so the check is O(nodes + arcs).
    fn assert_distinct_pairs(&mut self) {
        let n = self.node_count();
        self.seen.clear();
        self.seen.resize(n, u32::MAX);
        for i in 0..n {
            for &aid in &self.out_ids[self.out_off[i] as usize..self.out_off[i + 1] as usize] {
                let to = self.arc_to[aid.index()];
                let mark = &mut self.seen[to.index()];
                assert!(
                    *mark != i as u32,
                    "duplicate arc {} -> {to} in the arc columns",
                    NodeId::new(i)
                );
                *mark = i as u32;
            }
        }
    }

    /// The merged arc between `from` and `to`, if any.
    pub fn arc_between(&self, from: NodeId, to: NodeId) -> Option<DagArc> {
        self.find_pair(from.index(), to.index())
            .map(|k| self.arc_at(k))
    }

    /// Outgoing arc ids of `n`.
    pub fn out_arc_ids(&self, n: NodeId) -> &[ArcId] {
        self.out_bucket(n.index())
    }

    /// Incoming arc ids of `n`.
    pub fn in_arc_ids(&self, n: NodeId) -> &[ArcId] {
        self.inc_bucket(n.index())
    }

    /// Outgoing arcs of `n` (to its children).
    pub fn out_arcs(&self, n: NodeId) -> impl Iterator<Item = DagArc> + '_ {
        self.out_bucket(n.index())
            .iter()
            .map(|&a| self.arc_at(a.index()))
    }

    /// Incoming arcs of `n` (from its parents).
    pub fn in_arcs(&self, n: NodeId) -> impl Iterator<Item = DagArc> + '_ {
        self.inc_bucket(n.index())
            .iter()
            .map(|&a| self.arc_at(a.index()))
    }

    /// Children of `n`.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_bucket(n.index())
            .iter()
            .map(|&a| self.arc_to[a.index()])
    }

    /// Parents of `n`.
    pub fn parents(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.inc_bucket(n.index())
            .iter()
            .map(|&a| self.arc_from[a.index()])
    }

    /// Out-degree (the `#children` heuristic).
    pub fn num_children(&self, n: NodeId) -> usize {
        self.out_bucket(n.index()).len()
    }

    /// In-degree (the `#parents` heuristic).
    pub fn num_parents(&self, n: NodeId) -> usize {
        self.inc_bucket(n.index()).len()
    }

    /// Root nodes (no parents), in original order. With a forest this
    /// returns the roots of every tree — the paper's "dummy root" trick is
    /// equivalent to seeding a scheduler's candidate list with this set.
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&i| self.inc_off[i] == self.inc_off[i + 1])
            .map(NodeId::new)
            .collect()
    }

    /// Leaf nodes (no children), in original order.
    pub fn leaves(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&i| self.out_off[i] == self.out_off[i + 1])
            .map(NodeId::new)
            .collect()
    }

    /// All node ids in original (program) order. Because arcs always point
    /// program-forward, this is also a topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Descendant reachability rows, written into `m` (reshaped to
    /// `n × n`): row `i` contains `i` and every node reachable from `i`.
    /// This is the paper's `#descendants` machinery ("the #descendants is
    /// then merely the population count on the reachability bit map minus
    /// one"), computed child-rows-first so each row is the whole-word OR
    /// of its children's finished rows.
    pub fn descendants_into(&self, m: &mut BitMatrix) {
        let n = self.node_count();
        m.reset(n, n);
        // Reverse original order is reverse-topological: children first.
        for i in (0..n).rev() {
            m.set(i, i);
            for &aid in self.out_bucket(i) {
                m.or_row_into(self.arc_to[aid.index()].index(), i);
            }
        }
    }

    /// [`Dag::descendants_into`] into a fresh matrix.
    pub fn descendants(&self) -> BitMatrix {
        let mut m = BitMatrix::new(0, 0);
        self.descendants_into(&mut m);
        m
    }

    /// Descendant reachability as one standalone [`BitSet`] per node
    /// (row copies of [`Dag::descendants`]).
    pub fn descendant_maps(&self) -> Vec<BitSet> {
        let m = self.descendants();
        (0..self.node_count()).map(|i| m.row_to_bitset(i)).collect()
    }

    /// Verify acyclicity, program-forward arc orientation, pair
    /// uniqueness, and column/adjacency coherence. All construction
    /// algorithms in this crate maintain these invariants by
    /// construction; this is a checking aid for tests and debug builds.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (k, arc) in self.arcs().enumerate() {
            if arc.from.index() >= arc.to.index() {
                return Err(format!(
                    "arc {} -> {} is not program-forward",
                    arc.from, arc.to
                ));
            }
            if arc.to.index() >= self.node_count() {
                return Err(format!("arc target {} out of range", arc.to));
            }
            if self.find_pair(arc.from.index(), arc.to.index()) != Some(k) {
                return Err(format!(
                    "arc {} -> {} duplicated or missing from its adjacency lists",
                    arc.from, arc.to
                ));
            }
        }
        for (name, off, ids, col) in [
            ("out", &self.out_off, &self.out_ids, &self.arc_from),
            ("in", &self.inc_off, &self.inc_ids, &self.arc_to),
        ] {
            if off.len() != self.node_count() + 1 {
                return Err(format!("{name} offsets sized for the wrong node count"));
            }
            if ids.len() != self.arc_count() || off[self.node_count()] as usize != self.arc_count()
            {
                return Err(format!(
                    "{name} adjacency holds {} arcs, columns hold {} (stale adjacency?)",
                    ids.len(),
                    self.arc_count()
                ));
            }
            for i in 0..self.node_count() {
                if off[i] > off[i + 1] {
                    return Err(format!("{name} offsets not monotone at node {i}"));
                }
                for &aid in &ids[off[i] as usize..off[i + 1] as usize] {
                    if col[aid.index()].index() != i {
                        return Err(format!(
                            "arc {} listed in the {name} bucket of node {i}",
                            aid.index()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Longest weighted path length from `from` to `to` following arcs, or
    /// `None` if `to` is unreachable from `from`. Used to verify the
    /// Figure 1 timing-preservation property.
    pub fn longest_path(&self, from: NodeId, to: NodeId) -> Option<u64> {
        let n = self.node_count();
        let mut dist: Vec<Option<u64>> = vec![None; n];
        dist[from.index()] = Some(0);
        for i in from.index()..=to.index().min(n - 1) {
            if let Some(d) = dist[i] {
                for arc in self.out_arcs(NodeId::new(i)) {
                    if arc.to.index() <= to.index() {
                        let cand = d + arc.latency as u64;
                        let slot = &mut dist[arc.to.index()];
                        if slot.is_none_or(|v| cand > v) {
                            *slot = Some(cand);
                        }
                    }
                }
            }
        }
        dist[to.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut d = Dag::new(4);
        d.add_arc(NodeId::new(0), NodeId::new(1), DepKind::Raw, 2);
        d.add_arc(NodeId::new(0), NodeId::new(2), DepKind::Raw, 5);
        d.add_arc(NodeId::new(1), NodeId::new(3), DepKind::Raw, 1);
        d.add_arc(NodeId::new(2), NodeId::new(3), DepKind::Raw, 1);
        d
    }

    #[test]
    fn roots_and_leaves() {
        let d = diamond();
        assert_eq!(d.roots(), vec![NodeId::new(0)]);
        assert_eq!(d.leaves(), vec![NodeId::new(3)]);
        assert_eq!(d.num_children(NodeId::new(0)), 2);
        assert_eq!(d.num_parents(NodeId::new(3)), 2);
    }

    /// The unchecked appends rely on the constructors never repeating a
    /// pair; debug builds catch a repeat when the adjacency is built.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate arc n0 -> n2")]
    fn a_pair_pushed_twice_fails_the_debug_check() {
        let mut d = Dag::new(3);
        d.push_arc_distinct(NodeId::new(0), NodeId::new(2), DepKind::Raw, 1);
        d.push_arc_distinct(NodeId::new(1), NodeId::new(2), DepKind::Raw, 1);
        d.push_arc_distinct(NodeId::new(0), NodeId::new(2), DepKind::War, 1);
        d.build_adjacency();
    }

    /// A repeat that sits outside the current batch is not merged by
    /// `merge_or_push_batch`, and the same check catches it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate arc n1 -> n3")]
    fn a_pair_repeated_across_batches_fails_the_debug_check() {
        let mut d = Dag::new(4);
        d.merge_or_push_batch(0, NodeId::new(1), NodeId::new(3), DepKind::Raw, 2);
        d.merge_or_push_batch(1, NodeId::new(0), NodeId::new(2), DepKind::Raw, 2);
        d.merge_or_push_batch(2, NodeId::new(1), NodeId::new(3), DepKind::War, 1);
        d.build_adjacency();
    }

    #[test]
    fn distinct_pairs_pass_the_debug_check_in_a_recycled_dag() {
        let mut d = Dag::new(3);
        d.push_arc_distinct(NodeId::new(0), NodeId::new(1), DepKind::Raw, 1);
        d.push_arc_distinct(NodeId::new(0), NodeId::new(2), DepKind::Raw, 1);
        d.push_arc_distinct(NodeId::new(1), NodeId::new(2), DepKind::Raw, 1);
        d.build_adjacency();
        // Node 1's bucket now holds the child node 0's held before: the
        // marks of the first build must not read as repeats.
        d.reset(3);
        d.push_arc_distinct(NodeId::new(1), NodeId::new(2), DepKind::Raw, 1);
        d.push_arc_distinct(NodeId::new(0), NodeId::new(2), DepKind::Raw, 1);
        d.build_adjacency();
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn duplicate_arcs_merge_keeping_strongest() {
        let mut d = Dag::new(2);
        assert!(d.add_arc(NodeId::new(0), NodeId::new(1), DepKind::War, 1));
        assert!(!d.add_arc(NodeId::new(0), NodeId::new(1), DepKind::Raw, 4));
        assert_eq!(d.arc_count(), 1);
        let a = d.arc_between(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(a.kind, DepKind::Raw);
        assert_eq!(a.latency, 4);
        // Weaker dependence does not downgrade.
        assert!(!d.add_arc(NodeId::new(0), NodeId::new(1), DepKind::War, 1));
        let a = d.arc_between(NodeId::new(0), NodeId::new(1)).unwrap();
        assert_eq!(a.latency, 4);
    }

    #[test]
    fn equal_latency_prefers_raw() {
        let mut d = Dag::new(2);
        d.add_arc(NodeId::new(0), NodeId::new(1), DepKind::War, 1);
        d.add_arc(NodeId::new(0), NodeId::new(1), DepKind::Raw, 1);
        assert_eq!(
            d.arc_between(NodeId::new(0), NodeId::new(1)).unwrap().kind,
            DepKind::Raw
        );
    }

    #[test]
    fn longest_path_takes_heavier_branch() {
        let d = diamond();
        assert_eq!(d.longest_path(NodeId::new(0), NodeId::new(3)), Some(6));
        assert_eq!(d.longest_path(NodeId::new(1), NodeId::new(2)), None);
        assert_eq!(d.longest_path(NodeId::new(0), NodeId::new(0)), Some(0));
    }

    #[test]
    fn descendant_maps_count_transitively() {
        let d = diamond();
        let maps = d.descendant_maps();
        assert_eq!(maps[0].count(), 4); // itself + 3 descendants
        assert_eq!(maps[1].count(), 2);
        assert_eq!(maps[3].count(), 1);
    }

    #[test]
    fn descendant_matrix_matches_maps() {
        let d = diamond();
        let m = d.descendants();
        let maps = d.descendant_maps();
        for (i, map) in maps.iter().enumerate().take(d.node_count()) {
            assert_eq!(m.row_count_ones(i), map.count());
            assert_eq!(
                m.row_iter(i).collect::<Vec<_>>(),
                map.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn invariants_hold_for_forward_arcs() {
        assert!(diamond().check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "self-arc")]
    fn self_arc_panics() {
        let mut d = Dag::new(1);
        d.add_arc(NodeId::new(0), NodeId::new(0), DepKind::Raw, 1);
    }

    #[test]
    fn forest_has_multiple_roots() {
        let mut d = Dag::new(4);
        d.add_arc(NodeId::new(0), NodeId::new(2), DepKind::Raw, 1);
        // 1 and 3 isolated except 1 -> 3
        d.add_arc(NodeId::new(1), NodeId::new(3), DepKind::Raw, 1);
        assert_eq!(d.roots(), vec![NodeId::new(0), NodeId::new(1)]);
        assert_eq!(d.leaves(), vec![NodeId::new(2), NodeId::new(3)]);
    }

    #[test]
    fn oversized_dag_is_a_typed_error() {
        let err = Dag::try_new(MAX_NODES + 1).unwrap_err();
        assert_eq!(
            err,
            ConstructError::TooManyNodes {
                nodes: MAX_NODES + 1
            }
        );
        assert!(err.to_string().contains("16384"));
        assert!(Dag::try_new(MAX_NODES).is_ok());
    }

    #[test]
    fn sortedness_flags_track_append_order() {
        let mut d = Dag::new(4);
        d.add_arc(NodeId::new(0), NodeId::new(1), DepKind::Raw, 1);
        d.add_arc(NodeId::new(0), NodeId::new(2), DepKind::Raw, 1);
        d.add_arc(NodeId::new(1), NodeId::new(3), DepKind::Raw, 1);
        assert!(d.arcs_to_sorted());
        assert!(!d.arcs_from_rev_sorted());
        // Merging an existing pair keeps the flags intact.
        d.add_arc(NodeId::new(0), NodeId::new(1), DepKind::Waw, 9);
        assert!(d.arcs_to_sorted());

        let mut b = Dag::new(4);
        b.add_arc(NodeId::new(2), NodeId::new(3), DepKind::Raw, 1);
        b.add_arc(NodeId::new(1), NodeId::new(2), DepKind::Raw, 1);
        b.add_arc(NodeId::new(0), NodeId::new(3), DepKind::Raw, 1);
        assert!(b.arcs_from_rev_sorted());
        assert!(!b.arcs_to_sorted());

        let mut u = Dag::new(4);
        u.add_arc(NodeId::new(1), NodeId::new(3), DepKind::Raw, 1);
        u.add_arc(NodeId::new(2), NodeId::new(3), DepKind::Raw, 1);
        u.add_arc(NodeId::new(0), NodeId::new(1), DepKind::Raw, 1);
        assert!(!u.arcs_to_sorted());
        assert!(!u.arcs_from_rev_sorted());
    }

    #[test]
    fn columns_mirror_arc_views() {
        let d = diamond();
        for (k, arc) in d.arcs().enumerate() {
            assert_eq!(d.arc_froms()[k], arc.from);
            assert_eq!(d.arc_tos()[k], arc.to);
            assert_eq!(d.arc_latencies()[k], arc.latency);
        }
    }
}

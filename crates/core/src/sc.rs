//! The SC table (§4): simultaneous-congruence values that capture global
//! document order, one value per chunk of nodes.
//!
//! Each record holds the CRT solution `SC` for the congruences
//! `SC ≡ order(v) (mod self(v))` over its chunk's nodes, plus the chunk's
//! maximum self-label (Figure 10's layout). A node's order number is
//! recovered as `SC mod self(v)`; an order-sensitive insertion shifts the
//! order numbers after the insertion point and re-solves exactly the records
//! that cover shifted nodes — that is the paper's low-cost update claim
//! (Figure 18 counts one "relabeling" per touched record).
//!
//! Maintenance is **incremental** (DESIGN.md §7). Each record caches its
//! order column, so scans over clean records are pure `u64` passes with no
//! bignum residue recomputation. An insert then touches a record in one of
//! three ways: a shift that moves every member is `SC + 1` (each residue
//! moves up by one); a shift that moves only some members re-solves the
//! record from its cached orders through [`crt::solve`]; and appending a
//! member folds one congruence in through [`crt::extend`] against the cached
//! product. Records fill in prime-assignment order, so every shifted record
//! except the one straddling the insertion point shifts whole.
//!
//! Every mutation **stages, then commits** (DESIGN.md §6.3). It first runs
//! each fallible step — the fault points, the partial re-solves, the
//! budgeted product and the [`crt::extend`] fold — into locals, and only
//! then writes, with nothing left that can fail: whole-record shifts are
//! applied in place, staged values are swapped in, and the locator and
//! `max_order` are updated last. A call that returns an error has left the
//! table exactly as it found it, so there is nothing to undo.

use crate::crt::{self, CrtError};
use std::collections::HashMap;
use xp_bignum::checked::{mul_within, BudgetError};
use xp_bignum::reduce::Reducer64;
use xp_bignum::{modular, prodtree, UBig};
use xp_testkit::fault::Injected;
use xp_testkit::faultpoint;

/// One SC record: a chunk of nodes folded into a single congruence value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScRecord {
    /// Self-labels (CRT moduli) of the chunk's members, in insertion order.
    members: Vec<u64>,
    /// Cached order column: `orders[i] == sc mod members[i]`, maintained
    /// incrementally so reads and the insert pre-scan never divide.
    orders: Vec<u64>,
    /// Product of the members (the CRT modulus `C`).
    product: UBig,
    /// The simultaneous-congruence value.
    sc: UBig,
    /// Largest self-label in the chunk — the paper's per-record index key.
    max_self: u64,
}

impl ScRecord {
    /// The record's SC value.
    pub fn sc(&self) -> &UBig {
        &self.sc
    }

    /// The record's maximum self-label (Figure 10's "max prime" column).
    pub fn max_self_label(&self) -> u64 {
        self.max_self
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the record covers nothing (never persists).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The chunk's member self-labels (CRT moduli), in insertion order.
    pub fn members(&self) -> &[u64] {
        &self.members
    }

    /// The cached order column (`sc mod memberᵢ`, maintained incrementally).
    pub fn cached_orders(&self) -> &[u64] {
        &self.orders
    }

    /// The chunk's modulus product `C = Π members`.
    pub fn product(&self) -> &UBig {
        &self.product
    }

    /// Solves a record from its members and their orders: the product
    /// through the balanced product tree (within the bit budget), the SC
    /// value through [`crt::solve`]. Builds and member-set changes (relabel,
    /// removal) come through here. The CRT fold multiplies bignums too, so
    /// the `bignum.mul` fault point fires before it, as before each of the
    /// product's multiplications.
    fn solve(members: Vec<u64>, orders: Vec<u64>, budget: u64) -> Result<Self, ScError> {
        let product = prodtree::product_within(&members, budget)?;
        faultpoint!("bignum.mul")?;
        let sc = crt::solve(&members, &orders)?;
        let max_self = members.iter().copied().max().unwrap_or(0);
        Ok(ScRecord { members, orders, product, sc, max_self })
    }

    /// Plans shifting every cached order `>= threshold` up by one, without
    /// writing. Only a partial shift does bignum work (and so can fail, at
    /// the `bignum.mul` fault point among others): it re-solves the record
    /// from the shifted orders.
    fn plan_shift(&self, threshold: u64) -> Result<Shift, ScError> {
        let shifted = self.orders.iter().filter(|&&o| o >= threshold).count();
        Ok(match shifted {
            0 => Shift::None,
            n if n == self.orders.len() => Shift::Whole,
            _ => {
                let orders: Vec<u64> =
                    self.orders.iter().map(|&o| if o >= threshold { o + 1 } else { o }).collect();
                faultpoint!("bignum.mul")?;
                let sc = crt::solve(&self.members, &orders)?;
                Shift::Partial { orders, sc }
            }
        })
    }

    /// Applies a planned shift; cannot fail. When every member shifts, the
    /// new SC is `SC + 1`: it is one more than each old residue, and the
    /// insert pre-scan keeps every shifted order below its self-label, so
    /// `SC + 1 < C`.
    fn apply_shift(&mut self, shift: Shift) {
        match shift {
            Shift::None => {}
            Shift::Whole => {
                for o in &mut self.orders {
                    *o += 1;
                }
                self.sc += UBig::one();
            }
            Shift::Partial { orders, sc } => {
                self.orders = orders;
                self.sc = sc;
            }
        }
    }

    /// Appends a member by folding one congruence into the cached solution
    /// ([`crt::extend`] against the cached product).
    fn append_member(&mut self, m: u64, order: u64, budget: u64) -> Result<(), ScError> {
        let new_product = mul_within(&self.product, &UBig::from(m), budget)?;
        faultpoint!("bignum.mul")?;
        self.sc = crt::extend(&self.sc, &self.product, m, order)?;
        self.product = new_product;
        self.members.push(m);
        self.orders.push(order);
        self.max_self = self.max_self.max(m);
        Ok(())
    }

    fn order_of(&self, self_label: u64) -> Option<u64> {
        let i = self.members.iter().position(|&m| m == self_label)?;
        Some(self.orders[i])
    }
}

/// What an order shift does to one record, planned before anything is
/// written.
enum Shift {
    /// No member's order reaches the threshold.
    None,
    /// Every member shifts: `SC + 1`, applied in place at commit.
    Whole,
    /// Some members shift: the shifted order column and its re-solved SC.
    Partial { orders: Vec<u64>, sc: UBig },
}

/// Report of one order-sensitive insertion into the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScInsertReport {
    /// SC records whose value changed (re-solved CRT systems). The paper
    /// counts each as one relabeling in Figure 18.
    pub records_updated: usize,
}

/// Errors from SC-table maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScError {
    /// The underlying congruence system was unsolvable.
    Crt(CrtError),
    /// A node's order number would reach its self-label, after which
    /// `SC mod self` can no longer recover it (the residue is only defined
    /// below the modulus — a constraint the paper leaves implicit). The
    /// caller must relabel this node with a larger prime
    /// ([`crate::OrderedPrimeDoc`] does so automatically).
    OrderOverflow {
        /// The too-small self-label.
        self_label: u64,
        /// The order number that no longer fits.
        order: u64,
    },
    /// The self-label is already covered by the table (self-labels are CRT
    /// moduli and must be unique).
    DuplicateSelfLabel(u64),
    /// The self-label is not covered by the table.
    UnknownSelfLabel(u64),
    /// `chunk_capacity` was 0: a record must hold at least one node.
    InvalidChunkCapacity,
    /// A record's modulus product exceeded the table's bit-length budget
    /// (see [`ScTable::set_product_bit_budget`]).
    Budget(BudgetError),
    /// An armed [`xp_testkit::fault`] point fired. Mutations stage every
    /// fallible step before their first write, so the table is unchanged.
    FaultInjected(&'static str),
}

impl From<CrtError> for ScError {
    fn from(e: CrtError) -> Self {
        ScError::Crt(e)
    }
}

impl From<BudgetError> for ScError {
    fn from(e: BudgetError) -> Self {
        match e {
            BudgetError::FaultInjected(site) => ScError::FaultInjected(site),
            e => ScError::Budget(e),
        }
    }
}

impl From<Injected> for ScError {
    fn from(e: Injected) -> Self {
        ScError::FaultInjected(e.site)
    }
}

impl std::fmt::Display for ScError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScError::Crt(e) => write!(f, "{e}"),
            ScError::OrderOverflow { self_label, order } => {
                write!(f, "order {order} no longer fits under self-label {self_label}")
            }
            ScError::DuplicateSelfLabel(m) => write!(f, "self-label {m} already covered"),
            ScError::UnknownSelfLabel(m) => write!(f, "self-label {m} not covered"),
            ScError::InvalidChunkCapacity => write!(f, "chunks must hold at least one node"),
            ScError::Budget(e) => write!(f, "{e}"),
            ScError::FaultInjected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for ScError {}

/// The SC table: global document order for a set of coprime self-labels.
///
/// ```
/// use xp_prime::ScTable;
///
/// // Figure 9: self-labels 2,3,5,7,11,13 at orders 1..=6 fold into 29243.
/// let items = [(2, 1), (3, 2), (5, 3), (7, 4), (11, 5), (13, 6)];
/// let table = ScTable::build(10, &items).unwrap();
/// assert_eq!(table.records()[0].sc().to_string(), "29243");
/// assert_eq!(table.order_of(5), Some(3)); // 29243 mod 5
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScTable {
    chunk_capacity: usize,
    records: Vec<ScRecord>,
    /// self-label → record index (the paper navigates by max-prime ranges;
    /// an exact map is equivalent and stays correct after insertions).
    locator: HashMap<u64, usize>,
    /// Upper bound on any covered order number (exact after build/insert,
    /// conservative after removals, which never shift orders). Lets an
    /// insertion past every covered order skip the shift scan entirely.
    max_order: u64,
    /// Ceiling on any record's modulus product, in bits.
    product_bit_budget: u64,
}

/// Default ceiling on a record's modulus product: 1 Mibit. A chunk of k
/// self-labels costs ≈ Σ log₂(mᵢ) bits, so this allows tens of thousands of
/// 64-bit members per record — far past any sane chunk capacity — while
/// stopping runaway growth long before it exhausts memory.
pub const DEFAULT_PRODUCT_BIT_BUDGET: u64 = 1 << 20;

impl ScTable {
    /// Builds a table from `(self_label, order)` pairs, chunking every
    /// `chunk_capacity` consecutive pairs into one SC record (the paper's
    /// §5.4 experiment uses capacity 5).
    ///
    /// Self-labels must be pairwise coprime (Theorem 1), > 1, and each
    /// strictly greater than its order number (so `SC mod self` recovers the
    /// order — automatically true when primes are assigned in document
    /// order, since the n-th prime exceeds n).
    pub fn build(chunk_capacity: usize, items: &[(u64, u64)]) -> Result<Self, ScError> {
        if chunk_capacity == 0 {
            return Err(ScError::InvalidChunkCapacity);
        }
        for &(m, o) in items {
            if o >= m {
                return Err(ScError::OrderOverflow { self_label: m, order: o });
            }
        }
        let mut table = ScTable {
            chunk_capacity,
            records: Vec::with_capacity(items.len().div_ceil(chunk_capacity)),
            locator: HashMap::with_capacity(items.len()),
            max_order: items.iter().map(|&(_, o)| o).max().unwrap_or(0),
            product_bit_budget: DEFAULT_PRODUCT_BIT_BUDGET,
        };
        // Each chunk's record — the product tree and SC fold — depends only
        // on that chunk, so records solve concurrently on the xp_par pool.
        // Merging in chunk order afterwards reproduces the sequential error
        // precedence exactly: chunk i's solve error surfaces before chunk
        // i's duplicate-label check, which surfaces before anything about
        // chunk i+1. Fault-injection state (hit counters, PRNG) is
        // per-thread, so when any site is armed the chunks solve
        // sequentially on this thread instead — an Nth trigger must count
        // `bignum.mul` hits in document order.
        let budget = table.product_bit_budget;
        let solve = |chunk: &[(u64, u64)]| {
            ScRecord::solve(
                chunk.iter().map(|&(m, _)| m).collect(),
                chunk.iter().map(|&(_, o)| o).collect(),
                budget,
            )
        };
        let chunks: Vec<&[(u64, u64)]> = items.chunks(chunk_capacity).collect();
        let solved: Vec<Result<ScRecord, ScError>> = if xp_testkit::fault::active() {
            chunks.iter().map(|chunk| solve(chunk)).collect()
        } else {
            xp_par::par_map(&chunks, |chunk| solve(chunk))
        };
        for record in solved {
            let record = record?;
            let idx = table.records.len();
            for &m in &record.members {
                if table.locator.insert(m, idx).is_some() {
                    return Err(ScError::DuplicateSelfLabel(m));
                }
            }
            table.records.push(record);
        }
        Ok(table)
    }

    /// Replaces the ceiling (in bits) on any record's modulus product;
    /// mutations that would exceed it fail with [`ScError::Budget`] instead
    /// of allocating without bound. Default:
    /// [`DEFAULT_PRODUCT_BIT_BUDGET`].
    pub fn set_product_bit_budget(&mut self, bits: u64) {
        self.product_bit_budget = bits;
    }

    /// Number of covered nodes.
    pub fn len(&self) -> usize {
        self.locator.len()
    }

    /// `true` iff no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.locator.is_empty()
    }

    /// Number of SC records.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// The records, for display (Figures 10 and 12 print `(SC, max prime)`).
    pub fn records(&self) -> &[ScRecord] {
        &self.records
    }

    /// The order number of the node with this self-label, or `None` if the
    /// label is not covered. A pure `u64` read off the cached order column.
    pub fn order_of(&self, self_label: u64) -> Option<u64> {
        let &idx = self.locator.get(&self_label)?;
        self.records[idx].order_of(self_label)
    }

    /// The index of the record covering this self-label, if any.
    pub fn locate(&self, self_label: u64) -> Option<usize> {
        self.locator.get(&self_label).copied()
    }

    /// All `(self_label, order)` pairs, unordered.
    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.records
            .iter()
            .flat_map(|r| r.members.iter().copied().zip(r.orders.iter().copied()))
    }

    /// Verifies every record's cached columns against their definitions —
    /// `orders[i] == SC mod mᵢ`, `product == Π mᵢ`, `SC < product` — plus the
    /// locator and the `max_order` bound. The incremental maintenance paths
    /// must preserve these exactly; the differential tests call this after
    /// every mutation, failed ones included. Costs O(n) bignum divisions.
    pub fn check_cached_columns(&self) -> Result<(), String> {
        for (idx, r) in self.records.iter().enumerate() {
            if r.orders.len() != r.members.len() {
                return Err(format!("record {idx}: ragged cached columns"));
            }
            if prodtree::product(&r.members) != r.product {
                return Err(format!("record {idx}: cached product is not Π members"));
            }
            if !r.members.is_empty() && r.sc >= r.product {
                return Err(format!("record {idx}: SC outside its modulus"));
            }
            if r.max_self != r.members.iter().copied().max().unwrap_or(0) {
                return Err(format!("record {idx}: stale max_self key"));
            }
            for (&m, &o) in r.members.iter().zip(&r.orders) {
                let residue = Reducer64::new(m).rem(&r.sc);
                if residue != o {
                    return Err(format!("record {idx}: cached order of member {m} is {o}, SC says {residue}"));
                }
                if o > self.max_order {
                    return Err(format!("member {m}: order {o} above the max_order bound {}", self.max_order));
                }
                if self.locator.get(&m) != Some(&idx) {
                    return Err(format!("locator does not map member {m} to record {idx}"));
                }
            }
        }
        let covered: usize = self.records.iter().map(|r| r.members.len()).sum();
        if covered != self.locator.len() {
            return Err(format!("locator holds {} labels, records cover {covered}", self.locator.len()));
        }
        Ok(())
    }

    /// Inserts a node with a fresh (unused, coprime) self-label at order
    /// position `order`: every covered node whose order is `>= order` shifts
    /// up by one, and exactly the records covering shifted nodes (plus the
    /// record receiving the new member) are re-solved.
    ///
    /// Fails with [`ScError::OrderOverflow`] if a shifted node's new order
    /// would reach its self-label; relabel that node with a larger prime
    /// and retry. Every failure — that one, an injected fault, a budget
    /// overrun — leaves the table unchanged: the insert computes each
    /// touched record's new value before it writes the first one.
    pub fn insert(&mut self, self_label: u64, order: u64) -> Result<ScInsertReport, ScError> {
        faultpoint!("sc.insert")?;
        if self.locator.contains_key(&self_label) {
            return Err(ScError::DuplicateSelfLabel(self_label));
        }
        if order >= self_label {
            return Err(ScError::OrderOverflow { self_label, order });
        }
        // Existing orders shift only when the new one lands at or below the
        // current maximum; a tail append skips this scan outright. When it
        // does run, it is a pure u64 pass over the cached order columns — no
        // bignum residue is recomputed for clean records.
        let shifts_orders = order <= self.max_order && !self.is_empty();
        if shifts_orders {
            for record in &self.records {
                for (&m, &o) in record.members.iter().zip(&record.orders) {
                    if o >= order && o + 1 >= m {
                        return Err(ScError::OrderOverflow { self_label: m, order: o + 1 });
                    }
                }
            }
        }

        // Choose the receiving record: the paper appends to the record with
        // the largest max prime (the newest), starting a fresh record when
        // it is full.
        let target = match self.records.last() {
            Some(last) if last.len() < self.chunk_capacity => {
                for &m in &last.members {
                    if !modular::coprime(&UBig::from(self_label), &UBig::from(m)) {
                        return Err(CrtError::NotCoprime { a: self_label, b: m }.into());
                    }
                }
                self.records.len() - 1
            }
            _ => self.records.len(),
        };

        // Stage: every fallible step, in record order, into locals. A whole
        // shift is only noted; the receiving record is worked on a copy.
        let mut shifts = Vec::new();
        if shifts_orders {
            for (idx, record) in self.records[..target].iter().enumerate() {
                if record.orders.iter().all(|&o| o < order) {
                    continue;
                }
                faultpoint!("sc.insert.record")?;
                shifts.push((idx, record.plan_shift(order)?));
            }
        }
        faultpoint!("sc.insert.record")?;
        let mut receiving = match self.records.get(target) {
            Some(record) => record.clone(),
            None => ScRecord {
                members: Vec::new(),
                orders: Vec::new(),
                product: UBig::one(),
                sc: UBig::zero(),
                max_self: 0,
            },
        };
        if shifts_orders {
            let shift = receiving.plan_shift(order)?;
            receiving.apply_shift(shift);
        }
        receiving.append_member(self_label, order, self.product_bit_budget)?;

        // Commit: nothing below can fail.
        let updated = shifts.len() + 1;
        for (idx, shift) in shifts {
            self.records[idx].apply_shift(shift);
        }
        if target == self.records.len() {
            self.records.push(receiving);
        } else {
            self.records[target] = receiving;
        }
        self.locator.insert(self_label, target);
        // A shift pushes the previous maximum up by one; a tail append sets
        // it.
        self.max_order =
            if shifts_orders { self.max_order + 1 } else { self.max_order.max(order) };
        Ok(ScInsertReport { records_updated: updated })
    }

    /// Swaps a member's self-label for a new one (same order number): the
    /// escape hatch for [`ScError::OrderOverflow`]. Exactly one record is
    /// re-solved. The new label must be coprime with the record's other
    /// members and larger than the member's order.
    pub fn replace_self_label(&mut self, old: u64, new: u64) -> Result<(), ScError> {
        if self.locator.contains_key(&new) {
            return Err(ScError::DuplicateSelfLabel(new));
        }
        let idx = *self.locator.get(&old).ok_or(ScError::UnknownSelfLabel(old))?;
        let order = self.records[idx].order_of(old).ok_or(ScError::UnknownSelfLabel(old))?;
        if order >= new {
            return Err(ScError::OrderOverflow { self_label: new, order });
        }
        for &m in &self.records[idx].members {
            if m != old && !modular::coprime(&UBig::from(new), &UBig::from(m)) {
                return Err(CrtError::NotCoprime { a: new, b: m }.into());
            }
        }

        let record = &self.records[idx];
        let members = record.members.iter().map(|&m| if m == old { new } else { m }).collect();
        let orders = record.orders.clone();
        faultpoint!("sc.relabel")?;
        self.records[idx] = ScRecord::solve(members, orders, self.product_bit_budget)?;
        self.locator.remove(&old);
        self.locator.insert(new, idx);
        Ok(())
    }

    /// Storage footprint of the table in bits: for each record, the SC
    /// value plus the max-prime index key (Figure 10's two columns).
    ///
    /// The paper never charges this cost against the scheme; exposing it
    /// lets the `ablation_sc_storage` experiment do the honest accounting:
    /// a record over k self-labels stores ≈ Σ log(mᵢ) bits, so the whole
    /// table costs about as much as one extra label per node, independent
    /// of chunk size.
    pub fn storage_bits(&self) -> u64 {
        self.records
            .iter()
            .map(|r| {
                let sc_bits = r.sc.bit_len().max(1);
                let key_bits = u64::from(64 - r.max_self.max(1).leading_zeros());
                sc_bits + key_bits
            })
            .sum()
    }

    /// Serializes the table: chunk capacity, then per record the member
    /// list and the SC value — the persistent form of Figure 10's table.
    pub fn encode(&self) -> Vec<u8> {
        use xp_labelkit::codec::{write_bytes, write_varint};
        let mut out = Vec::new();
        write_varint(&mut out, self.chunk_capacity as u64);
        write_varint(&mut out, self.records.len() as u64);
        for record in &self.records {
            write_varint(&mut out, record.members.len() as u64);
            for &m in &record.members {
                write_varint(&mut out, m);
            }
            write_bytes(&mut out, &record.sc.to_le_bytes());
        }
        out
    }

    /// Deserializes a table produced by [`ScTable::encode`]. The product
    /// and index columns are recomputed; each record's SC value is checked
    /// against its modulus.
    pub fn decode(mut input: &[u8]) -> Result<Self, xp_labelkit::CodecError> {
        use xp_labelkit::codec::{read_bytes, read_varint, CodecError};
        let input = &mut input;
        let chunk_capacity = read_varint(input)? as usize;
        if chunk_capacity == 0 {
            return Err(CodecError::Corrupt("zero chunk capacity"));
        }
        let record_count = read_varint(input)? as usize;
        let mut records = Vec::with_capacity(record_count.min(1 << 16));
        let mut locator = HashMap::new();
        for idx in 0..record_count {
            let len = read_varint(input)? as usize;
            let mut members = Vec::with_capacity(len.min(1 << 12));
            for _ in 0..len {
                let m = read_varint(input)?;
                if m < 2 {
                    return Err(CodecError::Corrupt("self-label below 2"));
                }
                if locator.insert(m, idx).is_some() {
                    return Err(CodecError::Corrupt("duplicate self-label"));
                }
                members.push(m);
            }
            let product = prodtree::product(&members);
            let sc = UBig::from_le_bytes(read_bytes(input)?);
            if !members.is_empty() && sc >= product {
                return Err(CodecError::Corrupt("SC value outside its modulus"));
            }
            let orders: Vec<u64> = members.iter().map(|&m| Reducer64::new(m).rem(&sc)).collect();
            // Re-solving from the orders gives `sc` back, or names a pair of
            // members that share a factor.
            crt::solve(&members, &orders)
                .map_err(|_| CodecError::Corrupt("members are not pairwise coprime"))?;
            records.push(ScRecord {
                max_self: members.iter().copied().max().unwrap_or(0),
                members,
                orders,
                product,
                sc,
            });
        }
        if !input.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        let max_order =
            records.iter().flat_map(|r| r.orders.iter().copied()).max().unwrap_or(0);
        Ok(ScTable {
            chunk_capacity,
            records,
            locator,
            max_order,
            product_bit_budget: DEFAULT_PRODUCT_BIT_BUDGET,
        })
    }

    /// Removes a node. Deletion shifts no order numbers (§4.2), so only the
    /// record that held the member is re-solved. Returns `false` if the
    /// label was not covered. A failed removal leaves the table unchanged.
    pub fn remove(&mut self, self_label: u64) -> Result<bool, ScError> {
        let Some(&idx) = self.locator.get(&self_label) else {
            return Ok(false);
        };
        let record = &self.records[idx];
        let (members, orders) = record
            .members
            .iter()
            .copied()
            .zip(record.orders.iter().copied())
            .filter(|&(m, _)| m != self_label)
            .unzip();
        faultpoint!("sc.remove")?;
        self.records[idx] = ScRecord::solve(members, orders, self.product_bit_budget)?;
        self.locator.remove(&self_label);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 9 tree's six nodes: self-labels 2..13, orders 1..6.
    fn figure9_items() -> Vec<(u64, u64)> {
        vec![(2, 1), (3, 2), (5, 3), (7, 4), (11, 5), (13, 6)]
    }

    #[test]
    fn single_record_reproduces_figure9() {
        let t = ScTable::build(10, &figure9_items()).unwrap();
        assert_eq!(t.record_count(), 1);
        assert_eq!(t.records()[0].sc(), &UBig::from(29243u64));
        for (m, o) in figure9_items() {
            assert_eq!(t.order_of(m), Some(o));
        }
        assert_eq!(t.order_of(17), None);
    }

    #[test]
    fn chunked_table_reproduces_figure10() {
        let t = ScTable::build(5, &figure9_items()).unwrap();
        assert_eq!(t.record_count(), 2);
        assert_eq!(t.records()[0].sc(), &UBig::from(1523u64));
        assert_eq!(t.records()[0].max_self_label(), 11);
        assert_eq!(t.records()[1].sc(), &UBig::from(6u64));
        assert_eq!(t.records()[1].max_self_label(), 13);
        for (m, o) in figure9_items() {
            assert_eq!(t.order_of(m), Some(o), "self-label {m}");
        }
    }

    #[test]
    fn insertion_reproduces_figure11_and_12() {
        // §4.2: insert self-label 17 at order 3; afterwards the second
        // record satisfies x≡7 (13), x≡3 (17) and the first shifts orders
        // [1,2,3,4,5] → [1,2,4,5,6].
        let mut t = ScTable::build(5, &figure9_items()).unwrap();
        let report = t.insert(17, 3).unwrap();
        assert_eq!(report.records_updated, 2, "both records touched");
        assert_eq!(t.order_of(17), Some(3));
        assert_eq!(t.order_of(2), Some(1));
        assert_eq!(t.order_of(3), Some(2));
        assert_eq!(t.order_of(5), Some(4));
        assert_eq!(t.order_of(7), Some(5));
        assert_eq!(t.order_of(11), Some(6));
        assert_eq!(t.order_of(13), Some(7));
        let second = &t.records()[1];
        assert_eq!(second.sc().rem_u64(13), 7);
        assert_eq!(second.sc().rem_u64(17), 3);
        assert_eq!(second.max_self_label(), 17);
    }

    #[test]
    fn append_at_end_touches_one_record() {
        let mut t = ScTable::build(5, &figure9_items()).unwrap();
        // Order 7 is past every existing node: nothing shifts; only the
        // receiving record re-solves.
        let report = t.insert(17, 7).unwrap();
        assert_eq!(report.records_updated, 1);
        assert_eq!(t.order_of(17), Some(7));
        assert_eq!(t.order_of(13), Some(6), "untouched");
    }

    #[test]
    fn insert_into_full_last_record_opens_a_new_one() {
        let items: Vec<(u64, u64)> = vec![(2, 1), (3, 2), (5, 3), (7, 4), (11, 5)];
        let mut t = ScTable::build(5, &items).unwrap();
        assert_eq!(t.record_count(), 1);
        t.insert(13, 6).unwrap();
        assert_eq!(t.record_count(), 2);
        assert_eq!(t.order_of(13), Some(6));
    }

    /// Items with enough modulus headroom that front-insertions never hit
    /// [`ScError::OrderOverflow`].
    fn roomy_items() -> Vec<(u64, u64)> {
        vec![(7, 1), (11, 2), (13, 3), (17, 4), (19, 5), (23, 6)]
    }

    #[test]
    fn insert_at_front_touches_every_record() {
        let mut t = ScTable::build(2, &roomy_items()).unwrap(); // 3 records
        let before = t.record_count();
        let report = t.insert(29, 1).unwrap();
        // All 3 old records shift, plus the new one created for the member.
        assert_eq!(report.records_updated, before + 1);
        assert_eq!(t.order_of(29), Some(1));
        assert_eq!(t.order_of(7), Some(2));
        assert_eq!(t.order_of(23), Some(7));
    }

    #[test]
    fn repeated_insertions_keep_a_consistent_permutation() {
        let mut t = ScTable::build(3, &roomy_items()).unwrap();
        for (label, order) in [(29u64, 2u64), (31, 2), (37, 9), (41, 1)] {
            t.insert(label, order).unwrap();
        }
        let mut orders: Vec<u64> = t.entries().map(|(_, o)| o).collect();
        orders.sort_unstable();
        assert_eq!(orders, (1..=10).collect::<Vec<u64>>(), "orders form 1..=n");
    }

    #[test]
    fn order_overflow_is_detected_before_any_mutation() {
        // Figure 9's items: shifting the node with self-label 3 from order 2
        // to 3 would make its order unrecoverable (3 mod 3 = 0).
        let mut t = ScTable::build(5, &figure9_items()).unwrap();
        let err = t.insert(17, 2).unwrap_err();
        assert_eq!(err, ScError::OrderOverflow { self_label: 3, order: 3 });
        // Nothing changed.
        for (m, o) in figure9_items() {
            assert_eq!(t.order_of(m), Some(o));
        }
        assert_eq!(t.order_of(17), None);
    }

    #[test]
    fn overflow_of_the_new_member_itself_is_detected() {
        let mut t = ScTable::build(5, &roomy_items()).unwrap();
        let err = t.insert(5, 7).unwrap_err();
        assert_eq!(err, ScError::OrderOverflow { self_label: 5, order: 7 });
    }

    #[test]
    fn build_rejects_order_at_or_above_self_label() {
        let err = ScTable::build(5, &[(3, 3)]).unwrap_err();
        assert_eq!(err, ScError::OrderOverflow { self_label: 3, order: 3 });
    }

    #[test]
    fn replace_self_label_unblocks_an_overflowing_insert() {
        let mut t = ScTable::build(5, &figure9_items()).unwrap();
        assert!(t.insert(17, 2).is_err());
        // Relabel the offending node (self 3, order 2) with a roomier prime.
        t.replace_self_label(3, 19).unwrap();
        assert_eq!(t.order_of(19), Some(2));
        assert_eq!(t.order_of(3), None);
        let report = t.insert(17, 2).unwrap();
        assert!(report.records_updated >= 1);
        assert_eq!(t.order_of(17), Some(2));
        assert_eq!(t.order_of(19), Some(3));
        assert_eq!(t.order_of(2), Some(1), "unshifted");
    }

    #[test]
    fn replace_self_label_touches_one_record() {
        let mut t = ScTable::build(2, &roomy_items()).unwrap();
        let before: Vec<UBig> = t.records().iter().map(|r| r.sc().clone()).collect();
        t.replace_self_label(11, 43).unwrap();
        let after: Vec<UBig> = t.records().iter().map(|r| r.sc().clone()).collect();
        let changed = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 1);
        assert_eq!(t.order_of(43), Some(2));
    }

    #[test]
    fn removal_touches_only_its_record_and_keeps_others() {
        let mut t = ScTable::build(5, &figure9_items()).unwrap();
        assert!(t.remove(3).unwrap());
        assert_eq!(t.order_of(3), None);
        // Gap remains: others keep their order numbers (§4.2).
        assert_eq!(t.order_of(2), Some(1));
        assert_eq!(t.order_of(5), Some(3));
        assert_eq!(t.order_of(13), Some(6));
        assert!(!t.remove(3).unwrap(), "double removal is a no-op");
    }

    #[test]
    fn rejects_noncoprime_members() {
        assert!(ScTable::build(5, &[(4, 1), (6, 2)]).is_err());
        let mut t = ScTable::build(5, &[(4, 1), (9, 2)]).unwrap(); // 4 and 9 are coprime
        assert!(t.insert(6, 3).is_err(), "6 shares factors with both");
    }

    #[test]
    fn duplicate_self_label_is_a_typed_error() {
        let mut t = ScTable::build(5, &figure9_items()).unwrap();
        let pristine = t.clone();
        assert_eq!(t.insert(13, 1).unwrap_err(), ScError::DuplicateSelfLabel(13));
        // Nothing changed.
        assert_eq!(t, pristine);
        for (m, o) in figure9_items() {
            assert_eq!(t.order_of(m), Some(o));
        }
    }

    #[test]
    fn replace_errors_are_typed() {
        let mut t = ScTable::build(5, &figure9_items()).unwrap();
        assert_eq!(t.replace_self_label(99, 101).unwrap_err(), ScError::UnknownSelfLabel(99));
        assert_eq!(t.replace_self_label(3, 13).unwrap_err(), ScError::DuplicateSelfLabel(13));
        for (m, o) in figure9_items() {
            assert_eq!(t.order_of(m), Some(o), "failed replace mutated nothing");
        }
    }

    #[test]
    fn zero_chunk_capacity_is_a_typed_error() {
        assert_eq!(ScTable::build(0, &[]).unwrap_err(), ScError::InvalidChunkCapacity);
    }

    #[test]
    fn duplicate_items_in_build_are_rejected() {
        // Across chunks, duplicates evade the per-chunk coprimality check;
        // the locator catches them.
        let items = [(7u64, 1u64), (11, 2), (7, 3)];
        assert_eq!(ScTable::build(2, &items).unwrap_err(), ScError::DuplicateSelfLabel(7));
    }

    #[test]
    fn product_budget_refuses_runaway_growth() {
        let mut t = ScTable::build(10, &figure9_items()).unwrap();
        t.set_product_bit_budget(16); // current product 30030 ≈ 15 bits
        let pristine = t.clone();
        let err = t.insert(17, 7).unwrap_err();
        assert!(matches!(err, ScError::Budget(_)), "{err:?}");
        // The refusal struck while staging the receiving record: nothing
        // was written.
        assert_eq!(t, pristine);
        for (m, o) in figure9_items() {
            assert_eq!(t.order_of(m), Some(o));
        }
        assert_eq!(t.order_of(17), None);
    }

    #[test]
    fn mid_insert_fault_leaves_the_table_unchanged() {
        use xp_testkit::fault;
        let mut t = ScTable::build(2, &roomy_items()).unwrap(); // 3 records
        let pristine = t.clone();
        // Fire on the second record of a front insertion, which touches
        // every record: the first record's shift is already staged.
        fault::arm("sc.insert.record:2");
        let err = t.insert(29, 1).unwrap_err();
        fault::reset();
        assert_eq!(err, ScError::FaultInjected("sc.insert.record"));
        assert_eq!(t, pristine);
        for (m, o) in pristine.entries() {
            assert_eq!(t.order_of(m), Some(o), "order of {m}");
        }
        assert_eq!(t.order_of(29), None);
        // And the table accepts the same insert cleanly.
        t.insert(29, 1).unwrap();
        assert_eq!(t.order_of(29), Some(1));
        assert_eq!(t.order_of(7), Some(2));
    }

    #[test]
    fn bignum_mul_fires_inside_every_crt_fold() {
        use xp_testkit::fault;
        // Records [7, 11, 13] at orders 1..=3 and [17, 19] at 4..=5. At
        // order 2 the first record re-solves a partial shift and the second
        // (receiving) shifts whole; at order 5 the receiving record
        // re-solves a partial shift. Either way an insert hits the site
        // three times: one partial re-solve, the product multiply and the
        // crt::extend fold. Each hit fails typed and leaves the table as it
        // was.
        for order in [2, 5] {
            let mut t = ScTable::build(3, &roomy_items()[..5]).unwrap();
            let pristine = t.clone();
            for hit in 1..=3 {
                fault::arm(&format!("bignum.mul:{hit}"));
                let err = t.insert(29, order).unwrap_err();
                fault::reset();
                assert_eq!(err, ScError::FaultInjected("bignum.mul"), "order {order} hit {hit}");
                assert_eq!(t, pristine, "order {order} hit {hit}");
            }
            fault::arm("bignum.mul:4");
            t.insert(29, order).unwrap();
            fault::reset();
            t.check_cached_columns().unwrap();
            assert_eq!(t.order_of(29), Some(order));
        }
        // A removal re-solves its record: one product multiply over the two
        // remaining members, then the CRT fold.
        let mut t = ScTable::build(3, &roomy_items()).unwrap();
        let pristine = t.clone();
        fault::arm("bignum.mul:2");
        assert_eq!(t.remove(11).unwrap_err(), ScError::FaultInjected("bignum.mul"));
        fault::reset();
        assert_eq!(t, pristine);
    }

    #[test]
    fn next_mutation_succeeds_after_a_faulted_insert() {
        use xp_testkit::fault;
        let mut t = ScTable::build(2, &roomy_items()).unwrap();
        let pristine = t.clone();
        fault::arm("sc.insert.record:2");
        assert!(t.insert(29, 1).is_err());
        fault::reset();
        assert_eq!(t, pristine);
        // No repair step: the next insert runs on the untouched table.
        t.insert(29, 1).unwrap();
        t.check_cached_columns().unwrap();
        assert_eq!(t.order_of(29), Some(1));
        assert_eq!(t.order_of(23), Some(7));
    }

    #[test]
    fn faulted_remove_and_relabel_leave_the_table_unchanged() {
        use xp_testkit::fault;
        let mut t = ScTable::build(3, &roomy_items()).unwrap();
        let pristine = t.clone();
        fault::arm("sc.remove:1");
        assert_eq!(t.remove(11).unwrap_err(), ScError::FaultInjected("sc.remove"));
        fault::reset();
        assert_eq!(t, pristine);
        assert_eq!(t.order_of(11), Some(2), "remove left no trace");

        fault::arm("sc.relabel:1");
        let err = t.replace_self_label(11, 43).unwrap_err();
        fault::reset();
        assert_eq!(err, ScError::FaultInjected("sc.relabel"));
        assert_eq!(t, pristine);
        assert_eq!(t.order_of(11), Some(2), "relabel left no trace");
        assert_eq!(t.order_of(43), None);
        // Both mutations succeed once disarmed.
        t.replace_self_label(11, 43).unwrap();
        assert!(t.remove(43).unwrap());
    }

    #[test]
    fn empty_table() {
        let t = ScTable::build(5, &[]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.record_count(), 0);
        assert_eq!(t.order_of(2), None);
    }

    #[test]
    fn storage_bits_track_the_congruence_products() {
        let t = ScTable::build(6, &figure9_items()).unwrap();
        // One record: SC = 29243 (15 bits) + key 13 (4 bits).
        assert_eq!(t.storage_bits(), 15 + 4);
        // Splitting into more records adds keys but shrinks SC values; the
        // total stays within a small factor.
        let t5 = ScTable::build(5, &figure9_items()).unwrap();
        assert!(t5.storage_bits() >= 15, "{}", t5.storage_bits());
        let t1 = ScTable::build(1, &figure9_items()).unwrap();
        assert!(t1.storage_bits() < 64, "{}", t1.storage_bits());
    }

    #[test]
    fn encode_decode_round_trips() {
        for capacity in [1usize, 3, 5, 10] {
            let t = ScTable::build(capacity, &figure9_items()).unwrap();
            let decoded = ScTable::decode(&t.encode()).unwrap();
            assert_eq!(decoded.record_count(), t.record_count());
            for (m, o) in figure9_items() {
                assert_eq!(decoded.order_of(m), Some(o), "capacity {capacity}, label {m}");
            }
            // And the decoded table stays updatable.
            let mut decoded = decoded;
            decoded.insert(17, 7).unwrap();
            assert_eq!(decoded.order_of(17), Some(7));
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let t = ScTable::build(5, &figure9_items()).unwrap();
        let bytes = t.encode();
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(9);
        assert!(ScTable::decode(&long).is_err());
        // Truncation at every prefix either errors or yields fewer nodes.
        for cut in 0..bytes.len() {
            if let Ok(table) = ScTable::decode(&bytes[..cut]) {
                assert!(table.len() < 6, "cut {cut} silently kept everything");
            }
        }
    }

    #[test]
    fn decode_rejects_corrupt_records() {
        use xp_labelkit::codec::{write_bytes, write_varint};
        use xp_labelkit::CodecError::Corrupt;
        // A chunk-capacity-5 table of one record holding `members` and `sc`.
        let encode = |members: &[u64], sc: u64| {
            let mut out = Vec::new();
            write_varint(&mut out, 5);
            write_varint(&mut out, 1);
            write_varint(&mut out, members.len() as u64);
            for &m in members {
                write_varint(&mut out, m);
            }
            write_bytes(&mut out, &UBig::from(sc).to_le_bytes());
            out
        };
        assert!(ScTable::decode(&encode(&[5, 7], 12)).is_ok(), "the well-formed control");
        assert_eq!(
            ScTable::decode(&encode(&[6, 9], 5)).unwrap_err(),
            Corrupt("members are not pairwise coprime")
        );
        assert_eq!(ScTable::decode(&encode(&[5, 7], 35)).unwrap_err(), Corrupt("SC value outside its modulus"));
        assert_eq!(ScTable::decode(&encode(&[5, 1], 3)).unwrap_err(), Corrupt("self-label below 2"));
    }

    #[test]
    fn capacity_one_degenerates_to_per_node_records() {
        let t = ScTable::build(1, &figure9_items()).unwrap();
        assert_eq!(t.record_count(), 6);
        for (m, o) in figure9_items() {
            assert_eq!(t.order_of(m), Some(o));
        }
    }

    #[test]
    fn append_member_matches_build() {
        // Folding one congruence in (crt::extend against the cached
        // product) must be indistinguishable from building the widened
        // chunk from scratch.
        let mut t = ScTable::build(10, &figure9_items()).unwrap();
        t.insert(17, 7).unwrap();
        t.insert(19, 8).unwrap();
        let mut items = figure9_items();
        items.push((17, 7));
        items.push((19, 8));
        let built = ScTable::build(10, &items).unwrap();
        assert_eq!(t.records[0], built.records[0]);
    }

    #[test]
    fn cached_columns_stay_consistent_through_mutations() {
        let mut t = ScTable::build(3, &roomy_items()).unwrap();
        t.check_cached_columns().unwrap();
        t.insert(71, 1).unwrap(); // front insert: shifts every record
        t.check_cached_columns().unwrap();
        t.insert(73, 9).unwrap(); // tail append: touches one record
        t.check_cached_columns().unwrap();
        t.replace_self_label(23, 79).unwrap();
        t.check_cached_columns().unwrap();
        assert!(t.remove(13).unwrap());
        t.check_cached_columns().unwrap();
        t.insert(83, 2).unwrap(); // shift again after the removal
        t.check_cached_columns().unwrap();
        let decoded = ScTable::decode(&t.encode()).unwrap();
        decoded.check_cached_columns().unwrap();
    }

    #[test]
    fn tail_append_skips_the_shift_scan() {
        // Appending past every covered order must touch only the receiving
        // record, even when many records exist.
        let items: Vec<(u64, u64)> =
            xp_primes::first_primes(40).into_iter().zip(1..).collect();
        let mut t = ScTable::build(5, &items).unwrap();
        let report = t.insert(409, 41).unwrap();
        assert_eq!(report.records_updated, 1);
        t.check_cached_columns().unwrap();
    }

    use xp_testkit::propcheck::{u64s, usizes, vec_of};
    use xp_testkit::{prop_assert_eq, propcheck};

    propcheck! {
        #![config(cases = 64)]

        /// A planned and applied shift must leave a record equal to the one
        /// `ScTable::build` solves for the shifted orders, with consistent cached columns,
        /// whether no member, every member or only some members shift.
        /// Every case runs its random threshold plus one threshold per kind:
        /// the lowest order (all shift), the highest (some shift, since the
        /// orders are distinct) and one past it (none shift).
        #[test]
        fn delta_shift_matches_full_resolve(
            gaps in vec_of(u64s(1..8), 2..10),
            rotate in usizes(0..10),
            threshold in u64s(0..64),
        ) {
            // Distinct orders in an unsorted insertion order: prefix sums of
            // the gaps, rotated. They stay below 64 and the members are the
            // primes from 67 on, so a shift never overflows.
            let mut orders: Vec<u64> = gaps
                .iter()
                .scan(0, |sum, &g| {
                    *sum += g;
                    Some(*sum)
                })
                .collect();
            orders.rotate_left(rotate % gaps.len());
            let low = orders.iter().copied().min().unwrap();
            let high = orders.iter().copied().max().unwrap();
            let primes = xp_primes::first_primes(18 + orders.len());
            let items: Vec<(u64, u64)> = primes[18..].iter().copied().zip(orders).collect();
            for t in [threshold, low, high, high + 1] {
                let mut shifted = ScTable::build(items.len(), &items).unwrap();
                let shift = shifted.records[0].plan_shift(t).unwrap();
                shifted.records[0].apply_shift(shift);
                let resolved: Vec<(u64, u64)> =
                    items.iter().map(|&(m, o)| (m, if o >= t { o + 1 } else { o })).collect();
                let want = ScTable::build(items.len(), &resolved).unwrap();
                prop_assert_eq!(&shifted.records[0], &want.records[0], "threshold {}", t);
                shifted.max_order = want.max_order;
                prop_assert_eq!(shifted.check_cached_columns(), Ok(()), "threshold {}", t);
            }
        }
    }
}

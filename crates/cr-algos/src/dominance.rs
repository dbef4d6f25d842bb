//! The Lemma 4 domination filter shared by every OPT(m) engine.
//!
//! After a search round has been expanded and its exact duplicates removed,
//! Algorithm 2 keeps only the configurations that no other candidate
//! dominates (Lemma 4): `a` dominates `b` when, on every processor, `a` has
//! completed more jobs, or equally many with at least as much spent on every
//! resource layer of the frontier job.  The survivors are the unique maximal
//! antichain of that order, so every correct filter keeps the same set; the
//! configuration search runs this one on every unit (`u64` or `u128`) and
//! every number of layers.
//!
//! # Contract: distinct candidates
//!
//! The search drops exact duplicates while it expands a round, so the
//! candidates of one round are pairwise distinct; debug builds check it.
//! Domination is then a strict order on them, which settling and the
//! visiting order below rely on.
//!
//! # Settled candidates
//!
//! Every candidate carries a [`Level`]: any key that rises strictly along
//! domination (`a` dominates `b ≠ a` ⇒ `level(a) > level(b)`).  A candidate
//! on the round's top level is *settled*: nothing can dominate it, so it is
//! kept without being compared.  The search passes the resource units a
//! configuration has consumed (its completed jobs' requirements plus its
//! spent units, summed over the layers), then its count of completed
//! all-zero jobs, which breaks the ties that free jobs leave in the units.
//! Single-resource
//! steps are non-wasting (Lemma 1), so nearly every `k = 1` candidate of
//! round `r` has consumed exactly `r` capacities: over the 45 `Uniform m=4
//! n=3` searches of the `exact-frontier` benchmark, 184,015 of 186,274
//! candidates (98.8%) are settled, and all 2,204 dominated ones sit below
//! their round's top level.  At `k ≥ 2` a layer on which every remainder
//! fits, or none is left, takes less than its capacity, so candidates
//! bunch less: over 200 random 3×3 `k = 2` searches (percents 1–100) of
//! the per-layer step class, 31,123 of 59,413 candidates (52%) are
//! settled.
//!
//! # Completed-vector groups
//!
//! Candidates are grouped by completed vector through a hash index
//! ([`RowIndex`]) over the pushed completed counts, and the groups are
//! ranked by completed vector, lexicographically descending.  Only a group
//! whose completed vector is ≥ the candidate's on every processor can
//! dominate it — its own group or an earlier-ranked one — and then only the
//! processors where the counts tie compare spent values (all `k` layers).
//!
//! A group whose members are all settled is kept whole and never visited.
//! Every other group is decided in rank order.  Its *rivals*, the
//! earlier-ranked groups with kept members that are ≥ on every processor,
//! and their tied processors are worked out once per group; a rival
//! strictly ahead on every processor dominates the whole group outright.
//! Its members are visited by spent vector, lexicographically descending
//! (distinct within a group), so each member's dominators in its own group
//! come first.  An unsettled member survives
//! iff no kept member of a rival and no earlier kept member of its own
//! group covers it.  A group whose top level or per-slot maximum over its
//! kept members already falls short is passed over without reading its
//! rows, and rows are read in place, by candidate index.  There is no
//! round-wide sort and no copy of the candidates.
//!
//! One [`DominanceFilter`] lives for a whole search: its buffers are
//! cleared, not freed, between rounds, so a round only allocates when it
//! outgrows every earlier one.

use cr_core::{CancelGate, CancelReason, GridUnit};
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// How many candidates pass between token checks: one candidate costs a
/// hash probe, or a scan of its rival groups' rows (microseconds on the
/// largest observed rounds), so this stride checks far more often than the
/// [`cr_core::cancel::CHECK_INTERVAL_MS`] contract requires.
pub(crate) const FILTER_CHECK_STRIDE: u32 = 64;

/// A candidate's consumption level: resource units consumed, then
/// completed zero-requirement jobs (see the module docs).
pub(crate) type Level = (u128, u64);

/// Marks a free slot of a [`RowIndex`]; no row sits at this position.
pub(crate) const EMPTY: u32 = u32::MAX;

/// An open-addressing hash index over rows of `width` values stored back to
/// back in a caller-owned buffer: it finds the position of the stored row
/// equal to a given one.  The configuration search indexes its candidate
/// arena with one, the filter its candidates' completed vectors.  Positions
/// are `u32`, below [`EMPTY`].
#[derive(Debug)]
pub(crate) struct RowIndex {
    /// Row positions by hash, [`EMPTY`] where free; a power of two long and
    /// at most half full.
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: a hash's top bits pick its home slot.
    shift: u32,
    /// Occupied slots.
    len: usize,
}

impl RowIndex {
    /// Slots of a fresh index.
    const MIN_SLOTS: usize = 16;

    pub(crate) fn new() -> Self {
        RowIndex {
            slots: vec![EMPTY; Self::MIN_SLOTS],
            shift: 64 - Self::MIN_SLOTS.trailing_zeros(),
            len: 0,
        }
    }

    /// Forgets every row, keeping the slots' capacity.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    /// The home slot of `row`.
    fn home<T: Hash>(&self, row: &[T]) -> usize {
        let mut hasher = FxHasher::default();
        // lint: allow(cancel_coverage) — bounded: the values of one row
        for value in row {
            value.hash(&mut hasher);
        }
        // The shift keeps fewer than 64 bits, so the slot fits usize.
        (hasher.finish() >> self.shift) as usize
    }

    /// The position of the stored row of `rows` equal to `row`, or the free
    /// slot where `row` belongs.
    pub(crate) fn find<T: Hash + Eq>(
        &self,
        rows: &[T],
        width: usize,
        row: &[T],
    ) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(row);
        // lint: allow(cancel_coverage) — bounded: the index is at most half full, so a probe meets a free slot; its callers' loops are gated
        while self.slots[slot] != EMPTY {
            let position = self.slots[slot];
            let start = position as usize * width;
            if rows[start..start + width] == *row {
                return Ok(position);
            }
            slot = (slot + 1) & mask;
        }
        Err(slot)
    }

    /// Stores `position` in the free `slot` that [`find`](Self::find)
    /// returned for its row, which `rows` now holds, and doubles the index
    /// once it is more than half full.
    pub(crate) fn occupy<T: Hash + Eq>(
        &mut self,
        slot: usize,
        position: u32,
        rows: &[T],
        width: usize,
    ) {
        debug_assert_ne!(position, EMPTY, "EMPTY marks free slots");
        self.slots[slot] = position;
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            let doubled = vec![EMPTY; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.shift -= 1;
            // lint: allow(cancel_coverage) — bounded: re-homes the rows stored so far, each inserted under its caller's gate
            for position in old.into_iter().filter(|&position| position != EMPTY) {
                let start = position as usize * width;
                // Stored rows are distinct, so each finds a free slot.
                if let Err(slot) = self.find(rows, width, &rows[start..start + width]) {
                    self.slots[slot] = position;
                }
            }
        }
    }
}

/// The candidates sharing one completed vector.
#[derive(Debug, Clone, Default)]
struct Group {
    /// A candidate carrying the group's completed vector.
    rep: usize,
    /// The group's members in [`DominanceFilter::members`]; once the group
    /// is decided, its kept members come first.
    members: Range<usize>,
    /// How many members are kept, once the group is decided.
    kept: usize,
    /// Whether a member sits below the round's top level.
    unsettled: bool,
    /// The highest level among the kept members.
    top: Level,
    /// Whether the group's row of [`DominanceFilter::group_max`] holds its
    /// kept members' per-slot maximum.
    max_ready: bool,
}

/// A group that can dominate the current group.
#[derive(Debug, Clone)]
struct Rival {
    /// Index into [`DominanceFilter::groups`].
    group: usize,
    /// The spent slots (every layer) of the processors whose completed
    /// counts tie, as a range of [`DominanceFilter::tied`].
    tied: Range<usize>,
}

/// The Lemma 4 filter with its reusable scratch: [`push`](Self::push) one
/// round's candidates, then read the keep mask from
/// [`survivors`](Self::survivors).
#[derive(Debug)]
pub(crate) struct DominanceFilter<V> {
    /// Processors.
    m: usize,
    /// Resource layers.
    k: usize,
    /// Candidates pushed since the last [`clear`](Self::clear).
    len: usize,
    /// Completed counts, `len × m`.
    completed: Vec<u64>,
    /// Spent values, `len × m·k`, processor-major.
    spent: Vec<V>,
    /// Levels, one per candidate.
    levels: Vec<Level>,
    /// Candidates the last [`survivors`](Self::survivors) call compared
    /// against at least one kept row.
    checked: usize,
    /// Candidates the last [`survivors`](Self::survivors) call settled by
    /// level.
    settled: usize,
    /// The keep mask, by candidate index.
    keep: Vec<bool>,
    /// The completed vectors seen this round, by the candidate that first
    /// carried each.
    index: RowIndex,
    /// Each candidate's group.
    group_of: Vec<usize>,
    /// The groups, in order of first appearance.
    groups: Vec<Group>,
    /// Group indices by completed vector, lexicographically descending.
    rank: Vec<usize>,
    /// Candidate indices, contiguous per group.
    members: Vec<usize>,
    /// Per-group maximum spent per slot over the kept members,
    /// `groups × m·k`.
    group_max: Vec<V>,
    /// The current group's rivals.
    rivals: Vec<Rival>,
    /// Tied slots of every rival, back to back.
    tied: Vec<usize>,
}

impl<V: GridUnit> DominanceFilter<V> {
    /// An empty filter for configurations over `m` processors and `k`
    /// resource layers.
    pub(crate) fn new(m: usize, k: usize) -> Self {
        DominanceFilter {
            m,
            k,
            len: 0,
            completed: Vec::new(),
            spent: Vec::new(),
            levels: Vec::new(),
            checked: 0,
            settled: 0,
            keep: Vec::new(),
            index: RowIndex::new(),
            group_of: Vec::new(),
            groups: Vec::new(),
            rank: Vec::new(),
            members: Vec::new(),
            group_max: Vec::new(),
            rivals: Vec::new(),
            tied: Vec::new(),
        }
    }

    /// Drops the pushed candidates, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.completed.clear();
        self.spent.clear();
        self.levels.clear();
    }

    /// Adds one candidate: `m` completed counts, `m·k` spent values,
    /// processor-major, and its level.  Candidates are numbered in push
    /// order and must be pairwise distinct.
    pub(crate) fn push(
        &mut self,
        completed: impl IntoIterator<Item = u64>,
        spent: &[V],
        level: Level,
    ) {
        self.completed.extend(completed);
        self.spent.extend_from_slice(spent);
        self.levels.push(level);
        self.len += 1;
        debug_assert_eq!(self.completed.len(), self.len * self.m);
        debug_assert_eq!(self.spent.len(), self.len * self.m * self.k);
    }

    /// How many candidates the last [`survivors`](Self::survivors) call
    /// compared against at least one kept row; the rest were settled by
    /// level, or passed over by group levels, group maxima or an outright
    /// dominator.
    pub(crate) fn checked(&self) -> usize {
        self.checked
    }

    /// How many candidates the last [`survivors`](Self::survivors) call
    /// settled by level: kept, and never compared.
    pub(crate) fn settled(&self) -> usize {
        self.settled
    }

    /// Whether the pushed candidates are pairwise distinct, the filter's
    /// contract.
    fn pairwise_distinct(&self) -> bool {
        let mut sorted: Vec<(&[u64], &[V])> = self
            .completed
            .chunks(self.m)
            .zip(self.spent.chunks(self.m * self.k))
            .collect();
        sorted.sort_unstable();
        sorted.windows(2).all(|pair| pair[0] != pair[1])
    }

    /// The keep mask of the pushed candidates: `true` exactly for the
    /// maximal antichain of the Lemma 4 order.  `gate` ticks once per
    /// candidate, and once more per unsettled candidate it visits.
    ///
    /// # Errors
    ///
    /// The [`CancelReason`] once the gate's token fires.
    ///
    /// # Panics
    ///
    /// Panics if [`EMPTY`] or more candidates were pushed: their completed
    /// counts alone would fill 32 GiB.
    pub(crate) fn survivors(&mut self, gate: &mut CancelGate) -> Result<&[bool], CancelReason> {
        debug_assert!(self.pairwise_distinct(), "candidates must be distinct");
        let DominanceFilter {
            m,
            k,
            len,
            completed,
            spent,
            levels,
            checked,
            settled,
            keep,
            index,
            group_of,
            groups,
            rank,
            members,
            group_max,
            rivals,
            tied,
        } = self;
        let (m, k, n) = (*m, *k, *len);
        let w = m * k;
        assert!(n < EMPTY as usize, "a round's candidates are u32-indexed");
        let completed_of = |i: usize| &completed[i * m..(i + 1) * m];
        let spent_of = |i: usize| &spent[i * w..(i + 1) * w];
        // Domination strictly raises the level, so nothing dominates a
        // candidate on the round's top level.
        let top = levels.iter().max().copied().unwrap_or_default();
        let is_settled = |i: usize| levels[i] == top;
        *checked = 0;
        *settled = 0;

        // Group the candidates by completed vector; settled ones are kept.
        keep.clear();
        index.clear();
        group_of.clear();
        groups.clear();
        for i in 0..n {
            gate.tick()?;
            let group = match index.find(completed, m, completed_of(i)) {
                Ok(rep) => group_of[rep as usize],
                Err(slot) => {
                    // `n < EMPTY`, so the position fits u32.
                    index.occupy(slot, i as u32, completed, m);
                    groups.push(Group {
                        rep: i,
                        ..Group::default()
                    });
                    groups.len() - 1
                }
            };
            group_of.push(group);
            let kept = is_settled(i);
            keep.push(kept);
            *settled += usize::from(kept);
            let group = &mut groups[group];
            group.members.end += 1;
            group.unsettled |= !kept;
        }

        // Lay the members out contiguously per group, in candidate order.
        let mut start = 0;
        // lint: allow(cancel_coverage) — bounded: one pass over the round's groups
        for group in groups.iter_mut() {
            let size = group.members.end;
            group.members = start..start;
            start += size;
        }
        members.clear();
        members.resize(n, 0);
        // lint: allow(cancel_coverage) — bounded: one placement per candidate of the gated grouping pass
        for (i, &group) in group_of.iter().enumerate() {
            let end = &mut groups[group].members.end;
            members[*end] = i;
            *end += 1;
        }
        rank.clear();
        rank.extend(0..groups.len());
        rank.sort_unstable_by(|&a, &b| {
            completed_of(groups[b].rep).cmp(completed_of(groups[a].rep))
        });
        group_max.clear();
        group_max.resize(groups.len() * w, V::ZERO);

        for position in 0..rank.len() {
            let current = rank[position];
            if !groups[current].unsettled {
                let group = &mut groups[current];
                group.kept = group.members.len();
                group.top = top;
                continue;
            }

            // The earlier-ranked groups that can dominate this one:
            // completed ≥ on every processor.  One strictly ahead everywhere
            // dominates every member of this group outright.
            let c = completed_of(groups[current].rep);
            rivals.clear();
            tied.clear();
            let mut outright = false;
            // lint: allow(cancel_coverage) — bounded: one pass over the round's groups per unsettled group; the member loop below ticks the gate
            for &rival in &rank[..position] {
                let group = &groups[rival];
                let theirs = completed_of(group.rep);
                if group.kept == 0 || theirs.iter().zip(c).any(|(t, o)| t < o) {
                    continue;
                }
                let from = tied.len();
                tied.extend(
                    (0..m)
                        .filter(|&i| theirs[i] == c[i])
                        .flat_map(|i| i * k..(i + 1) * k),
                );
                if tied.len() == from {
                    outright = true;
                    break;
                }
                if !group.max_ready {
                    let kept = group.members.start..group.members.start + group.kept;
                    let max = &mut group_max[rival * w..(rival + 1) * w];
                    // lint: allow(cancel_coverage) — bounded: the kept members of one settled group, once per round
                    for &member in &members[kept] {
                        raise(max, spent_of(member));
                    }
                    groups[rival].max_ready = true;
                }
                rivals.push(Rival {
                    group: rival,
                    tied: from..tied.len(),
                });
            }

            // Visit the members by spent vector, descending (distinct within
            // a group), so a member's dominators in the group come first;
            // kept members move to the front of the group's slice.
            let range = groups[current].members.clone();
            members[range.clone()].sort_unstable_by(|&a, &b| spent_of(b).cmp(spent_of(a)));
            let own = current * w..(current + 1) * w;
            let mut kept_end = range.start;
            let mut own_top = Level::default();
            for read in range.clone() {
                let candidate = members[read];
                let level = levels[candidate];
                if !is_settled(candidate) {
                    gate.tick()?;
                    if outright {
                        continue;
                    }
                    let s = spent_of(candidate);
                    // Only a kept member on a strictly higher level can
                    // dominate.
                    let above = |top: Level| top > level;
                    let mut scanned = false;
                    let beaten_by_rival = rivals.iter().any(|rival| {
                        let group = &groups[rival.group];
                        let tied = &tied[rival.tied.clone()];
                        let kept = group.members.start..group.members.start + group.kept;
                        above(group.top)
                            && covers_on(
                                &group_max[rival.group * w..(rival.group + 1) * w],
                                s,
                                tied,
                            )
                            && {
                                scanned = true;
                                members[kept]
                                    .iter()
                                    .any(|&r| covers_on(spent_of(r), s, tied))
                            }
                    });
                    // The group's earlier kept members: every processor ties.
                    let beaten_in_group = kept_end > range.start
                        && above(own_top)
                        && covers(&group_max[own.clone()], s)
                        && {
                            scanned = true;
                            members[range.start..kept_end]
                                .iter()
                                .any(|&r| covers(spent_of(r), s))
                        };
                    *checked += usize::from(scanned);
                    if beaten_by_rival || beaten_in_group {
                        continue;
                    }
                    keep[candidate] = true;
                }
                members[kept_end] = candidate;
                kept_end += 1;
                own_top = own_top.max(level);
                raise(&mut group_max[own.clone()], spent_of(candidate));
            }
            let group = &mut groups[current];
            group.kept = kept_end - range.start;
            group.top = own_top;
            group.max_ready = true;
        }
        Ok(keep)
    }
}

/// Raises `max` to `row` on every slot.
fn raise<V: GridUnit>(max: &mut [V], row: &[V]) {
    // lint: allow(cancel_coverage) — bounded: the m·k slots of one row
    for (max, &value) in max.iter_mut().zip(row) {
        *max = (*max).max(value);
    }
}

/// `row ≥ spent` on every slot.
fn covers<V: GridUnit>(row: &[V], spent: &[V]) -> bool {
    row.iter().zip(spent).all(|(r, s)| r >= s)
}

/// `row ≥ spent` on every one of the `slots`.
fn covers_on<V: GridUnit>(row: &[V], spent: &[V], slots: &[usize]) -> bool {
    slots.iter().all(|&j| row[j] >= spent[j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_engine::{LevelTable, MultiView, SearchUnit};
    use cr_core::{CancelToken, Instance, InstanceBuilder, Ratio, ScaledInstance};
    use proptest::prelude::*;

    /// Whether candidate `a` dominates candidate `b` (Lemma 4).
    fn dominates<V: GridUnit>(
        m: usize,
        k: usize,
        a: &(Vec<u64>, Vec<V>),
        b: &(Vec<u64>, Vec<V>),
    ) -> bool {
        (0..m).all(|i| {
            a.0[i] > b.0[i]
                || (a.0[i] == b.0[i] && (i * k..(i + 1) * k).all(|slot| a.1[slot] >= b.1[slot]))
        })
    }

    /// The plain all-pairs Lemma 4 scan every engine ran before the
    /// bucketed filter: each still-kept candidate drops everything it
    /// dominates, so the first of exact duplicates survives.
    fn all_pairs_keep<V: GridUnit>(
        m: usize,
        k: usize,
        candidates: &[(Vec<u64>, Vec<V>)],
    ) -> Vec<bool> {
        let mut keep = vec![true; candidates.len()];
        for a in 0..candidates.len() {
            if !keep[a] {
                continue;
            }
            for b in 0..candidates.len() {
                if a != b && keep[b] && dominates(m, k, &candidates[a], &candidates[b]) {
                    keep[b] = false;
                }
            }
        }
        keep
    }

    /// (Σ completed, Σ spent) of every candidate: a level, since it rises
    /// strictly along domination.
    fn sum_levels<V: SearchUnit>(candidates: &[(Vec<u64>, Vec<V>)]) -> Vec<Level> {
        candidates
            .iter()
            .map(|(completed, spent)| {
                let spent: u128 = spent.iter().map(|&value| value.units()).sum();
                let spent = u64::try_from(spent).expect("small test values");
                (u128::from(completed.iter().sum::<u64>()), spent)
            })
            .collect()
    }

    /// The filter's keep mask under (Σ completed, Σ spent) levels.
    fn bucketed_keep<V: SearchUnit>(
        m: usize,
        k: usize,
        candidates: &[(Vec<u64>, Vec<V>)],
        filter: &mut DominanceFilter<V>,
    ) -> Vec<bool> {
        leveled_keep(m, k, candidates, &sum_levels(candidates), filter)
    }

    /// The filter's keep mask under `levels`, one per candidate.
    fn leveled_keep<V: GridUnit>(
        m: usize,
        k: usize,
        candidates: &[(Vec<u64>, Vec<V>)],
        levels: &[Level],
        filter: &mut DominanceFilter<V>,
    ) -> Vec<bool> {
        filter.clear();
        for ((completed, spent), &level) in candidates.iter().zip(levels) {
            filter.push(completed.iter().copied(), spent, level);
        }
        assert_eq!((filter.m, filter.k, filter.len), (m, k, candidates.len()));
        let mut gate = CancelToken::never().gate(FILTER_CHECK_STRIDE);
        let keep = filter
            .survivors(&mut gate)
            .expect("a never token cannot fire");
        keep.to_vec()
    }

    /// One raw candidate at the widest shape (m = 6, k = 3), cut down to
    /// the drawn `m`, `k` by [`shape`]: completed counts in `0..=2` (so
    /// groups are shared and ties are common), spent values from a short
    /// palette, and a tag that zeroes the spent vector, repeats the previous
    /// candidate's spent vector or duplicates the previous candidate whole.
    type RawCandidate = (Vec<u64>, Vec<u64>, u8);

    fn raw_candidates() -> impl Strategy<Value = Vec<RawCandidate>> {
        prop::collection::vec(
            (
                prop::collection::vec(0u64..=2, 6),
                prop::collection::vec(0u64..=3, 18),
                0u8..=4,
            ),
            0..=40,
        )
    }

    fn shape(m: usize, k: usize, raw: &[RawCandidate]) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut out: Vec<(Vec<u64>, Vec<u64>)> = Vec::with_capacity(raw.len());
        for (completed, spent, tag) in raw {
            let mut candidate = (completed[..m].to_vec(), spent[..m * k].to_vec());
            match (tag, out.last()) {
                (0, _) => candidate.1.fill(0),
                (1, Some(previous)) => candidate.1.clone_from(&previous.1),
                (2, Some(previous)) => candidate.clone_from(previous),
                _ => {}
            }
            out.push(candidate);
        }
        out
    }

    /// `candidates` without their later exact duplicates: the filter's
    /// input contract.
    fn distinct<T: PartialEq>(candidates: Vec<T>) -> Vec<T> {
        let mut out: Vec<T> = Vec::with_capacity(candidates.len());
        for candidate in candidates {
            if !out.contains(&candidate) {
                out.push(candidate);
            }
        }
        out
    }

    fn as_wide(candidates: &[(Vec<u64>, Vec<u64>)]) -> Vec<(Vec<u64>, Vec<u128>)> {
        candidates
            .iter()
            .map(|(completed, spent)| {
                let spent = spent.iter().map(|&s| u128::from(s)).collect();
                (completed.clone(), spent)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The grouped filter keeps exactly what the all-pairs scan keeps on
        /// distinct candidates under (Σ completed, Σ spent) levels, over
        /// `u64` and `u128` spent values, for m in 1..=6 and k in 1..=3,
        /// with one filter reused across two inputs as the engines reuse it
        /// across rounds.
        #[test]
        fn bucketed_filter_matches_the_all_pairs_scan(
            m in 1usize..=6,
            k in 1usize..=3,
            first in raw_candidates(),
            second in raw_candidates(),
        ) {
            let mut units = DominanceFilter::new(m, k);
            let mut wide = DominanceFilter::new(m, k);
            for raw in [&first, &second] {
                let candidates = distinct(shape(m, k, raw));
                let want = all_pairs_keep(m, k, &candidates);
                prop_assert_eq!(&bucketed_keep(m, k, &candidates, &mut units), &want);
                let candidates = as_wide(&candidates);
                prop_assert_eq!(&all_pairs_keep(m, k, &candidates), &want);
                prop_assert_eq!(&bucketed_keep(m, k, &candidates, &mut wide), &want);
            }
        }
    }

    /// Requirement palette of the engine-shaped inputs, in percent: zeros
    /// are drawn one time in four.
    const PALETTE: [i64; 8] = [0, 0, 20, 35, 50, 65, 80, 100];

    /// Engine-shaped chains at the widest shape (m = 6, k = 2): a chain
    /// length in `0..=3` per processor (empty processors included) and three
    /// palette draws per processor and layer.
    type RawChains = (Vec<usize>, Vec<usize>);

    fn raw_chains() -> impl Strategy<Value = RawChains> {
        (
            prop::collection::vec(0usize..=3, 6),
            prop::collection::vec(0usize..PALETTE.len(), 36),
        )
    }

    /// One raw engine-shaped configuration: completed counts and spent
    /// values (per processor and layer) cut down to the chains by
    /// [`engine_shaped`], and a tag that duplicates the previous
    /// configuration.
    type RawConfig = (Vec<usize>, Vec<u64>, u8);

    fn raw_configs() -> impl Strategy<Value = Vec<RawConfig>> {
        prop::collection::vec(
            (
                prop::collection::vec(0usize..=3, 6),
                prop::collection::vec(0u64..=99, 12),
                0u8..=4,
            ),
            0..=40,
        )
    }

    /// The first `m` processors and `k` layers of `chains` as the `u64`
    /// and `u128` views the search runs on, and the raw configurations made
    /// valid for them: completed counts within each chain, and spent units
    /// up to the frontier requirement on each layer and below it on at
    /// least one positive layer (a finished layer keeps its requirement at
    /// `k = 2`; zero on a free layer or a finished chain), packed as the
    /// search packs its nodes.
    fn engine_shaped(
        m: usize,
        k: usize,
        chains: &RawChains,
        raw: &[RawConfig],
    ) -> (MultiView<u64>, MultiView<u128>, Vec<Vec<u64>>) {
        let layer = |r: usize| -> Vec<Vec<Ratio>> {
            (0..m)
                .map(|i| {
                    (0..chains.0[i])
                        .map(|j| Ratio::from_percent(PALETTE[chains.1[18 * r + 3 * i + j]]))
                        .collect()
                })
                .collect()
        };
        let instance = if k == 1 {
            Instance::unit_from_requirements(layer(0))
        } else {
            layer(0)
                .into_iter()
                .fold(InstanceBuilder::new(), InstanceBuilder::processor)
                .extra_layer(layer(1))
                .build()
        };
        let scaled = ScaledInstance::try_new(&instance).expect("percent grids scale");
        let mut configs: Vec<Vec<u64>> = Vec::with_capacity(raw.len());
        for (completed, spent, tag) in raw {
            if let (0, Some(previous)) = (tag, configs.last()) {
                configs.push(previous.clone());
                continue;
            }
            let mut config = vec![0u64; m + m * k];
            for i in 0..m {
                let done = completed[i].min(scaled.jobs_on(i));
                config[i] = done as u64;
                if done == scaled.jobs_on(i) {
                    continue;
                }
                let (mut open, mut first_positive) = (false, None);
                for r in 0..k {
                    let req = scaled.layer_unit_req(r, i, done);
                    if req > 0 {
                        let value = spent[i * 2 + r] % (req + u64::from(k > 1));
                        config[m + i * k + r] = value;
                        open |= value < req;
                        first_positive.get_or_insert(r);
                    }
                }
                if let (false, Some(r)) = (open, first_positive) {
                    // Every positive layer full: the job would have
                    // completed, so reopen its first positive layer.
                    config[m + i * k + r] -= 1;
                }
            }
            configs.push(config);
        }
        let wide = ScaledInstance::try_on_grid(&instance).expect("percent grids scale");
        (
            MultiView::from_scaled(&scaled),
            MultiView::from_scaled(&wide),
            configs,
        )
    }

    fn split(m: usize, configs: &[Vec<u64>]) -> Vec<(Vec<u64>, Vec<u64>)> {
        configs
            .iter()
            .map(|config| (config[..m].to_vec(), config[m..].to_vec()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On distinct engine-shaped inputs with the search's consumption
        /// levels, at k = 1 and k = 2, on `u64` and `u128` rows, the filter
        /// keeps exactly what the all-pairs scan keeps.
        #[test]
        fn leveled_filter_matches_the_all_pairs_scan(
            m in 1usize..=6,
            k in 1usize..=2,
            chains in raw_chains(),
            first in raw_configs(),
            second in raw_configs(),
        ) {
            let mut units = DominanceFilter::new(m, k);
            let mut wide = DominanceFilter::new(m, k);
            for raw in [&first, &second] {
                let (view, wide_view, configs) = engine_shaped(m, k, &chains, raw);
                let configs = distinct(configs);
                let table = LevelTable::new(&view);
                let levels: Vec<Level> = configs.iter().map(|c| table.level(c)).collect();
                let candidates = split(m, &configs);
                let want = all_pairs_keep(m, k, &candidates);
                prop_assert_eq!(
                    &leveled_keep(m, k, &candidates, &levels, &mut units),
                    &want
                );
                let wide_configs: Vec<Vec<u128>> = configs
                    .iter()
                    .map(|config| config.iter().map(|&value| u128::from(value)).collect())
                    .collect();
                let wide_table = LevelTable::new(&wide_view);
                let wide_levels: Vec<Level> =
                    wide_configs.iter().map(|c| wide_table.level(c)).collect();
                prop_assert_eq!(&wide_levels, &levels);
                prop_assert_eq!(
                    &leveled_keep(m, k, &as_wide(&candidates), &wide_levels, &mut wide),
                    &want
                );
            }
        }

        /// Consumption levels rise strictly along domination, at k = 1 and
        /// k = 2: the contract that lets the filter settle a round's
        /// top-level candidates and pass over groups at or below a
        /// candidate's level.
        #[test]
        fn levels_rise_strictly_along_domination(
            m in 1usize..=6,
            k in 1usize..=2,
            chains in raw_chains(),
            raw in raw_configs(),
        ) {
            let (view, _, configs) = engine_shaped(m, k, &chains, &raw);
            let table = LevelTable::new(&view);
            let candidates = split(m, &configs);
            for (a, config_a) in candidates.iter().zip(&configs) {
                for (b, config_b) in candidates.iter().zip(&configs) {
                    if a != b && dominates(m, k, a, b) {
                        prop_assert!(table.level(config_a) > table.level(config_b));
                    }
                }
            }
        }
    }

    /// `0..len` ordered by `keys`: a permutation drawn by proptest.
    fn permutation(keys: &[u64], len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by_key(|&i| (keys[i], i));
        order
    }

    /// Pushing `candidates` with `levels` in the order `perm` yields the
    /// keep mask permuted the same way, and the same `checked` and
    /// `settled` counts.
    fn assert_permutes<V: GridUnit>(
        m: usize,
        k: usize,
        candidates: &[(Vec<u64>, Vec<V>)],
        levels: &[Level],
        perm: &[usize],
    ) -> Result<(), TestCaseError> {
        let mut filter = DominanceFilter::new(m, k);
        let keep = leveled_keep(m, k, candidates, levels, &mut filter);
        let counts = (filter.checked(), filter.settled());
        let permuted: Vec<_> = perm.iter().map(|&i| candidates[i].clone()).collect();
        let permuted_levels: Vec<Level> = perm.iter().map(|&i| levels[i]).collect();
        let want: Vec<bool> = perm.iter().map(|&i| keep[i]).collect();
        prop_assert_eq!(
            leveled_keep(m, k, &permuted, &permuted_levels, &mut filter),
            want
        );
        prop_assert_eq!((filter.checked(), filter.settled()), counts);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The push order is only a numbering: a permutation of the
        /// candidates permutes the keep mask and leaves the counts alone,
        /// under (Σ completed, Σ spent) levels (m ≤ 6, k ≤ 3) and under the
        /// search's levels (k ≤ 2), over `u64` and `u128` spent values.
        #[test]
        fn pushing_a_permutation_permutes_the_keep_mask(
            m in 1usize..=6,
            k in 1usize..=3,
            raw in raw_candidates(),
            chains in raw_chains(),
            configs in raw_configs(),
            keys in prop::collection::vec(0u64..=u64::MAX, 40),
        ) {
            let candidates = distinct(shape(m, k, &raw));
            let perm = permutation(&keys, candidates.len());
            let levels = sum_levels(&candidates);
            assert_permutes(m, k, &candidates, &levels, &perm)?;
            assert_permutes(m, k, &as_wide(&candidates), &levels, &perm)?;

            let k = k.min(2);
            let (view, _, configs) = engine_shaped(m, k, &chains, &configs);
            let configs = distinct(configs);
            let table = LevelTable::new(&view);
            let levels: Vec<Level> = configs.iter().map(|c| table.level(c)).collect();
            let candidates = split(m, &configs);
            let perm = permutation(&keys, candidates.len());
            assert_permutes(m, k, &candidates, &levels, &perm)?;
            assert_permutes(m, k, &as_wide(&candidates), &levels, &perm)?;
        }
    }

    #[test]
    fn a_completed_free_job_raises_the_level() {
        // Processor 0 starts with a zero-requirement job: completing it
        // consumes no units, so only the free-job count tells the two
        // configurations apart, and the one ahead dominates the other.
        let scaled =
            ScaledInstance::try_new(&Instance::unit_from_percentages(&[&[0, 50], &[30]])).unwrap();
        let table = LevelTable::new(&MultiView::from_scaled(&scaled));
        let ahead: &[u64] = &[1, 0, 0, 0];
        let start: &[u64] = &[0, 0, 0, 0];
        assert_eq!(table.level(ahead), (0, 1));
        assert_eq!(table.level(start), (0, 0));
        let candidates = split(2, &[ahead.to_vec(), start.to_vec()]);
        let levels = [table.level(ahead), table.level(start)];
        let mut filter = DominanceFilter::new(2, 1);
        let keep = leveled_keep(2, 1, &candidates, &levels, &mut filter);
        assert_eq!(keep, [true, false]);
        let reversed = [candidates[1].clone(), candidates[0].clone()];
        let keep = leveled_keep(2, 1, &reversed, &[levels[1], levels[0]], &mut filter);
        assert_eq!(keep, [false, true]);
    }

    #[test]
    fn outright_and_tied_domination() {
        // [2,1]/[0,0] is ahead of [1,0]/[9,9] on both processors, so it
        // dominates it outright.  [1,1]/[5,5] ties with it on processor 1
        // and spends more there, so it survives; [1,1]/[5,4], in its group,
        // does not.  [2,0]/[1,9] ties with [2,1]/[0,0] on processor 0 and
        // spends more there, so it survives too.
        let candidates: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![1, 0], vec![9, 9]),
            (vec![1, 1], vec![5, 5]),
            (vec![2, 1], vec![0, 0]),
            (vec![1, 1], vec![5, 4]),
            (vec![2, 0], vec![1, 9]),
        ];
        let mut filter = DominanceFilter::new(2, 1);
        let keep = bucketed_keep(2, 1, &candidates, &mut filter);
        assert_eq!(keep, vec![false, true, true, false, true]);
        assert_eq!(keep, all_pairs_keep(2, 1, &candidates));
    }

    #[test]
    fn cancelled_filter_stops() {
        let token = CancelToken::new();
        token.cancel();
        let mut filter = DominanceFilter::<u64>::new(1, 1);
        filter.push([0], &[0], (0, 0));
        let mut gate = token.gate(1);
        assert_eq!(filter.survivors(&mut gate), Err(CancelReason::Cancelled));
    }
}

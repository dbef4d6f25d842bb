//! The Lemma 4 domination filter shared by every OPT(m) engine.
//!
//! After a search round has been expanded and its exact duplicates removed,
//! Algorithm 2 keeps only the configurations that no other candidate
//! dominates (Lemma 4): `a` dominates `b` when, on every processor, `a` has
//! completed more jobs, or equally many with at least as much spent on every
//! resource layer of the frontier job.  The survivors are the unique maximal
//! antichain of that order, so every correct filter keeps the same set; the
//! scaled (`u64`, one layer), rational (`Ratio`, one layer) and
//! multi-resource (either unit, `k` layers) searches all run this one.
//!
//! # Completed-vector buckets
//!
//! Candidates are visited in a linear extension of the domination order:
//! completed vector lexicographically descending, then spent vector
//! lexicographically descending, then candidate index.  (`a` dominating
//! `b ≠ a` forces `completed(a) ≥ completed(b)` on every processor, hence
//! lexicographically, and on equal completed vectors `spent(a) ≥ spent(b)`
//! on every slot.)  Every dominator of a candidate is therefore visited
//! before it, and a candidate survives iff no earlier survivor dominates it.
//!
//! Equal completed vectors are adjacent in that order, so the survivors
//! form contiguous *groups*, one per completed vector, and each group keeps
//! its maximum spent per slot.  Only a group whose completed vector is ≥ the
//! candidate's on every processor can dominate it, and then only the
//! processors where the counts tie compare spent values (all `k` layers).
//! Those rival groups and their tied processors are worked out once per
//! candidate group, not per candidate; a group strictly ahead on every
//! processor dominates the whole candidate group outright, and a rival
//! whose maxima already fall short on a tied slot is skipped without
//! visiting its rows.
//!
//! On the dense `Uniform m=4 n=3` searches ~99% of the candidates survive,
//! which made the previous scans (a sorted kept-prefix scan in the scaled
//! engine, all-pairs scans in the rational and multi-resource ones)
//! quadratic in practice: 89–93% of the search time.
//!
//! # Consumption levels
//!
//! A candidate may carry a [`Level`]: any key that rises strictly along
//! domination (`a` dominates `b ≠ a` ⇒ `level(a) > level(b)`).  The
//! single-resource scaled engine passes the resource units a configuration
//! has consumed (its completed jobs' requirements plus its spent units),
//! then its count of completed zero-requirement jobs, which breaks the ties
//! that free jobs leave in the units.  Search steps are non-wasting
//! (Lemma 1), so nearly every candidate of round `r` has consumed exactly
//! `r` capacities: over 45 random `Uniform m=4 n=3` searches, 98.9% of
//! 210,934 candidates sit on their round's top level, where nothing can
//! dominate them, and all 2,240 dominated ones sit below it.  A group
//! whose highest row level is ≤ the candidate's is skipped unread (rivals
//! and the candidate's own group alike); the one row on an equal level
//! that can still dominate is an exact duplicate, which is the own group's
//! last kept row.  Candidates pushed without a level are compared exactly
//! as above.  The multi-resource engine passes none: at `k ≥ 2` a step may
//! waste part of a layer, so its candidates do not bunch on one level.
//! Neither does the rational search, the twin of the scaled one.
//!
//! Exact duplicates keep their first (lowest-index) representative, as the
//! all-pairs scan does.  One [`DominanceFilter`] lives for a whole search:
//! its buffers are cleared, not freed, between rounds, so a round only
//! allocates when it outgrows every earlier one.

use cr_core::{CancelGate, CancelReason, StepUnit};
use std::ops::Range;

/// How many candidates pass between token checks: one candidate costs a
/// scan of its rival groups' rows (microseconds on the largest observed
/// rounds), so this stride checks far more often than the
/// [`cr_core::cancel::CHECK_INTERVAL_MS`] contract requires.
pub(crate) const FILTER_CHECK_STRIDE: u32 = 64;

/// A candidate's consumption level: resource units consumed, then
/// completed zero-requirement jobs (see the module docs).
pub(crate) type Level = (u128, u64);

/// The survivors sharing one completed vector.
#[derive(Debug, Clone)]
struct Group {
    /// A candidate carrying the group's completed vector.
    rep: usize,
    /// The group's rows in [`DominanceFilter::rows`], in row units.
    rows: Range<usize>,
    /// The highest level among the rows (unused without levels).
    top: Level,
}

/// A group that can dominate the current candidate group.
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
    /// Levels, one per candidate when every candidate was pushed with one.
    levels: Vec<Level>,
    /// Candidates the last [`survivors`](Self::survivors) call compared
    /// against at least one survivor row.
    checked: usize,
    /// Candidate indices in visiting order.
    order: Vec<usize>,
    /// The keep mask, by candidate index.
    keep: Vec<bool>,
    /// Survivor groups, in visiting order.
    groups: Vec<Group>,
    /// Per-group maximum spent per slot, `groups × m·k`.
    group_max: Vec<V>,
    /// Survivors' spent vectors, `rows × m·k`, contiguous per group.
    rows: Vec<V>,
    /// The current candidate group's rivals.
    rivals: Vec<Rival>,
    /// Tied slots of every rival, back to back.
    tied: Vec<usize>,
}

impl<V: StepUnit> DominanceFilter<V> {
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
            order: Vec::new(),
            keep: Vec::new(),
            groups: Vec::new(),
            group_max: Vec::new(),
            rows: Vec::new(),
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
    /// processor-major, and optionally its level.  Candidates are numbered
    /// in push order.  Levels take effect only when every candidate of the
    /// round carries one.
    pub(crate) fn push(
        &mut self,
        completed: impl IntoIterator<Item = u64>,
        spent: &[V],
        level: Option<Level>,
    ) {
        self.completed.extend(completed);
        self.spent.extend_from_slice(spent);
        self.levels.extend(level);
        self.len += 1;
        debug_assert_eq!(self.completed.len(), self.len * self.m);
        debug_assert_eq!(self.spent.len(), self.len * self.m * self.k);
    }

    /// How many candidates the last [`survivors`](Self::survivors) call
    /// compared against at least one survivor row; the rest were settled
    /// by levels, group maxima, an outright dominator or the
    /// exact-duplicate probe.
    pub(crate) fn checked(&self) -> usize {
        self.checked
    }

    /// The keep mask of the pushed candidates: `true` exactly for the
    /// maximal antichain of the Lemma 4 order (first representative of
    /// exact duplicates).  `gate` ticks once per candidate.
    ///
    /// # Errors
    ///
    /// The [`CancelReason`] once the gate's token fires.
    pub(crate) fn survivors(&mut self, gate: &mut CancelGate) -> Result<&[bool], CancelReason> {
        let DominanceFilter {
            m,
            k,
            len,
            completed,
            spent,
            levels,
            checked,
            order,
            keep,
            groups,
            group_max,
            rows,
            rivals,
            tied,
        } = self;
        let (m, k, n) = (*m, *k, *len);
        let w = m * k;
        let completed_of = |i: usize| &completed[i * m..(i + 1) * m];
        let spent_of = |i: usize| &spent[i * w..(i + 1) * w];
        debug_assert!(
            levels.is_empty() || levels.len() == n,
            "levels for some candidates only"
        );
        let leveled = levels.len() == n;
        *checked = 0;

        order.clear();
        order.extend(0..n);
        order.sort_unstable_by(|&a, &b| {
            completed_of(b)
                .cmp(completed_of(a))
                .then_with(|| spent_of(b).cmp(spent_of(a)))
                .then(a.cmp(&b))
        });
        keep.clear();
        keep.resize(n, false);
        groups.clear();
        group_max.clear();
        rows.clear();
        let mut kept_rows = 0usize;

        let mut pos = 0;
        while pos < n {
            let rep = order[pos];
            let c = completed_of(rep);
            let end = order[pos..]
                .iter()
                .position(|&i| completed_of(i) != c)
                .map_or(n, |offset| pos + offset);

            // The earlier groups that can dominate this one: completed ≥ on
            // every processor.  One strictly ahead everywhere dominates every
            // candidate of this group outright.
            rivals.clear();
            tied.clear();
            let mut outright = false;
            // lint: allow(cancel_coverage) — bounded: one pass over the round's groups per candidate group; the candidate loop below ticks the gate
            for (index, group) in groups.iter().enumerate() {
                let theirs = completed_of(group.rep);
                if theirs.iter().zip(c).any(|(t, o)| t < o) {
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
                rivals.push(Rival {
                    group: index,
                    tied: from..tied.len(),
                });
            }

            let start = kept_rows;
            let mut own_top = Level::default();
            for &candidate in &order[pos..end] {
                gate.tick()?;
                if outright {
                    continue;
                }
                let s = spent_of(candidate);
                let row = |r: usize| &rows[r * w..(r + 1) * w];
                // Only a row on a strictly higher level can dominate.
                let level = leveled.then(|| levels[candidate]);
                let above = |top: Level| level.map_or(true, |l| top > l);
                let mut scanned = false;
                let beaten_by_rival = rivals.iter().any(|rival| {
                    let group = &groups[rival.group];
                    let tied = &tied[rival.tied.clone()];
                    above(group.top)
                        && covers_on(&group_max[rival.group * w..(rival.group + 1) * w], s, tied)
                        && {
                            scanned = true;
                            group.rows.clone().any(|r| covers_on(row(r), s, tied))
                        }
                });
                // The candidate's own group so far: every processor ties.
                // Below the level gate only an exact duplicate, the last
                // kept row, can still dominate.
                let beaten_in_group = kept_rows > start
                    && if above(own_top) {
                        covers(&group_max[groups.len() * w..], s) && {
                            scanned = true;
                            (start..kept_rows).any(|r| covers(row(r), s))
                        }
                    } else {
                        row(kept_rows - 1) == s
                    };
                *checked += usize::from(scanned);
                if beaten_by_rival || beaten_in_group {
                    continue;
                }
                keep[candidate] = true;
                own_top = own_top.max(level.unwrap_or_default());
                if kept_rows == start {
                    group_max.extend_from_slice(s);
                } else {
                    let own_max = &mut group_max[groups.len() * w..];
                    // lint: allow(cancel_coverage) — bounded: the m·k slots of one kept candidate
                    for (max, &value) in own_max.iter_mut().zip(s) {
                        *max = (*max).max(value);
                    }
                }
                rows.extend_from_slice(s);
                kept_rows += 1;
            }
            if kept_rows > start {
                groups.push(Group {
                    rep,
                    rows: start..kept_rows,
                    top: own_top,
                });
            }
            pos = end;
        }
        Ok(keep)
    }
}

/// `row ≥ spent` on every slot.
fn covers<V: StepUnit>(row: &[V], spent: &[V]) -> bool {
    row.iter().zip(spent).all(|(r, s)| r >= s)
}

/// `row ≥ spent` on every one of the `slots`.
fn covers_on<V: StepUnit>(row: &[V], spent: &[V], slots: &[usize]) -> bool {
    slots.iter().all(|&j| row[j] >= spent[j])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaled_engine::LevelTable;
    use cr_core::{CancelToken, Ratio, ScaledInstance};
    use proptest::prelude::*;

    /// Whether candidate `a` dominates candidate `b` (Lemma 4).
    fn dominates<V: StepUnit>(
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
    fn all_pairs_keep<V: StepUnit>(
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

    fn bucketed_keep<V: StepUnit>(
        m: usize,
        k: usize,
        candidates: &[(Vec<u64>, Vec<V>)],
        filter: &mut DominanceFilter<V>,
    ) -> Vec<bool> {
        leveled_keep(m, k, candidates, None, filter)
    }

    /// The filter's keep mask, with `levels` (one per candidate) if given.
    fn leveled_keep<V: StepUnit>(
        m: usize,
        k: usize,
        candidates: &[(Vec<u64>, Vec<V>)],
        levels: Option<&[Level]>,
        filter: &mut DominanceFilter<V>,
    ) -> Vec<bool> {
        filter.clear();
        for (index, (completed, spent)) in candidates.iter().enumerate() {
            filter.push(
                completed.iter().copied(),
                spent,
                levels.map(|levels| levels[index]),
            );
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

    fn as_ratios(candidates: &[(Vec<u64>, Vec<u64>)]) -> Vec<(Vec<u64>, Vec<Ratio>)> {
        candidates
            .iter()
            .map(|(completed, spent)| {
                let spent = spent.iter().map(|&s| Ratio::from_parts(s, 3)).collect();
                (completed.clone(), spent)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bucketed filter keeps exactly what the all-pairs scan keeps,
        /// over `u64` and `Ratio` spent values, for m in 1..=6 and k in
        /// 1..=3, with one filter reused across two inputs as the engines
        /// reuse it across rounds.
        #[test]
        fn bucketed_filter_matches_the_all_pairs_scan(
            m in 1usize..=6,
            k in 1usize..=3,
            first in raw_candidates(),
            second in raw_candidates(),
        ) {
            let mut units = DominanceFilter::new(m, k);
            let mut ratios = DominanceFilter::new(m, k);
            for raw in [&first, &second] {
                let candidates = shape(m, k, raw);
                let want = all_pairs_keep(m, k, &candidates);
                prop_assert_eq!(&bucketed_keep(m, k, &candidates, &mut units), &want);
                let candidates = as_ratios(&candidates);
                prop_assert_eq!(&all_pairs_keep(m, k, &candidates), &want);
                prop_assert_eq!(&bucketed_keep(m, k, &candidates, &mut ratios), &want);
            }
        }
    }

    /// Requirement palette of the engine-shaped inputs, in percent: zeros
    /// are drawn one time in four.
    const PALETTE: [i64; 8] = [0, 0, 20, 35, 50, 65, 80, 100];

    /// Engine-shaped chains at the widest shape (m = 6): a chain length in
    /// `0..=3` per processor (empty processors included) and three palette
    /// draws per processor.
    type RawChains = (Vec<usize>, Vec<usize>);

    fn raw_chains() -> impl Strategy<Value = RawChains> {
        (
            prop::collection::vec(0usize..=3, 6),
            prop::collection::vec(0usize..PALETTE.len(), 18),
        )
    }

    /// One raw engine-shaped configuration: completed counts and spent
    /// values cut down to the chains by [`engine_shaped`], and a tag that
    /// duplicates the previous configuration.
    type RawConfig = (Vec<usize>, Vec<u64>, u8);

    fn raw_configs() -> impl Strategy<Value = Vec<RawConfig>> {
        prop::collection::vec(
            (
                prop::collection::vec(0usize..=3, 6),
                prop::collection::vec(0u64..=99, 6),
                0u8..=4,
            ),
            0..=40,
        )
    }

    /// The first `m` processors of `chains` as a scaled instance, and the
    /// raw configurations made valid for it: completed counts within each
    /// chain, and spent units strictly below the frontier requirement
    /// (zero on a free frontier or a finished chain), packed as the scaled
    /// engine packs them.
    fn engine_shaped(
        m: usize,
        chains: &RawChains,
        raw: &[RawConfig],
    ) -> (ScaledInstance, Vec<Vec<u64>>) {
        let rows: Vec<Vec<i64>> = (0..m)
            .map(|i| {
                (0..chains.0[i])
                    .map(|j| PALETTE[chains.1[3 * i + j]])
                    .collect()
            })
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let scaled = ScaledInstance::try_new(&cr_core::Instance::unit_from_percentages(&rows))
            .expect("percent grids scale");
        let mut configs: Vec<Vec<u64>> = Vec::with_capacity(raw.len());
        for (completed, spent, tag) in raw {
            if let (0, Some(previous)) = (tag, configs.last()) {
                configs.push(previous.clone());
                continue;
            }
            let mut config = vec![0u64; 2 * m];
            for i in 0..m {
                let done = completed[i].min(scaled.jobs_on(i));
                config[i] = done as u64;
                if done < scaled.jobs_on(i) && scaled.unit_req(i, done) > 0 {
                    config[m + i] = spent[i] % scaled.unit_req(i, done);
                }
            }
            configs.push(config);
        }
        (scaled, configs)
    }

    fn split(m: usize, configs: &[Vec<u64>]) -> Vec<(Vec<u64>, Vec<u64>)> {
        configs
            .iter()
            .map(|config| (config[..m].to_vec(), config[m..].to_vec()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On engine-shaped inputs with the scaled engine's consumption
        /// levels, the filter keeps exactly what the all-pairs scan keeps.
        #[test]
        fn leveled_filter_matches_the_all_pairs_scan(
            m in 1usize..=6,
            chains in raw_chains(),
            first in raw_configs(),
            second in raw_configs(),
        ) {
            let mut filter = DominanceFilter::new(m, 1);
            for raw in [&first, &second] {
                let (scaled, configs) = engine_shaped(m, &chains, raw);
                let table = LevelTable::new(&scaled);
                let levels: Vec<Level> = configs.iter().map(|c| table.level(c)).collect();
                let candidates = split(m, &configs);
                let want = all_pairs_keep(m, 1, &candidates);
                prop_assert_eq!(
                    &leveled_keep(m, 1, &candidates, Some(&levels), &mut filter),
                    &want
                );
            }
        }

        /// Consumption levels rise strictly along domination: the contract
        /// that lets the filter skip every group at or below a candidate's
        /// level.
        #[test]
        fn levels_rise_strictly_along_domination(
            m in 1usize..=6,
            chains in raw_chains(),
            raw in raw_configs(),
        ) {
            let (scaled, configs) = engine_shaped(m, &chains, &raw);
            let table = LevelTable::new(&scaled);
            let candidates = split(m, &configs);
            for (a, config_a) in candidates.iter().zip(&configs) {
                for (b, config_b) in candidates.iter().zip(&configs) {
                    if a != b && dominates(m, 1, a, b) {
                        prop_assert!(table.level(config_a) > table.level(config_b));
                    }
                }
            }
        }
    }

    #[test]
    fn a_completed_free_job_raises_the_level() {
        // Processor 0 starts with a zero-requirement job: completing it
        // consumes no units, so only the free-job count tells the two
        // configurations apart, and the one ahead dominates the other.
        let scaled = ScaledInstance::try_new(&cr_core::Instance::unit_from_percentages(&[
            &[0, 50],
            &[30],
        ]))
        .unwrap();
        let table = LevelTable::new(&scaled);
        let ahead: &[u64] = &[1, 0, 0, 0];
        let start: &[u64] = &[0, 0, 0, 0];
        assert_eq!(table.level(ahead), (0, 1));
        assert_eq!(table.level(start), (0, 0));
        let candidates = split(2, &[ahead.to_vec(), start.to_vec()]);
        let levels = [table.level(ahead), table.level(start)];
        let mut filter = DominanceFilter::new(2, 1);
        let keep = leveled_keep(2, 1, &candidates, Some(&levels), &mut filter);
        assert_eq!(keep, [true, false]);
        let reversed = [candidates[1].clone(), candidates[0].clone()];
        let keep = leveled_keep(2, 1, &reversed, Some(&[levels[1], levels[0]]), &mut filter);
        assert_eq!(keep, [false, true]);
    }

    #[test]
    fn outright_and_tied_domination() {
        // [2,1]/[0,0] is ahead of [1,0]/[9,9] on both processors, so it
        // dominates it outright.  [1,1]/[5,5] ties with it on processor 1
        // and spends more there, so it survives; its duplicate does not.
        // [2,0]/[1,9] ties with [2,1]/[0,0] on processor 0 and spends more
        // there, so it survives too.
        let candidates: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![1, 0], vec![9, 9]),
            (vec![1, 1], vec![5, 5]),
            (vec![2, 1], vec![0, 0]),
            (vec![1, 1], vec![5, 5]),
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
        filter.push([0], &[0], None);
        let mut gate = token.gate(1);
        assert_eq!(filter.survivors(&mut gate), Err(CancelReason::Cancelled));
    }
}

//! The pruned successor-choice enumerator behind the configuration search.
//!
//! One normalized time step of the single-resource configuration search
//! (Lemma 1) is a *choice*: a subset of the active frontier jobs whose
//! remaining requirements fit into the resource and all complete, plus at
//! most one further active job that receives the leftover without
//! completing.  The configuration search ([`crate::multi_engine`], `u64`
//! or `u128` units) and its brute force enumerate exactly this choice space
//! whenever they run over one resource, generic over [`GridUnit`].  With
//! `k ≥ 2` resources they enumerate it once per layer, over the layer's
//! scalar remainders, and compose the layers' choices.
//!
//! # Pruned DFS instead of a bitmask scan
//!
//! The previous implementations scanned `1u32 << k` bitmasks over the `k`
//! active processors, which capped the engines at 31 simultaneously active
//! processors (an assert in the scaled one; a silent shift overflow in the
//! rational one).  This module enumerates fitting subsets by a
//! depth-first descent over the active jobs sorted by ascending remaining
//! requirement: a branch is extended only while the partial sum still fits
//! the capacity, and because candidates are sorted, the first candidate
//! that does not fit ends the whole level — every *fitting* subset is
//! visited exactly once and every pruned subtree costs `O(1)`.  The
//! representation is width-independent: any number of active processors is
//! supported, and the work is proportional to the number of emitted
//! choices, not to `2^k`.
//!
//! All additions are overflow-checked: a sum that overflows the value type
//! is, a fortiori, larger than the capacity, so the branch is pruned
//! instead of wrapping around (the `u64` search feeds units whose
//! *m*-fold sums may exceed `u64::MAX` — see the headroom notes on
//! [`cr_core::ScaledInstance::try_new`]).
//!
//! # Zero-requirement frontiers always complete
//!
//! A frontier job with zero remaining requirement completes in every
//! emitted choice.  Leaving such a job unfinished can never help: the same
//! choice with the job completed reaches a configuration that strictly
//! dominates (one more job completed, everything else equal), so the
//! dominance filter of Lemma 4 would discard the variant anyway — the old
//! mask scan enumerated those dominated variants only to throw them away,
//! at cost `2^z` for `z` zero-requirement frontiers.  Skipping them keeps
//! wide instances with many idle-requirement processors tractable and
//! matches the exact [`ScheduleBuilder`](cr_core::ScheduleBuilder) replay
//! semantics, which advances zero-requirement frontiers every step
//! regardless of their share.

#[cfg(test)]
use cr_core::CancelToken;
use cr_core::{CancelGate, CancelReason, GridUnit};

/// Reusable buffers for one enumeration (one per search, not one per
/// expansion).
#[derive(Debug, Default, Clone)]
pub(crate) struct EnumScratch {
    /// Positive-remaining entries, sorted ascending by remaining value.
    order: Vec<u32>,
    /// The current finished set: zero-remaining entries first, then the
    /// DFS stack of chosen positive entries.
    finished: Vec<u32>,
    /// Membership flags over the active list for the current finished set.
    in_finished: Vec<bool>,
}

/// Streams every normalized step choice for one active frontier.
///
/// `remaining[i]` is the remaining requirement of the `i`-th *active* entry
/// (the caller maps entry indices to processors); `cap` is the full
/// resource.  For each choice, `emit` receives the finished entries
/// (zero-remaining entries first, then chosen positive entries in ascending
/// remaining order) and the optional partial receiver `(entry, leftover)`.
///
/// The emitted choice set equals the reference bitmask scan restricted to
/// choices that complete every zero-remaining frontier (see the module docs
/// for why the rest are dominated), which the enumerator property test in
/// `multi_engine` asserts.
#[cfg(test)]
pub(crate) fn for_each_choice<V: GridUnit>(
    remaining: &[V],
    cap: V,
    scratch: &mut EnumScratch,
    emit: &mut impl FnMut(&[u32], Option<(u32, V)>),
) {
    let mut gate = CancelToken::never().gate(CHOICE_CHECK_STRIDE);
    for_each_choice_cancellable(remaining, cap, scratch, &mut gate, emit)
        .expect("a never token cannot fire");
}

/// How many DFS extensions pass between token checks: the per-extension
/// work is a handful of integer ops, so even pathological frontiers check
/// far more often than [`cr_core::cancel::CHECK_INTERVAL_MS`] demands.
pub(crate) const CHOICE_CHECK_STRIDE: u32 = 1024;

/// [`for_each_choice`] with cooperative cancellation: the DFS consults
/// `gate` on every subset extension, so an exponentially large choice space
/// stops within one check stride of the token firing.  Choices already
/// emitted before the cut are *not* unwound — callers must discard partial
/// results on `Err`.
pub(crate) fn for_each_choice_cancellable<V: GridUnit>(
    remaining: &[V],
    cap: V,
    scratch: &mut EnumScratch,
    gate: &mut CancelGate,
    emit: &mut impl FnMut(&[u32], Option<(u32, V)>),
) -> Result<(), CancelReason> {
    let k = remaining.len();
    if k == 0 {
        return Ok(());
    }
    let EnumScratch {
        order,
        finished,
        in_finished,
    } = scratch;
    order.clear();
    finished.clear();
    in_finished.clear();
    in_finished.resize(k, false);

    // Zero-remaining frontiers complete in every choice; positives are
    // sorted ascending so the DFS can prune a whole level as soon as one
    // candidate no longer fits.
    let mut total: Option<V> = Some(V::ZERO);
    // lint: allow(cancel_coverage) — bounded: one setup pass over the <= m active jobs; the DFS below is gated
    for (i, &r) in remaining.iter().enumerate() {
        // lint: allow(panic_hygiene) — the active list is bounded by the processor count, far below u32::MAX
        let i = u32::try_from(i).expect("active list fits u32");
        if r == V::ZERO {
            finished.push(i);
            in_finished[i as usize] = true;
        } else {
            order.push(i);
            total = total.and_then(|t| t.checked_add(r));
        }
    }
    order.sort_unstable_by(|&a, &b| {
        remaining[a as usize]
            .cmp(&remaining[b as usize])
            .then(a.cmp(&b))
    });

    // Non-wasting: if everything fits, the only normalized choice finishes
    // every active job (an overflowing total is a fortiori oversubscribed).
    if total.is_some_and(|t| t <= cap) {
        finished.clear();
        // lint: allow(panic_hygiene) — the active list is bounded by the processor count, far below u32::MAX
        finished.extend(0..u32::try_from(k).expect("active list fits u32"));
        emit(finished, None);
        return Ok(());
    }

    // The zeros-only choice: only valid when it wastes nothing, i.e. when
    // the capacity is exhausted by itself.  (With a positive capacity no
    // receiver can absorb the full leftover — remaining requirements never
    // exceed the capacity — so nothing else is emitted for it.)
    if !finished.is_empty() && cap == V::ZERO {
        emit(finished, None);
    }

    let zeros = finished.len();
    // DFS extensions accumulate locally and flush once per enumeration:
    // one relaxed atomic add per call instead of one per node.
    let mut nodes: u64 = 0;
    let result = descend(
        remaining,
        cap,
        order,
        0,
        V::ZERO,
        finished,
        in_finished,
        gate,
        &mut nodes,
        emit,
    );
    crate::obs::subset_dfs_nodes().add(nodes);
    debug_assert!(
        result.is_err() || finished.len() == zeros,
        "DFS unwinds its stack"
    );
    result
}

/// One DFS level: try extending the chosen subset with each not-yet-tried
/// positive entry, emitting the completing choices along the way.
#[allow(clippy::too_many_arguments)]
fn descend<V: GridUnit>(
    remaining: &[V],
    cap: V,
    order: &[u32],
    start: usize,
    sum: V,
    finished: &mut Vec<u32>,
    in_finished: &mut [bool],
    gate: &mut CancelGate,
    nodes: &mut u64,
    emit: &mut impl FnMut(&[u32], Option<(u32, V)>),
) -> Result<(), CancelReason> {
    for pos in start..order.len() {
        gate.tick()?;
        *nodes = nodes.saturating_add(1);
        let entry = order[pos];
        // Checked: an overflowing sum is larger than any capacity.  The
        // candidates are sorted ascending, so the first one that does not
        // fit ends the entire level — this is the prune that replaces the
        // 2^k mask scan.
        let Some(subset_sum) = sum.checked_add(remaining[entry as usize]) else {
            break;
        };
        if subset_sum > cap {
            break;
        }
        finished.push(entry);
        in_finished[entry as usize] = true;

        let leftover = cap.sub(subset_sum);
        if leftover == V::ZERO {
            emit(finished, None);
        } else {
            // Non-wasting: the leftover must go to exactly one remaining
            // active job that cannot be completed with it (otherwise a
            // larger subset covers the case).
            // lint: allow(cancel_coverage) — bounded: one pass over the <= m active jobs per emitted subset; the enclosing DFS is gated
            for (j, &r) in remaining.iter().enumerate() {
                if !in_finished[j] && r > leftover {
                    // lint: allow(panic_hygiene) — the active list is bounded by the processor count, far below u32::MAX
                    let j = u32::try_from(j).expect("active list fits u32");
                    emit(finished, Some((j, leftover)));
                }
            }
        }
        descend(
            remaining,
            cap,
            order,
            pos + 1,
            subset_sum,
            finished,
            in_finished,
            gate,
            nodes,
            emit,
        )?;
        in_finished[entry as usize] = false;
        finished.pop();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One emitted choice: sorted finished entries plus the partial receiver.
    type Choice<V> = (Vec<u32>, Option<(u32, V)>);

    fn collect_choices<V: GridUnit>(remaining: &[V], cap: V) -> Vec<Choice<V>> {
        let mut scratch = EnumScratch::default();
        let mut out = Vec::new();
        for_each_choice(remaining, cap, &mut scratch, &mut |finished, partial| {
            let mut finished = finished.to_vec();
            finished.sort_unstable();
            out.push((finished, partial));
        });
        out
    }

    #[test]
    fn all_fit_emits_single_full_choice() {
        let choices = collect_choices(&[30u64, 40, 30], 100);
        assert_eq!(choices, vec![(vec![0, 1, 2], None)]);
    }

    #[test]
    fn oversubscribed_pair_emits_both_partials() {
        // 60 + 60 > 100: either entry finishes, the other carries 40.
        let choices = collect_choices(&[60u64, 60], 100);
        assert_eq!(choices.len(), 2);
        for (finished, partial) in choices {
            assert_eq!(finished.len(), 1);
            let (receiver, amount) = partial.unwrap();
            assert_ne!(finished[0], receiver);
            assert_eq!(amount, 40);
        }
    }

    #[test]
    fn exact_fill_has_no_partial_receiver() {
        // {0, 1} sums to exactly the capacity.
        let choices = collect_choices(&[40u64, 60, 90], 100);
        assert!(choices.contains(&(vec![0, 1], None)));
        // Singleton 40 leaves 60, which only entry 2 (90 > 60) can carry.
        assert!(choices.contains(&(vec![0], Some((2, 60)))));
        assert!(!choices.contains(&(vec![0], Some((1, 60)))));
    }

    #[test]
    fn zero_remaining_entries_complete_in_every_choice() {
        let choices = collect_choices(&[0u64, 70, 70, 0], 100);
        assert!(!choices.is_empty());
        for (finished, _) in &choices {
            assert!(finished.contains(&0), "zero entry 0 always completes");
            assert!(finished.contains(&3), "zero entry 3 always completes");
        }
    }

    #[test]
    fn sums_near_u64_max_do_not_wrap() {
        // Three entries just below the capacity: the total overflows u64,
        // which must read as "oversubscribed", not wrap to a small sum.
        let cap = u64::MAX / 2;
        let r = cap - 1;
        let choices = collect_choices(&[r, r, r], cap);
        // Only singletons fit; each leaves 1 unit for one of the others.
        assert_eq!(choices.len(), 6);
        for (finished, partial) in choices {
            assert_eq!(finished.len(), 1);
            assert_eq!(partial.unwrap().1, 1);
        }
    }

    #[test]
    fn wide_values_enumerate_like_units() {
        // 60% + 60% of a capacity past u64: the choices of the u64 case.
        let cap = 5u128 << 80;
        let choices = collect_choices(&[3u128 << 80, 3 << 80], cap);
        assert_eq!(choices.len(), 2);
        for (_, partial) in choices {
            assert_eq!(partial.unwrap().1, 2 << 80);
        }
    }

    #[test]
    fn empty_active_list_emits_nothing() {
        let choices = collect_choices::<u64>(&[], 100);
        assert!(choices.is_empty());
    }

    #[test]
    fn cancelled_token_stops_the_dfs_early() {
        let token = CancelToken::new();
        token.cancel();
        let mut gate = token.gate(1);
        let mut scratch = EnumScratch::default();
        let mut emitted = 0usize;
        // Oversubscribed: the full enumeration would emit 8·7 = 56 partial
        // choices; a pre-cancelled stride-1 gate stops at the first check.
        let remaining = vec![60u64; 8];
        let result =
            for_each_choice_cancellable(&remaining, 100, &mut scratch, &mut gate, &mut |_, _| {
                emitted += 1;
            });
        assert_eq!(result, Err(CancelReason::Cancelled));
        assert_eq!(emitted, 0);
    }
}

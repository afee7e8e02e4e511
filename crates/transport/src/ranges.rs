//! An ordered set of disjoint half-open `u64` ranges.
//!
//! Used for receiver-side bookkeeping in both sequence spaces: out-of-order
//! subflow sequence numbers (SACK generation) and out-of-order data sequence
//! bytes (connection-level reassembly).
//!
//! Backed by a sorted ring buffer (`VecDeque`) rather than a `BTreeMap`.
//! The receive path works at the two ends of the set: new data lands at or
//! above the highest range, and pruning and the memory cap remove the
//! lowest ones. Those cases are answered at the ends without a search, so
//! they stay O(1) however many ranges the set holds — and a subflow whose
//! cumulative ACK is stuck at an early hole holds thousands. Only inserts
//! and lookups in the middle fall back to a binary search. A running total
//! makes [`RangeSet::covered`] O(1), and the retained capacity keeps the
//! per-packet receive path allocation-free after warm-up. Pathological sets
//! are bounded by callers via [`RangeSet::truncate_to`].

use std::collections::VecDeque;

/// A set of disjoint, coalesced half-open ranges `[start, end)`.
#[derive(Clone, Debug, Default)]
pub struct RangeSet {
    /// `(start, end)` pairs, sorted ascending, disjoint and non-adjacent.
    v: VecDeque<(u64, u64)>,
    /// Sum of `end - start` over `v`, kept current by every mutation.
    covered: u64,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the range that covers `value`, if any. Values below the
    /// first range or at or above the last range's start are answered
    /// without a search.
    #[inline]
    fn covering(&self, value: u64) -> Option<usize> {
        let (&(fs, _), &(ls, le)) = (self.v.front()?, self.v.back()?);
        if value < fs {
            return None;
        }
        if value >= ls {
            return (value < le).then_some(self.v.len() - 1);
        }
        let p = self.v.partition_point(|&(s, _)| s <= value);
        (self.v[p - 1].1 > value).then_some(p - 1)
    }

    /// Inserts `[start, end)`, merging with overlapping or adjacent ranges.
    pub fn insert(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        // In-order and above-the-top arrivals: extend or push the back.
        if let Some((ls, le)) = self.v.back_mut() {
            if start >= *ls {
                if start > *le {
                    self.v.push_back((start, end));
                    self.covered += end - start;
                } else if end > *le {
                    self.covered += end - *le;
                    *le = end;
                }
                return;
            }
        }
        let p = self.v.partition_point(|&(s, _)| s <= start);
        let mut new_start = start;
        let mut new_end = end;
        let mut lo = p;
        // Merge with a predecessor that overlaps or touches `start`.
        if p > 0 {
            let (ps, pe) = self.v[p - 1];
            if pe >= start {
                if pe >= end {
                    return; // fully contained
                }
                new_start = ps;
                new_end = new_end.max(pe);
                lo = p - 1;
            }
        }
        // Swallow successors overlapped or touched by the new range.
        let mut hi = p;
        while hi < self.v.len() && self.v[hi].0 <= new_end {
            new_end = new_end.max(self.v[hi].1);
            hi += 1;
        }
        let swallowed: u64 = self.v.range(lo..hi).map(|&(s, e)| e - s).sum();
        self.covered = self.covered - swallowed + (new_end - new_start);
        if lo < hi {
            self.v[lo] = (new_start, new_end);
            self.v.drain(lo + 1..hi);
        } else {
            self.v.insert(lo, (new_start, new_end));
        }
    }

    /// `true` if `value` is covered.
    pub fn contains(&self, value: u64) -> bool {
        self.covering(value).is_some()
    }

    /// If the set covers `value`, returns the end of the covering range.
    pub fn end_of_run(&self, value: u64) -> Option<u64> {
        self.covering(value).map(|i| self.v[i].1)
    }

    /// Removes everything below `cutoff`, popping from the front: O(1) when
    /// nothing lies below it, O(ranges removed) otherwise.
    pub fn prune_below(&mut self, cutoff: u64) {
        while let Some((s, e)) = self.v.front_mut() {
            if *s >= cutoff {
                break;
            }
            if *e > cutoff {
                // Straddling range: keep its tail.
                self.covered -= cutoff - *s;
                *s = cutoff;
                break;
            }
            self.covered -= *e - *s;
            self.v.pop_front();
        }
    }

    /// Number of disjoint ranges.
    pub fn num_ranges(&self) -> usize {
        self.v.len()
    }

    /// Total values covered (a running total; O(1)).
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Iterates the `n` highest ranges, highest first, without allocating
    /// (the per-ACK SACK-generation path).
    pub fn iter_highest(&self, n: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.v.iter().rev().take(n).copied()
    }

    /// Iterates all ranges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.v.iter().copied()
    }

    /// `true` if nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Drops the lowest ranges until at most `cap` remain (bounds receiver
    /// memory under sustained loss; the `receiver` module docs say why this
    /// is safe there). Pops from the front: O(excess), no element moves.
    pub fn truncate_to(&mut self, cap: usize) {
        while self.v.len() > cap {
            let (s, e) = self.v.pop_front().expect("len > cap");
            self.covered -= e - s;
        }
    }

    /// Empties the set, retaining capacity (for recycled per-MI sets).
    pub fn clear(&mut self) {
        self.v.clear();
        self.covered = 0;
    }

    /// `true` if the backing buffer upholds the structural invariant:
    /// non-empty ranges, sorted ascending, disjoint and non-adjacent, and a
    /// running total equal to their summed lengths. Used by the runtime
    /// invariant checker; O(n).
    pub fn is_well_formed(&self) -> bool {
        let mut prev_end = None;
        let mut total = 0u64;
        for &(s, e) in &self.v {
            if s >= e || prev_end.is_some_and(|p| p >= s) {
                return false;
            }
            prev_end = Some(e);
            total += e - s;
        }
        total == self.covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcc_simcore::SimRng;

    #[test]
    fn insert_and_merge() {
        let mut rs = RangeSet::new();
        rs.insert(10, 20);
        rs.insert(30, 40);
        assert_eq!(rs.num_ranges(), 2);
        assert_eq!(rs.covered(), 20);
        // Bridge the gap exactly.
        rs.insert(20, 30);
        assert_eq!(rs.num_ranges(), 1);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(10, 40)]);
        assert!(!rs.contains(40));
        assert!(rs.contains(10));
    }

    #[test]
    fn overlapping_inserts_coalesce() {
        let mut rs = RangeSet::new();
        rs.insert(0, 5);
        rs.insert(3, 8);
        rs.insert(7, 9);
        assert_eq!(rs.num_ranges(), 1);
        assert_eq!(rs.covered(), 9);
        // Fully-contained insert is a no-op.
        rs.insert(2, 4);
        assert_eq!(rs.covered(), 9);
    }

    #[test]
    fn insert_swallowing_multiple() {
        let mut rs = RangeSet::new();
        rs.insert(0, 2);
        rs.insert(4, 6);
        rs.insert(8, 10);
        rs.insert(1, 9);
        assert_eq!(rs.num_ranges(), 1);
        assert_eq!(rs.end_of_run(0), Some(10));
        assert_eq!(rs.covered(), 10);
    }

    #[test]
    fn end_of_run() {
        let mut rs = RangeSet::new();
        rs.insert(5, 9);
        assert_eq!(rs.end_of_run(5), Some(9));
        assert_eq!(rs.end_of_run(8), Some(9));
        assert_eq!(rs.end_of_run(9), None);
        assert_eq!(rs.end_of_run(4), None);
    }

    #[test]
    fn prune_below_splits_straddling_range() {
        let mut rs = RangeSet::new();
        rs.insert(0, 10);
        rs.insert(20, 30);
        rs.prune_below(5);
        assert!(!rs.contains(4));
        assert!(rs.contains(5));
        assert!(rs.contains(25));
        assert_eq!(rs.covered(), 15);
    }

    #[test]
    fn iter_highest_returns_descending() {
        let mut rs = RangeSet::new();
        rs.insert(0, 1);
        rs.insert(10, 11);
        rs.insert(20, 21);
        let h: Vec<_> = rs.iter_highest(2).collect();
        assert_eq!(h, vec![(20, 21), (10, 11)]);
    }

    #[test]
    fn truncate_drops_lowest() {
        let mut rs = RangeSet::new();
        for i in 0..10 {
            rs.insert(i * 10, i * 10 + 1);
        }
        rs.truncate_to(3);
        assert_eq!(rs.num_ranges(), 3);
        assert_eq!(rs.covered(), 3);
        assert!(rs.contains(90));
        assert!(!rs.contains(0));
    }

    #[test]
    fn clear_and_well_formedness() {
        let mut rs = RangeSet::new();
        rs.insert(0, 5);
        rs.insert(10, 15);
        assert!(rs.is_well_formed());
        rs.clear();
        assert!(rs.is_empty());
        assert_eq!(rs.covered(), 0);
        assert!(rs.is_well_formed());
        rs.insert(3, 4);
        assert!(rs.contains(3));
    }

    #[test]
    fn empty_range_ignored() {
        let mut rs = RangeSet::new();
        rs.insert(5, 5);
        assert!(rs.is_empty());
        assert!(!rs.contains(5));
    }

    /// The sorted-`Vec` implementation the ring buffer replaced, kept as
    /// the behavioural reference for the differential test below.
    #[derive(Default)]
    struct VecRangeSet {
        v: Vec<(u64, u64)>,
    }

    impl VecRangeSet {
        fn upper_bound(&self, value: u64) -> usize {
            self.v.partition_point(|&(s, _)| s <= value)
        }

        fn insert(&mut self, start: u64, end: u64) {
            if end <= start {
                return;
            }
            let p = self.upper_bound(start);
            let mut new_start = start;
            let mut new_end = end;
            let mut lo = p;
            if p > 0 {
                let (ps, pe) = self.v[p - 1];
                if pe >= start {
                    if pe >= end {
                        return;
                    }
                    new_start = ps;
                    new_end = new_end.max(pe);
                    lo = p - 1;
                }
            }
            let mut hi = p;
            while hi < self.v.len() && self.v[hi].0 <= new_end {
                new_end = new_end.max(self.v[hi].1);
                hi += 1;
            }
            if lo < hi {
                self.v[lo] = (new_start, new_end);
                self.v.drain(lo + 1..hi);
            } else {
                self.v.insert(lo, (new_start, new_end));
            }
        }

        fn contains(&self, value: u64) -> bool {
            let p = self.upper_bound(value);
            p > 0 && self.v[p - 1].1 > value
        }

        fn end_of_run(&self, value: u64) -> Option<u64> {
            let p = self.upper_bound(value);
            (p > 0 && self.v[p - 1].1 > value).then(|| self.v[p - 1].1)
        }

        fn prune_below(&mut self, cutoff: u64) {
            let mut k = self.v.partition_point(|&(s, _)| s < cutoff);
            if k > 0 && self.v[k - 1].1 > cutoff {
                self.v[k - 1].0 = cutoff;
                k -= 1;
            }
            self.v.drain(..k);
        }

        fn covered(&self) -> u64 {
            self.v.iter().map(|&(s, e)| e - s).sum()
        }

        fn truncate_to(&mut self, cap: usize) {
            if self.v.len() > cap {
                let excess = self.v.len() - cap;
                self.v.drain(..excess);
            }
        }

        fn is_well_formed(&self) -> bool {
            self.v.iter().all(|&(s, e)| s < e) && self.v.windows(2).all(|w| w[0].1 < w[1].0)
        }
    }

    enum Op {
        Insert(u64, u64),
        PruneBelow(u64),
        TruncateTo(usize),
        Clear,
    }

    /// Asserts that every query agrees between the two implementations,
    /// probing `contains` and `end_of_run` at `probes`.
    fn assert_agree(rs: &RangeSet, reference: &VecRangeSet, probes: &[u64], at: &str) {
        assert!(rs.is_well_formed(), "malformed {at}");
        assert!(reference.is_well_formed(), "reference malformed {at}");
        assert_eq!(rs.num_ranges(), reference.v.len(), "num_ranges {at}");
        assert_eq!(rs.covered(), reference.covered(), "covered {at}");
        let highest: Vec<_> = reference.v.iter().rev().take(4).copied().collect();
        assert_eq!(
            rs.iter_highest(4).collect::<Vec<_>>(),
            highest,
            "iter_highest {at}"
        );
        for &p in probes {
            assert_eq!(rs.contains(p), reference.contains(p), "contains({p}) {at}");
            assert_eq!(
                rs.end_of_run(p),
                reference.end_of_run(p),
                "end_of_run({p}) {at}"
            );
        }
    }

    /// The ring buffer against the sorted-`Vec` reference on seeded random
    /// op sequences — tail appends, middle and front inserts, duplicates,
    /// pruning, truncation at a small cap and clears — asserting identical
    /// answers from every query after every op.
    #[test]
    fn differential_ring_vs_vec_reference() {
        const CAP: usize = 24;
        for seed in 0..8u64 {
            let mut rng = SimRng::seed_from_u64(0x5E7 ^ seed);
            let mut rs = RangeSet::new();
            let mut reference = VecRangeSet::default();
            // The highest value inserted so far: tail appends start near it.
            let mut top = 0u64;
            for step in 0..20_000u32 {
                let r = rng.next_u64();
                let len = 1 + r % 4;
                let lowest = reference.v.first().map_or(0, |r| r.0);
                let op = match r % 16 {
                    // Tail append: in order, touching or leaving a hole.
                    0..=5 => {
                        let start = top + rng.next_u64() % 3;
                        Op::Insert(start, start + len)
                    }
                    // Middle or front insert, possibly overlapping or
                    // duplicating existing ranges.
                    6..=9 => {
                        let start = rng.next_u64() % (top + 1);
                        Op::Insert(start, start + len)
                    }
                    // Exact duplicate of an existing range.
                    10 => match reference.v.get(r as usize % (reference.v.len() + 1)) {
                        Some(&(s, e)) => Op::Insert(s, e),
                        None => Op::Insert(top, top + len),
                    },
                    // Empty range.
                    11 => Op::Insert(top, top),
                    12 | 13 => Op::PruneBelow(lowest + rng.next_u64() % 8),
                    14 => Op::TruncateTo(CAP),
                    _ if rng.next_u64().is_multiple_of(64) => Op::Clear,
                    _ => continue,
                };
                match op {
                    Op::Insert(start, end) => {
                        rs.insert(start, end);
                        reference.insert(start, end);
                        top = top.max(end);
                    }
                    Op::PruneBelow(cutoff) => {
                        rs.prune_below(cutoff);
                        reference.prune_below(cutoff);
                    }
                    Op::TruncateTo(cap) => {
                        rs.truncate_to(cap);
                        reference.truncate_to(cap);
                    }
                    Op::Clear => {
                        rs.clear();
                        reference.v.clear();
                    }
                }
                let lowest = reference.v.first().map_or(0, |r| r.0);
                let probes = [
                    lowest.saturating_sub(1),
                    lowest,
                    rng.next_u64() % (top + 2),
                    top.saturating_sub(1),
                    top,
                ];
                assert_agree(
                    &rs,
                    &reference,
                    &probes,
                    &format!("at step {step} (seed {seed})"),
                );
            }
            assert!(rs.iter().eq(reference.v.iter().copied()));
        }
    }
}

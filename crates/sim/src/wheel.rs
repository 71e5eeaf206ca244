//! A hierarchical timer wheel for the jump-to-deadline virtual clock.
//!
//! Replaces the `BinaryHeap<(deadline, seq, waker)>` timer queue. Eleven
//! levels of 64 slots (6 bits per level, 66 bits total) cover the full `u64`
//! nanosecond range, so there is no overflow list. Insertion, cascade steps,
//! and firing are all O(1) amortised per entry, and the slot vectors retain
//! their capacity, so a warmed-up wheel performs no allocator traffic.
//!
//! # Determinism
//!
//! The executor's contract is that timers fire in `(deadline, seq)` order —
//! same-deadline entries in registration order. The wheel preserves this with
//! one invariant, maintained by [`Wheel::advance_to`]: *an entry stored at
//! level `L` always differs from the cursor in its level-`L` digit* (digits
//! are 6-bit groups of the deadline). Whenever the cursor moves, the sweep in
//! `advance_to` redistributes, from the highest level down, every slot the
//! cursor just moved "into". Consequence: two entries with the same deadline
//! are always filed in the *same* slot (slot paths depend only on the
//! deadline, and the invariant guarantees the earlier entry has cascaded down
//! at least as far as the later one is inserted), in insertion order — so a
//! slot drain yields them FIFO, exactly like the heap's `(deadline, seq)`
//! order. Without the sweep, an entry registered early (filed high) could be
//! overtaken by a same-deadline entry registered late (filed low); the
//! `stale_high_level_entry_keeps_fifo_with_later_same_deadline` test pins
//! this.
//!
//! The cursor only ever advances to a value `<=` the minimum pending
//! deadline, which keeps every occupied slot's absolute time reconstructible
//! from the cursor's upper digits.

use std::collections::VecDeque;

/// Bits per wheel level: 64 slots each.
const BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Levels: ceil(64 / 6) = 11 covers any u64 deadline.
const LEVELS: usize = 11;
const SLOT_MASK: u64 = SLOTS as u64 - 1;

/// A hierarchical timer wheel mapping `(deadline, seq)` to payloads `T`
/// (the executor stores wakers; tests store markers).
pub(crate) struct Wheel<T> {
    /// All stored deadlines are `>= cursor`; never exceeds the minimum
    /// pending deadline.
    cursor: u64,
    len: usize,
    /// Per-level occupancy bitmaps (bit = slot has entries).
    occupied: [u64; LEVELS],
    slots: Vec<Vec<(u64, u64, T)>>,
    /// Reusable cascade buffer.
    scratch: Vec<(u64, u64, T)>,
}

impl<T> Wheel<T> {
    pub fn new() -> Self {
        Wheel {
            cursor: 0,
            len: 0,
            occupied: [0; LEVELS],
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            scratch: Vec::new(),
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Level of `deadline` relative to the cursor: the highest 6-bit digit
    /// in which they differ (0 when equal).
    fn level_of(&self, deadline: u64) -> usize {
        let x = deadline ^ self.cursor;
        if x == 0 {
            0
        } else {
            (63 - x.leading_zeros()) as usize / BITS as usize
        }
    }

    pub fn insert(&mut self, deadline: u64, seq: u64, value: T) {
        // Late registrations (deadline at/behind the cursor) file at the
        // cursor and fire on the next pop, like the heap's `<= now` firing.
        let deadline = deadline.max(self.cursor);
        let level = self.level_of(deadline);
        let slot = ((deadline >> (BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + slot].push((deadline, seq, value));
        self.occupied[level] |= 1 << slot;
        self.len += 1;
    }

    /// Puts back an entry [`remove`](Self::remove) took out, at its place
    /// among the entries of its deadline: by `seq`, not behind them.
    pub fn reinsert(&mut self, deadline: u64, seq: u64, value: T) {
        let deadline = deadline.max(self.cursor);
        let level = self.level_of(deadline);
        let slot = ((deadline >> (BITS * level as u32)) & SLOT_MASK) as usize;
        let entries = &mut self.slots[level * SLOTS + slot];
        let at = entries
            .iter()
            .position(|e| e.0 == deadline && e.1 > seq)
            .unwrap_or(entries.len());
        entries.insert(at, (deadline, seq, value));
        self.occupied[level] |= 1 << slot;
        self.len += 1;
    }

    /// Takes out the pending entry `(deadline, seq)` (a deadline that was
    /// late when it was inserted is found at the cursor, where it was filed):
    /// `None` if it has fired, or never was. The others keep their order.
    pub fn remove(&mut self, deadline: u64, seq: u64) -> Option<T> {
        // A pending entry stays at the level of its highest digit that
        // differs from the cursor: the cursor never passes it, so it only
        // moves below that digit, and a sweep re-files the entry when the
        // digit itself comes to match.
        let deadline = deadline.max(self.cursor);
        let level = self.level_of(deadline);
        let slot = ((deadline >> (BITS * level as u32)) & SLOT_MASK) as usize;
        let entries = &mut self.slots[level * SLOTS + slot];
        let at = entries.iter().position(|e| e.0 == deadline && e.1 == seq)?;
        let (_, _, value) = entries.remove(at);
        if entries.is_empty() {
            self.occupied[level] &= !(1 << slot);
        }
        self.len -= 1;
        Some(value)
    }

    /// Moves the cursor to `to` and restores the level invariant: every slot
    /// whose digit the cursor now matches is pushed down a level (highest
    /// level first, so entries settle in one sweep). Only the levels at or
    /// below the highest digit that changed can hold such a slot: above it
    /// the cursor's digits stand, and below it nothing is filed, because the
    /// cursor never passes the minimum pending deadline.
    fn advance_to(&mut self, to: u64) {
        debug_assert!(to >= self.cursor);
        let changed = self.level_of(to);
        self.cursor = to;
        for level in (1..=changed).rev() {
            let slot = ((to >> (BITS * level as u32)) & SLOT_MASK) as usize;
            if self.occupied[level] & (1 << slot) != 0 {
                self.redistribute(level, slot);
            }
        }
    }

    /// Re-files every entry of one slot against the current cursor. Entries
    /// land at strictly lower levels, preserving their relative order.
    fn redistribute(&mut self, level: usize, slot: usize) {
        let idx = level * SLOTS + slot;
        debug_assert!(self.scratch.is_empty());
        let mut batch = std::mem::take(&mut self.scratch);
        batch.append(&mut self.slots[idx]);
        self.occupied[level] &= !(1 << slot);
        self.len -= batch.len();
        for (deadline, seq, value) in batch.drain(..) {
            debug_assert!(self.level_of(deadline) < level);
            self.insert(deadline, seq, value);
        }
        self.scratch = batch;
    }

    /// Pops every entry of the earliest pending deadline into `out`, in
    /// `(deadline, seq)` order (same-deadline entries FIFO), and returns that
    /// deadline; `None` when the wheel is empty.
    ///
    /// The cursor ends on the returned deadline, never past it: the caller's
    /// clock jumps there, and tasks it wakes may register fresh timers for
    /// deadlines barely after it, which a cursor that had cascaded toward
    /// some later deadline would misfile.
    pub fn pop_next(&mut self, out: &mut VecDeque<(u64, u64, T)>) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        while self.occupied[0] == 0 {
            // Lowest occupied slot of the lowest occupied level bounds the
            // minimum; jump the cursor to its base time and split it.
            let level = (1..LEVELS)
                .find(|&l| self.occupied[l] != 0)
                .expect("a non-empty wheel has an occupied slot at some level");
            let slot = self.occupied[level].trailing_zeros() as u64;
            let shift = BITS * level as u32;
            let above = if shift + BITS >= 64 {
                0
            } else {
                !((1u64 << (shift + BITS)) - 1)
            };
            let base = (self.cursor & above) | (slot << shift);
            debug_assert!(base > self.cursor);
            self.advance_to(base);
        }
        // Level-0 entries sit in the cursor's 64 ns frame and everything at
        // higher levels is beyond it, so the lowest slot is the minimum, and
        // holds only entries of that exact deadline.
        let slot = self.occupied[0].trailing_zeros() as usize;
        let deadline = (self.cursor & !SLOT_MASK) | slot as u64;
        self.advance_to(deadline);
        debug_assert!(self.slots[slot].iter().all(|e| e.0 == deadline));
        self.len -= self.slots[slot].len();
        self.occupied[0] &= !(1 << slot);
        out.extend(self.slots[slot].drain(..));
        Some(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The next instant's `(deadline, seq)` pairs, or `None` when empty.
    fn pop(w: &mut Wheel<u64>) -> Option<(u64, Vec<(u64, u64)>)> {
        let mut out = VecDeque::new();
        let d = w.pop_next(&mut out)?;
        Some((d, out.into_iter().map(|(d, s, _)| (d, s)).collect()))
    }

    #[test]
    fn same_deadline_fires_in_insertion_order() {
        let mut w = Wheel::new();
        for seq in 0..10u64 {
            w.insert(1_000, seq, seq);
        }
        assert_eq!(w.len(), 10);
        let fired = (1_000, (0..10).map(|s| (1_000, s)).collect::<Vec<_>>());
        assert_eq!(pop(&mut w), Some(fired));
        assert!(w.is_empty());
        assert_eq!(pop(&mut w), None);
    }

    #[test]
    fn scattered_deadlines_pop_in_sorted_order() {
        // A spread of deadlines across many levels, inserted out of order.
        let deadlines = [
            5u64,
            63,
            64,
            65,
            4_095,
            4_096,
            1 << 20,
            (1 << 20) + 1,
            (1 << 35) + 17,
            (1 << 50) + 3,
            u64::MAX / 2,
            u64::MAX - 1,
        ];
        let mut w = Wheel::new();
        for (seq, &d) in deadlines.iter().rev().enumerate() {
            w.insert(d, seq as u64, d);
        }
        let mut sorted = deadlines.to_vec();
        sorted.sort_unstable();
        let mut got = Vec::new();
        let mut out = VecDeque::new();
        while let Some(d) = w.pop_next(&mut out) {
            assert_eq!(d, sorted[got.len()], "wheel must pop the exact minimum");
            for (dd, _, v) in out.drain(..) {
                assert_eq!(dd, v);
                got.push(dd);
            }
        }
        assert_eq!(got, sorted);
    }

    #[test]
    fn far_future_entry_cascades_down_exactly() {
        let mut w = Wheel::new();
        // Top-level entry: 60+ bits away from the cursor.
        let far = (1u64 << 62) + 12_345;
        w.insert(far, 0, 1);
        // A near entry fires first and drags the cursor forward.
        w.insert(10, 1, 2);
        assert_eq!(pop(&mut w), Some((10, vec![(10, 1)])));
        // The far entry must survive every cascade level intact.
        assert_eq!(pop(&mut w), Some((far, vec![(far, 0)])));
        assert!(w.is_empty());
    }

    #[test]
    fn stale_high_level_entry_keeps_fifo_with_later_same_deadline() {
        // Regression for the cascade sweep: A registers for deadline D while
        // the cursor is far away (files high); the cursor then advances close
        // to D; B registers for the same D (files low). A must still fire
        // before B.
        let d = (1u64 << 18) + 42;
        let mut w = Wheel::new();
        w.insert(d, 0, 0); // A, filed at a high level
        w.insert(1 << 18, 1, 1); // intermediate timer pulls the cursor near D
        assert_eq!(pop(&mut w), Some((1 << 18, vec![(1 << 18, 1)])));
        w.insert(d, 2, 2); // B, same deadline, registered later
        assert_eq!(pop(&mut w), Some((d, vec![(d, 0), (d, 2)])));
    }

    #[test]
    fn pop_next_never_drags_the_cursor_past_the_popped_deadline() {
        // Regression: with a far-future timer pending, popping the near one
        // must not cascade the cursor toward it — a timer registered just
        // after the pop (deadline barely past it) would be misfiled and fire
        // at the wrong virtual time.
        let mut w = Wheel::new();
        w.insert(1_000, 0, 0); // near
        w.insert(10_000, 1, 1); // far (different level-1 slot)
        assert_eq!(pop(&mut w), Some((1_000, vec![(1_000, 0)])));
        // Woken task re-arms for now + 1µs, well before the far timer.
        w.insert(2_000, 2, 2);
        assert_eq!(pop(&mut w), Some((2_000, vec![(2_000, 2)])));
        assert_eq!(pop(&mut w), Some((10_000, vec![(10_000, 1)])));
    }

    #[test]
    fn late_insert_fires_immediately_on_next_pop() {
        let mut w = Wheel::new();
        w.insert(100, 0, 0);
        w.insert(7_000, 1, 1);
        assert_eq!(pop(&mut w), Some((100, vec![(100, 0)])));
        // Deadline behind the cursor clamps to the cursor and still fires.
        w.insert(5, 2, 2);
        assert_eq!(pop(&mut w), Some((100, vec![(100, 2)])));
        assert_eq!(pop(&mut w), Some((7_000, vec![(7_000, 1)])));
    }

    /// Property: under arbitrary interleavings of inserts, removals,
    /// re-inserts of removed entries not yet due and pops, the wheel pops the
    /// earliest pending deadline each time, with all of its entries in
    /// insertion order — against a sorted `(deadline, seq)` model. Deadlines
    /// sit on, just below and just above the boundaries of every level, and
    /// some are late: behind the cursor, which the wheel clamps to the
    /// cursor, as the model does.
    #[test]
    fn prop_interleaved_inserts_preserve_deadline_seq_order() {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rng = move || {
            // splitmix64 — self-contained, deterministic.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _case in 0..40 {
            let mut w: Wheel<u64> = Wheel::new();
            let mut model: Vec<(u64, u64)> = Vec::new(); // (deadline, seq)
                                                         // Removed entries, as the wheel was handed them.
            let mut removed: Vec<(u64, u64)> = Vec::new();
            let mut now: u64 = 0;
            let mut seq: u64 = 0;
            let mut out = VecDeque::new();
            for _op in 0..400 {
                if rng() % 4 == 0 && !model.is_empty() {
                    // Take one out, by the deadline it was inserted with
                    // (a late one's is behind the cursor); put back one
                    // taken out before, if it is not yet due.
                    let (d, s) = model.swap_remove((rng() % model.len() as u64) as usize);
                    let asked = if d == now { now - rng() % (now + 1) } else { d };
                    assert_eq!(w.remove(asked, s), Some(s));
                    assert_eq!(w.remove(d, s), None, "removed once");
                    removed.push((d, s));
                    let back = (rng() % removed.len() as u64) as usize;
                    if rng() % 2 == 0 && removed[back].0 >= now {
                        let (d, s) = removed.swap_remove(back);
                        w.reinsert(d, s, s);
                        model.push((d, s));
                    }
                } else if rng() % 3 != 0 {
                    // A burst of inserts: mixed horizons, frequent ties.
                    for _ in 0..(rng() % 8 + 1) {
                        let d = match rng() % 5 {
                            0 => now + rng() % 64,                  // same level-0 frame
                            1 => now.saturating_sub(rng() % 4_096), // late
                            2 => now + rng() % 1_000_000,
                            _ => {
                                // A level boundary past `now`, give or take 2.
                                let unit = 1u64 << (BITS * (1 + rng() % 7) as u32);
                                ((now / unit + 1 + rng() % 3) * unit + rng() % 5).saturating_sub(2)
                            }
                        };
                        w.insert(d, seq, seq);
                        model.push((d.max(now), seq));
                        seq += 1;
                    }
                } else {
                    out.clear();
                    let popped = w.pop_next(&mut out);
                    let min = model.iter().map(|&(d, _)| d).min();
                    assert_eq!(popped, min, "the wheel popped another instant");
                    let Some(min) = min else { continue };
                    let mut expect: Vec<(u64, u64)> =
                        model.iter().copied().filter(|&(d, _)| d == min).collect();
                    expect.sort(); // (deadline, seq): exact expiry order
                    model.retain(|&(d, _)| d != min);
                    let got: Vec<(u64, u64)> = out.iter().map(|&(d, s, _)| (d, s)).collect();
                    assert_eq!(got, expect, "pop at {min} diverged from model");
                    now = min;
                }
                assert_eq!(w.len(), model.len());
            }
        }
    }

    #[test]
    fn slot_capacity_is_reused_across_rounds() {
        let mut w = Wheel::new();
        let mut out = VecDeque::new();
        for round in 0..50u64 {
            let base = round * 1000;
            for seq in 0..32u64 {
                w.insert(base + (seq % 4), seq, seq);
            }
            out.clear();
            while w.pop_next(&mut out).is_some() {}
            assert_eq!(out.len(), 32);
            assert!(w.is_empty());
        }
    }
}

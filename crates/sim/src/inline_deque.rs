//! A double-ended queue that holds its first element inline.
//!
//! Most per-connection queues of a simulated cluster — a client's CQ ring,
//! a TCP pipe's chunks, a wait list's parked tasks, a pool's free cells —
//! never hold two entries at once for a window-1 connection. Such a queue
//! keeps its front element in the block that already holds it and
//! allocates nothing; a second element spills into a `VecDeque` behind it,
//! which keeps its capacity when emptied. Invariant: `rest` is empty while
//! `first` is; every method that takes the front moves the spill's up.
//!
//! A deque of `(instant, value)` is the one due-ordered store under
//! `sim::sync` and the RNIC's CQs: [`push_due`](InlineDeque::push_due)
//! keeps it in `(instant, push)` order, [`due`](InlineDeque::due) counts the
//! entries due by an instant.

use std::collections::VecDeque;

use crate::SimTime;

/// See the [module docs](self).
pub struct InlineDeque<T> {
    /// The front element.
    first: Option<T>,
    /// The elements behind it, in order.
    rest: VecDeque<T>,
}

impl<T> InlineDeque<T> {
    pub const fn new() -> Self {
        InlineDeque {
            first: None,
            rest: VecDeque::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.first.is_some() as usize + self.rest.len()
    }

    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    pub fn push_back(&mut self, value: T) {
        match self.first {
            None => self.first = Some(value),
            Some(_) => self.rest.push_back(value),
        }
    }

    pub fn push_front(&mut self, value: T) {
        if let Some(old) = self.first.replace(value) {
            self.rest.push_front(old);
        }
    }

    pub fn pop_front(&mut self) -> Option<T> {
        let next = self.rest.pop_front();
        std::mem::replace(&mut self.first, next)
    }

    pub fn pop_back(&mut self) -> Option<T> {
        self.rest.pop_back().or_else(|| self.first.take())
    }

    pub fn front(&self) -> Option<&T> {
        self.first.as_ref()
    }

    pub fn back(&self) -> Option<&T> {
        self.rest.back().or(self.first.as_ref())
    }

    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        match index {
            0 => self.first.as_mut(),
            _ => self.rest.get_mut(index - 1),
        }
    }

    /// Inserts `value` at `index`, shifting the elements from there back.
    ///
    /// # Panics
    /// Panics if `index` is greater than the length.
    pub fn insert(&mut self, index: usize, value: T) {
        match index {
            0 => self.push_front(value),
            _ if self.first.is_none() => panic!("insert index {index} out of bounds (len 0)"),
            _ => self.rest.insert(index - 1, value),
        }
    }

    /// Removes and returns the element at `index`, `None` if there is none.
    pub fn remove(&mut self, index: usize) -> Option<T> {
        match index {
            0 => self.pop_front(),
            _ => self.rest.remove(index - 1),
        }
    }

    /// Keeps only the elements `keep` accepts, asking front to back. The
    /// spill keeps its capacity.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let first_gone = self.first.as_ref().is_some_and(|e| !keep(e));
        self.rest.retain(keep);
        if first_gone {
            self.first = self.rest.pop_front();
        }
    }

    /// Drops every element; the spill keeps its capacity.
    pub fn clear(&mut self) {
        self.first = None;
        self.rest.clear();
    }

    /// How many elements, from the front, `pred` accepts, in a deque where
    /// it accepts a prefix — as [`VecDeque::partition_point`].
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        match &self.first {
            Some(first) if pred(first) => 1 + self.rest.partition_point(pred),
            _ => 0,
        }
    }

    /// The index of the element whose key is `key`, in a deque sorted by key.
    pub fn find_by_key<K: Ord>(&self, key: K, f: impl Fn(&T) -> K) -> Option<usize> {
        let at = self.partition_point(|e| f(e) < key);
        let found = self.iter_from(at).next().is_some_and(|e| f(e) == key);
        found.then_some(at)
    }

    /// Front to back.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + Clone {
        self.iter_from(0)
    }

    /// Front to back from `start`, as `VecDeque::range(start..)`: panics if
    /// `start` is past the end.
    pub fn iter_from(&self, start: usize) -> impl DoubleEndedIterator<Item = &T> + Clone {
        assert!(start <= self.len(), "range start {start} out of bounds");
        let (first, rest) = match start {
            0 => (self.first.as_ref(), self.rest.range(..)),
            _ => (None, self.rest.range(start - 1..)),
        };
        first.into_iter().chain(rest)
    }

    /// Front to back, mutably.
    pub fn iter_mut(&mut self) -> impl DoubleEndedIterator<Item = &mut T> {
        self.first.iter_mut().chain(&mut self.rest)
    }
}

impl<T> InlineDeque<(SimTime, T)> {
    /// Queues `value` for `at`, behind every entry due no later: the deque
    /// stays in `(instant, push order)` order. O(1) when `at` is the latest.
    pub fn push_due(&mut self, at: SimTime, value: T) {
        self.insert(self.due(at), (at, value));
    }

    /// How many entries, from the front, are due by `now`. O(1) when the
    /// back one is.
    pub fn due(&self, now: SimTime) -> usize {
        match self.back() {
            Some(back) if back.0 > now => self.partition_point(|e| e.0 <= now),
            _ => self.len(),
        }
    }
}

impl<T> Default for InlineDeque<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Extend<T> for InlineDeque<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        iter.into_iter().for_each(|e| self.push_back(e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// An element that logs its drop, so a test can see each one dropped
    /// exactly once.
    struct Tracked {
        id: u64,
        drops: Rc<RefCell<Vec<u64>>>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.drops.borrow_mut().push(self.id);
        }
    }

    fn ids<'a>(it: impl Iterator<Item = &'a Tracked>) -> Vec<u64> {
        it.map(|t| t.id).collect()
    }

    /// Random pushes and pops at both ends, inserts, removes, retains,
    /// clears and searches against `VecDeque` over the same ids, at every
    /// step comparing contents, both ends, indexing and iteration both
    /// ways. Every element is dropped exactly once, and none before it
    /// leaves the model too.
    #[test]
    fn model_against_vecdeque() {
        for seed in 0..200u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let drops = Rc::new(RefCell::new(Vec::new()));
            let mut deque = InlineDeque::new();
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut next_id = 0;
            let mut removed = Vec::new();
            let mut make = |drops: &Rc<RefCell<Vec<u64>>>| {
                next_id += 1;
                Tracked {
                    id: next_id,
                    drops: Rc::clone(drops),
                }
            };
            for _ in 0..300 {
                let len = model.len();
                match rng.below(10) {
                    0 | 1 => {
                        let t = make(&drops);
                        model.push_back(t.id);
                        deque.push_back(t);
                    }
                    2 => {
                        let t = make(&drops);
                        model.push_front(t.id);
                        deque.push_front(t);
                    }
                    3 => {
                        let got = deque.pop_front().map(|t| t.id);
                        assert_eq!(got, model.pop_front());
                        removed.extend(got);
                    }
                    4 => {
                        let got = deque.pop_back().map(|t| t.id);
                        assert_eq!(got, model.pop_back());
                        removed.extend(got);
                    }
                    5 => {
                        let at = rng.below(len as u64 + 1) as usize;
                        let t = make(&drops);
                        model.insert(at, t.id);
                        deque.insert(at, t);
                    }
                    6 => {
                        let at = rng.below(len as u64 + 2) as usize;
                        let got = deque.remove(at).map(|t| t.id);
                        assert_eq!(got, model.remove(at));
                        removed.extend(got);
                    }
                    7 => {
                        let m = rng.below(4) + 2;
                        let mut asked = Vec::new();
                        deque.retain(|t| {
                            asked.push(t.id);
                            t.id % m != 0
                        });
                        assert_eq!(asked, Vec::from(model.clone()), "asked front to back");
                        removed.extend(model.iter().filter(|&&id| id % m == 0));
                        model.retain(|id| id % m != 0);
                    }
                    8 => {
                        if rng.below(8) == 0 {
                            deque.clear();
                            removed.extend(model.drain(..));
                        }
                    }
                    _ => {
                        let mut sorted = Vec::from(model.clone());
                        sorted.sort_unstable();
                        let mut search = InlineDeque::new();
                        search.extend(sorted.iter().copied());
                        let probe = rng.below(400);
                        assert_eq!(
                            search.find_by_key(probe, |&id| id),
                            sorted.binary_search(&probe).ok()
                        );
                        assert_eq!(
                            search.partition_point(|&id| id < probe),
                            sorted.partition_point(|&id| id < probe)
                        );
                        if let Some(t) = deque.get_mut(rng.below(len as u64 + 1) as usize) {
                            assert!(model.contains(&t.id));
                        }
                    }
                }
                assert_eq!(deque.len(), model.len());
                assert_eq!(deque.is_empty(), model.is_empty());
                assert_eq!(ids(deque.iter()), Vec::from(model.clone()));
                assert_eq!(
                    ids(deque.iter().rev()),
                    model.iter().rev().copied().collect::<Vec<_>>()
                );
                assert_eq!(deque.front().map(|t| t.id), model.front().copied());
                let at = rng.below(model.len() as u64 + 1) as usize;
                assert_eq!(
                    ids(deque.iter_from(at)),
                    model.range(at..).copied().collect::<Vec<_>>()
                );
                assert_eq!(deque.iter().nth(at).map(|t| t.id), model.get(at).copied());
                let mut dropped = drops.borrow().clone();
                dropped.sort_unstable();
                let mut expected = removed.clone();
                expected.sort_unstable();
                assert_eq!(
                    dropped, expected,
                    "seed {seed}: dropped exactly what left, once"
                );
            }
            let left: Vec<u64> = model.into_iter().collect();
            drop(deque);
            let mut dropped = drops.borrow().clone();
            dropped.sort_unstable();
            removed.extend(left);
            removed.sort_unstable();
            assert_eq!(
                dropped, removed,
                "seed {seed}: every element dropped exactly once"
            );
        }
    }

    /// The due store against the heap `DueQueue` kept before it: the same
    /// pushes — out of order, ties at one instant, some already due — into
    /// `push_due` and into a `BinaryHeap` of `(due, push order)`, popped
    /// while `now` advances, come out in the same sequence, and `due(now)`
    /// counts exactly the heap's entries due by then.
    #[test]
    fn the_due_store_pops_as_the_heap_it_replaced() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let (mut out_of_order, mut ties, mut pops) = (0, 0, 0);
        for seed in 0..200u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut store = InlineDeque::new();
            let mut heap = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            let (mut from_store, mut from_heap) = (Vec::new(), Vec::new());
            for _ in 0..400 {
                match rng.below(8) {
                    // A push on a 10 ns grid, from 20 ns past to 60 ns ahead.
                    0..=3 => {
                        let due = (now + rng.below(9) * 10).saturating_sub(20);
                        out_of_order += store.back().is_some_and(|b: &(SimTime, u64)| b.0.as_nanos() > due) as u32;
                        ties += heap.iter().any(|e: &Reverse<(u64, u64)>| e.0 .0 == due) as u32;
                        store.push_due(SimTime::from_nanos(due), seq);
                        heap.push(Reverse((due, seq)));
                        seq += 1;
                    }
                    4 | 5 => now += rng.below(3) * 5,
                    _ => {
                        if store.front().is_some_and(|e| e.0.as_nanos() <= now) {
                            from_store.extend(store.pop_front().map(|e| e.1));
                        }
                        if heap.peek().is_some_and(|e| e.0 .0 <= now) {
                            from_heap.extend(heap.pop().map(|e| e.0 .1));
                            pops += 1;
                        }
                    }
                }
                let due = heap.iter().filter(|e| e.0 .0 <= now).count();
                assert_eq!(store.due(SimTime::from_nanos(now)), due, "seed {seed}");
                assert_eq!(store.len(), heap.len());
            }
            assert_eq!(from_store, from_heap, "seed {seed}: the pop sequence");
        }
        assert!(
            out_of_order > 5_000 && ties > 5_000 && pops > 5_000,
            "out of order {out_of_order}, ties {ties}, pops {pops}"
        );
    }

    /// One element never allocates; a warm deque keeps its spill through
    /// being emptied every way there is, and refills it without growing.
    #[test]
    fn a_warm_deque_keeps_its_spill() {
        let mut q = InlineDeque::new();
        q.push_back(0u32);
        assert_eq!(q.pop_front(), Some(0));
        q.push_front(1);
        assert_eq!(q.pop_back(), Some(1));
        assert_eq!(q.rest.capacity(), 0, "one at a time never spills");
        q.extend(0..9);
        let warm = q.rest.capacity();
        assert!(warm >= 8);
        for empty in 0..4 {
            match empty {
                0 => while q.pop_front().is_some() {},
                1 => q.clear(),
                2 => q.retain(|_| false),
                _ => while q.pop_back().is_some() {},
            }
            assert!(q.is_empty());
            assert_eq!(q.rest.capacity(), warm, "emptied by way {empty}");
            q.extend(0..9);
            assert_eq!(q.rest.capacity(), warm, "refilled after way {empty}");
        }
    }
}

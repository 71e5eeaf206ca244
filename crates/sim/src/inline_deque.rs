//! A double-ended queue that holds its first element inline.
//!
//! Most per-connection queues of a simulated cluster — a client's CQ ring,
//! a TCP pipe's chunks, a producer's ack waiters, a wait list's parked
//! tasks, a pool's free cells — never hold more than one entry at a time
//! for a window-1 connection. An [`InlineDeque`] stores its front element
//! in the block that already holds the deque, so such a queue allocates
//! nothing; a second element spills into a `VecDeque` behind it, which
//! keeps its capacity when emptied, so a warm queue allocates nothing
//! either.
//!
//! Invariant: `rest` is empty while `first` is. Every method that takes
//! the front moves the spill's front up.

use std::collections::VecDeque;

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

    /// The index of the element whose key is `key`, in a deque sorted by
    /// key, or where one would be inserted to keep it sorted — as
    /// [`VecDeque::binary_search_by_key`].
    pub fn binary_search_by_key<K: Ord>(
        &self,
        key: &K,
        mut f: impl FnMut(&T) -> K,
    ) -> Result<usize, usize> {
        use std::cmp::Ordering::*;
        match self.first.as_ref().map(|e| f(e).cmp(key)) {
            None | Some(Greater) => Err(0),
            Some(Equal) => Ok(0),
            Some(Less) => match self.rest.binary_search_by_key(key, f) {
                Ok(at) => Ok(at + 1),
                Err(at) => Err(at + 1),
            },
        }
    }

    /// Front to back.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + Clone {
        self.iter_from(0)
    }

    /// Front to back from `start`, as `VecDeque::range(start..)`.
    ///
    /// # Panics
    /// Panics if `start` is greater than the length.
    pub fn iter_from(&self, start: usize) -> impl DoubleEndedIterator<Item = &T> + Clone {
        assert!(
            start <= self.len(),
            "range start {start} out of bounds (len {})",
            self.len()
        );
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
                            search.binary_search_by_key(&probe, |&id| id),
                            sorted.binary_search(&probe)
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

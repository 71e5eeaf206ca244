//! The load generator's inputs and its output verifier. Everything here is a
//! pure function of the `--seed` argument: the program under test receives
//! only the generated records and due times.

use std::ops::Range;
use std::rc::Rc;

use kafkadirect::Record;
use sim::rng::SimRng;

/// Distinct records cycled by sequence number: record `seq` of a partition
/// is `pool[seq % len]`. A single producer on a fresh partition gets offset
/// == seq, so a consumer can check every delivered payload against the pool
/// without the generator stamping (and allocating) one record per send.
pub struct Pool {
    records: Vec<Record>,
    payload_total: u64,
    /// Sequence numbers served from a second set of records (the `lat`
    /// phase of the produce workloads, whose sizes carry the run's shift).
    alt: Option<(Range<u64>, Vec<Record>)>,
}

impl Pool {
    /// `len` records with random payloads whose sizes are uniform in
    /// `[3/4, 5/4] x nominal`, moved by `shift` bytes.
    pub fn new(rng: &mut SimRng, len: usize, nominal: usize, shift: i64) -> Pool {
        assert!(
            len >= 2 && nominal >= 32,
            "pool too small to tell records apart"
        );
        let lo = (nominal * 3 / 4) as i64 + shift;
        let span = (nominal / 2) as u64 + 1;
        let records: Vec<Record> = (0..len)
            .map(|_| {
                let size = (lo + rng.below(span) as i64) as usize;
                let mut payload = vec![0u8; size];
                rng.fill(&mut payload);
                Record::value(payload)
            })
            .collect();
        let payload_total = records.iter().map(|r| r.value.len() as u64).sum();
        Pool {
            records,
            payload_total,
            alt: None,
        }
    }

    /// Serves sequence numbers in `range` from `other`'s records instead.
    pub fn with_alt(mut self, range: Range<u64>, other: Pool) -> Pool {
        self.alt = Some((range, other.records));
        self
    }

    pub fn get(&self, seq: u64) -> &Record {
        match &self.alt {
            Some((range, alt)) if range.contains(&seq) => {
                &alt[((seq - range.start) % alt.len() as u64) as usize]
            }
            _ => &self.records[(seq % self.records.len() as u64) as usize],
        }
    }

    /// The records behind sequence numbers `seq..seq + n`, `n <= len`, as one
    /// slice when they do not wrap (what the chained send path wants).
    pub fn run(&self, seq: u64, n: usize) -> &[Record] {
        debug_assert!(!self.in_alt(seq, n as u64));
        let at = (seq % self.records.len() as u64) as usize;
        let end = (at + n).min(self.records.len());
        &self.records[at..end]
    }

    /// Payload bytes of sequence numbers `start..start + count`.
    pub fn payload_bytes(&self, start: u64, count: u64) -> u64 {
        debug_assert!(!self.in_alt(start, count));
        let len = self.records.len() as u64;
        let tail: u64 = (0..count % len)
            .map(|i| self.get(start + i).value.len() as u64)
            .sum();
        count / len * self.payload_total + tail
    }

    fn in_alt(&self, start: u64, count: u64) -> bool {
        self.alt
            .as_ref()
            .is_some_and(|(r, _)| start < r.end && r.start < start + count)
    }
}

/// Due times of an open-loop run, fixed before the run starts: Poisson
/// arrivals (exponential gaps) at `rate_per_s`, as virtual nanoseconds after
/// the start of the phase. The generator sleeps until each due time and
/// measures from it, so a slow system cannot slow the offered load.
pub fn poisson_schedule(rng: &mut SimRng, count: usize, rate_per_s: f64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut at = 0f64;
    (0..count)
        .map(|_| {
            // Uniform in (0, 1]: the log never sees 0.
            let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            at += -u.ln() * mean_gap_ns;
            at as u64
        })
        .collect()
}

/// Sleeps until `due_ns` after `start` and returns how late the generator
/// already was (0 when it had to wait).
pub async fn wait_due(start: sim::SimTime, due_ns: u64) -> u64 {
    let due = sim::SimTime::from_nanos(start.as_nanos() + due_ns);
    let now = sim::now();
    if now < due {
        sim::time::sleep_until(due).await;
        0
    } else {
        now.as_nanos() - due.as_nanos()
    }
}

/// Checks a consumer's deliveries against the pool: offsets must arrive
/// `first, first + 1, ...` with no gap, repeat or step back, and every
/// payload must be the one produced. With one in-order producer, offset ==
/// sequence number and each payload is compared with the pool record of its
/// offset. A pipelined TCP producer's requests can overtake one another, so
/// there ([`Verifier::any_order`]) the payloads are checked as a multiset: an
/// order-independent sum of payload hashes must match the records sent.
pub struct Verifier {
    pool: Rc<Pool>,
    first: u64,
    next: u64,
    /// `Some(sum of payload hashes)` when payload order is free.
    hash_sum: Option<u64>,
    pub delivered: u64,
    pub failed: u64,
}

fn payload_hash(bytes: &[u8]) -> u64 {
    // FNV-1a over the bytes, then the length: truncation changes the hash.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ bytes.len() as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

impl Verifier {
    pub fn new(pool: Rc<Pool>, first: u64) -> Verifier {
        Verifier {
            pool,
            first,
            next: first,
            hash_sum: None,
            delivered: 0,
            failed: 0,
        }
    }

    pub fn any_order(pool: Rc<Pool>, first: u64) -> Verifier {
        Verifier {
            hash_sum: Some(0),
            ..Verifier::new(pool, first)
        }
    }

    pub fn next_offset(&self) -> u64 {
        self.next
    }

    pub fn accept(&mut self, offset: u64, payload: &[u8]) {
        self.delivered += 1;
        if offset > self.next {
            // Every skipped record is a failure of its own.
            self.failed += offset - self.next;
        } else if offset < self.next {
            // Duplicate or out of order: the slot was already filled.
            self.failed += 1;
            return;
        }
        self.next = offset + 1;
        match &mut self.hash_sum {
            Some(sum) => *sum = sum.wrapping_add(payload_hash(payload)),
            None if payload != self.pool.get(offset).value.as_slice() => self.failed += 1,
            None => {}
        }
    }

    /// Counts records never delivered before `end` and returns the total.
    pub fn finish(mut self, end: u64) -> u64 {
        self.failed += end.saturating_sub(self.next);
        if let Some(sum) = self.hash_sum {
            let sent = (self.first..end)
                .map(|seq| payload_hash(&self.pool.get(seq).value))
                .fold(0u64, u64::wrapping_add);
            self.failed += u64::from(sum != sent);
        }
        self.failed
    }
}

/// Offsets acknowledged to producers: each must be new and inside the range
/// the run can have produced.
pub struct OffsetSet {
    seen: Vec<bool>,
}

impl OffsetSet {
    pub fn new(capacity: usize) -> OffsetSet {
        OffsetSet {
            seen: vec![false; capacity],
        }
    }

    /// `true` if `offset` is in range and had not been acknowledged before.
    pub fn mark(&mut self, offset: u64) -> bool {
        match self.seen.get_mut(offset as usize) {
            Some(slot) if !*slot => {
                *slot = true;
                true
            }
            _ => false,
        }
    }

    /// Offsets below `end` never acknowledged.
    pub fn missing_below(&self, end: usize) -> u64 {
        self.seen[..end.min(self.seen.len())]
            .iter()
            .filter(|s| !**s)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(seed: u64) -> Rc<Pool> {
        Rc::new(Pool::new(&mut SimRng::seed_from_u64(seed), 16, 64, 0))
    }

    #[test]
    fn pool_is_a_function_of_the_seed() {
        let (a, b, c) = (pool(7), pool(7), pool(8));
        for seq in 0..40 {
            assert_eq!(a.get(seq).value, b.get(seq).value);
        }
        assert!((0..16).any(|s| a.get(s).value != c.get(s).value));
        for r in &a.records {
            assert!((48..=80).contains(&r.value.len()));
        }
        assert_eq!(a.get(3).value, a.get(19).value, "cycles by sequence number");
    }

    #[test]
    fn pool_runs_and_byte_counts_agree_with_get() {
        let p = pool(1);
        let by_get: u64 = (5..5 + 40).map(|s| p.get(s).value.len() as u64).sum();
        assert_eq!(p.payload_bytes(5, 40), by_get);
        assert_eq!(p.run(14, 8).len(), 2, "a run stops at the wrap");
        assert_eq!(p.run(14, 8)[1].value, p.get(15).value);
        assert_eq!(p.run(32, 8).len(), 8);
    }

    #[test]
    fn shifted_pool_moves_every_size_and_serves_its_range() {
        let alt = Pool::new(&mut SimRng::seed_from_u64(1), 64, 64, -8);
        assert!(alt
            .records
            .iter()
            .all(|r| (40..=72).contains(&r.value.len())));
        let first = alt.get(0).value.clone();
        let p = Pool::new(&mut SimRng::seed_from_u64(2), 16, 64, 0);
        let (before, after) = (p.get(9).value.clone(), p.get(30).value.clone());
        let p = p.with_alt(10..30, alt);
        assert_eq!(p.get(9).value, before);
        assert_eq!(p.get(10).value, first);
        assert_eq!(p.get(30).value, after);
    }

    fn deliver(v: &mut Verifier, p: &Pool, offsets: &[u64]) {
        for &o in offsets {
            v.accept(o, &p.get(o).value);
        }
    }

    #[test]
    fn verifier_accepts_the_exact_sequence() {
        let p = pool(3);
        let mut v = Verifier::new(Rc::clone(&p), 0);
        deliver(&mut v, &p, &(0..50).collect::<Vec<_>>());
        assert_eq!((v.delivered, v.failed), (50, 0));
        assert_eq!(v.finish(50), 0);
    }

    #[test]
    fn verifier_rejects_a_dropped_record() {
        let p = pool(3);
        let mut v = Verifier::new(Rc::clone(&p), 0);
        deliver(&mut v, &p, &[0, 1, 3, 4]);
        assert_eq!(v.finish(5), 1);
    }

    #[test]
    fn verifier_rejects_a_missing_tail() {
        let p = pool(3);
        let mut v = Verifier::new(Rc::clone(&p), 0);
        deliver(&mut v, &p, &[0, 1, 2]);
        assert_eq!(v.finish(5), 2);
    }

    #[test]
    fn verifier_rejects_a_duplicate() {
        let p = pool(3);
        let mut v = Verifier::new(Rc::clone(&p), 0);
        deliver(&mut v, &p, &[0, 1, 1, 2]);
        assert_eq!(v.finish(3), 1);
    }

    #[test]
    fn verifier_rejects_a_reordered_pair() {
        let p = pool(3);
        let mut v = Verifier::new(Rc::clone(&p), 0);
        deliver(&mut v, &p, &[0, 2, 1, 3]);
        assert!(v.finish(4) >= 1);
    }

    #[test]
    fn verifier_rejects_a_corrupted_payload() {
        let p = pool(3);
        let mut v = Verifier::new(Rc::clone(&p), 0);
        let mut bad = p.get(1).value.clone();
        bad[5] ^= 0x40;
        v.accept(0, &p.get(0).value);
        v.accept(1, &bad);
        v.accept(2, &p.get(2).value[1..]);
        assert_eq!(v.finish(3), 2);
    }

    #[test]
    fn any_order_verifier_checks_payloads_as_a_multiset() {
        let p = pool(3);
        let run = |payload_of: &[u64], corrupt: bool| {
            let mut v = Verifier::any_order(Rc::clone(&p), 0);
            for (offset, &seq) in payload_of.iter().enumerate() {
                let mut bytes = p.get(seq).value.clone();
                if corrupt && offset == 2 {
                    bytes[0] ^= 1;
                }
                v.accept(offset as u64, &bytes);
            }
            v.finish(5)
        };
        assert_eq!(run(&[0, 1, 2, 3, 4], false), 0);
        assert_eq!(run(&[1, 0, 4, 2, 3], false), 0, "payloads may overtake");
        assert_eq!(run(&[0, 1, 2, 3, 4], true), 1, "corrupted");
        assert_eq!(run(&[0, 1, 2, 3, 3], false), 1, "one sent twice, one lost");
        assert_eq!(run(&[0, 1, 2, 3], false), 2, "missing tail and wrong sum");
    }

    #[test]
    fn offset_set_rejects_repeats_and_strays() {
        let mut s = OffsetSet::new(4);
        assert!(s.mark(0) && s.mark(3));
        assert!(!s.mark(3), "acknowledged twice");
        assert!(!s.mark(4), "outside the run");
        assert_eq!(s.missing_below(4), 2);
    }

    #[test]
    fn schedule_is_fixed_by_the_seed_alone() {
        let a = poisson_schedule(&mut SimRng::seed_from_u64(9), 5000, 100_000.0);
        let b = poisson_schedule(&mut SimRng::seed_from_u64(9), 5000, 100_000.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 5000 arrivals at 100k/s span about 50 ms.
        let span_ms = *a.last().unwrap() as f64 / 1e6;
        assert!((45.0..55.0).contains(&span_ms), "span {span_ms} ms");
    }

    /// A system far slower than the offered rate must not stretch the
    /// schedule: delays are timed from the due times fixed beforehand, and
    /// the generator reports how late it ran instead of slowing down.
    #[test]
    fn due_times_do_not_depend_on_completions() {
        let due: Vec<u64> = (0..20).map(|i| i * 1_000).collect();
        let run = |service_ns: u64| {
            let due = due.clone();
            sim::Runtime::new().block_on(async move {
                let start = sim::now();
                let mut out = Vec::new();
                for &d in &due {
                    let lag = wait_due(start, d).await;
                    sim::time::sleep(std::time::Duration::from_nanos(service_ns)).await;
                    let delay = sim::now().as_nanos() - (start.as_nanos() + d);
                    out.push((d, lag, delay));
                }
                out
            })
        };
        let fast = run(100);
        let slow = run(5_000);
        for ((d_fast, lag_fast, delay_fast), (d_slow, _, _)) in fast.iter().zip(&slow) {
            assert_eq!(d_fast, d_slow, "same due time whatever the system does");
            assert_eq!((*lag_fast, *delay_fast), (0, 100));
        }
        // The slow system falls 4 µs further behind with every send, and the
        // delay measured from the due time shows it.
        assert_eq!(slow[19].1, 19 * 4_000);
        assert_eq!(slow[19].2, 19 * 4_000 + 5_000);
    }
}

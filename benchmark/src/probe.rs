//! kdmark's own tracing: spans around every call it makes into `core` and
//! `kdclient`, stamped in both clocks, and host time spent inside the futures
//! those calls return. Switched off for the measured repeats, where every
//! wrapper reduces to awaiting the wrapped future.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::pin;
use std::time::Instant;

/// Index of a span in the probe's log; [`NO_SPAN`] when tracing is off or
/// for a root.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// Record sequence number the call carried (first of a chain), the id
    /// spans of one record share; `u64::MAX` for calls outside the record
    /// stream.
    pub seq: u64,
    pub v_start_ns: u64,
    pub v_end_ns: u64,
    pub h_start_ns: u64,
    pub h_end_ns: u64,
}

pub struct Probe {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    /// Host ns inside polls of futures obtained from `kdclient`/`core`.
    client_ns: Cell<u64>,
    /// Host ns inside polls of kdmark's own tasks (client time included).
    own_ns: Cell<u64>,
}

/// Awaits `fut`, adding the host time of each of its polls to `acc`.
pub async fn timed<F: Future>(acc: &Cell<u64>, fut: F) -> F::Output {
    let mut fut = pin!(fut);
    std::future::poll_fn(|cx| {
        let t0 = Instant::now();
        let out = fut.as_mut().poll(cx);
        acc.set(acc.get() + t0.elapsed().as_nanos() as u64);
        out
    })
    .await
}

impl Probe {
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(if on { 1 << 16 } else { 0 })),
            client_ns: Cell::new(0),
            own_ns: Cell::new(0),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn virtual_ns() -> u64 {
        sim::time::try_now().map_or(0, |t| t.as_nanos())
    }

    pub fn begin(&self, name: &'static str, parent: SpanId, seq: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            parent,
            seq,
            v_start_ns: Self::virtual_ns(),
            v_end_ns: 0,
            h_start_ns: self.host_ns(),
            h_end_ns: 0,
        });
        (spans.len() - 1) as SpanId
    }

    pub fn end(&self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let (v, h) = (Self::virtual_ns(), self.host_ns());
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[id as usize];
        s.v_end_ns = v;
        s.h_end_ns = h;
    }

    /// One call into `core`/`kdclient`: a span around it and its polls timed.
    pub async fn call<F: Future>(
        &self,
        name: &'static str,
        parent: SpanId,
        seq: u64,
        fut: F,
    ) -> F::Output {
        if !self.on {
            return fut.await;
        }
        let id = self.begin(name, parent, seq);
        let out = timed(&self.client_ns, fut).await;
        self.end(id);
        out
    }

    /// A future of the system's that kdmark awaits later than the call that
    /// returned it (an ack receiver, a join handle): timed, no span.
    pub async fn wait<F: Future>(&self, fut: F) -> F::Output {
        if !self.on {
            return fut.await;
        }
        timed(&self.client_ns, fut).await
    }

    /// The body of one of kdmark's own tasks.
    pub async fn own<F: Future>(&self, fut: F) -> F::Output {
        if !self.on {
            return fut.await;
        }
        timed(&self.own_ns, fut).await
    }

    pub fn client_host_ns(&self) -> u64 {
        self.client_ns.get()
    }

    /// Host time in kdmark's own code: its tasks' polls minus the system's
    /// futures polled inside them.
    pub fn loadgen_host_ns(&self) -> u64 {
        self.own_ns.get().saturating_sub(self.client_ns.get())
    }

    /// Zeroes the host-time accumulators (at the start of the measured
    /// region; spans are kept).
    pub fn reset_host_time(&self) {
        self.client_ns.set(0);
        self.own_ns.set(0);
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_at_most_the_enclosing_wall_span() {
        let wall = Instant::now();
        let probe = std::rc::Rc::new(Probe::new(true));
        let p = std::rc::Rc::clone(&probe);
        sim::Runtime::new().block_on(async move {
            p.own(async {
                for seq in 0..5 {
                    spin(Duration::from_micros(200)); // kdmark's own work
                    p.call("send", NO_SPAN, seq, async {
                        spin(Duration::from_micros(300));
                        // Suspended time is nobody's self time.
                        sim::time::sleep(Duration::from_micros(50)).await;
                        spin(Duration::from_micros(100));
                    })
                    .await;
                }
            })
            .await;
        });
        let wall_ns = wall.elapsed().as_nanos() as u64;
        let (client, loadgen) = (probe.client_host_ns(), probe.loadgen_host_ns());
        assert!(client >= 5 * 400_000, "client {client}");
        assert!(loadgen >= 5 * 200_000, "loadgen {loadgen}");
        assert!(
            client + loadgen <= wall_ns,
            "{client} + {loadgen} > {wall_ns}"
        );
        let spans = probe.take_spans();
        assert_eq!(spans.len(), 5);
        for (i, s) in spans.iter().enumerate() {
            assert_eq!((s.name, s.seq), ("send", i as u64));
            assert_eq!(s.v_end_ns - s.v_start_ns, 50_000, "virtual clock");
            assert!(s.h_end_ns - s.h_start_ns >= 400_000, "host clock");
            assert!(s.h_end_ns <= wall_ns);
        }
    }

    #[test]
    fn switched_off_probe_records_nothing() {
        let probe = Probe::new(false);
        let out = sim::Runtime::new().block_on(async move {
            let id = probe.begin("x", NO_SPAN, 0);
            probe.end(id);
            let v = probe.own(probe.call("send", id, 1, async { 7 })).await;
            (v, id, probe.client_host_ns(), probe.take_spans().len())
        });
        assert_eq!(out, (7, NO_SPAN, 0, 0));
    }
}

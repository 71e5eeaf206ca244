//! One bind table for every kind of listener on the fabric: TCP ports here,
//! RDMA service ids in `rnic`'s connection manager.
//!
//! A bind is stamped with a generation so that a stale listener's `Drop` —
//! a crashed process's accept loop unwinding after its port was
//! force-unbound and bound again — cannot evict the successor. One
//! thread-local counter numbers the binds of every table (thread-local, not
//! process-global: `cargo test` runs simulations on parallel threads).
//! Generations are only compared within one table and never enter traces.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use sim::sync::mpsc;

use crate::fabric::NodeId;

thread_local! {
    static NEXT_GEN: Cell<u64> = const { Cell::new(1) };
}

type Slots<T> = HashMap<(NodeId, u16), (u64, mpsc::Sender<T>)>;

/// The bound ports of one kind of listener, keyed by `(node, port)`. Cheap
/// to clone; a clone is the same table.
pub struct BindTable<T> {
    slots: Rc<RefCell<Slots<T>>>,
}

impl<T> Clone for BindTable<T> {
    fn clone(&self) -> Self {
        BindTable {
            slots: Rc::clone(&self.slots),
        }
    }
}

impl<T> Default for BindTable<T> {
    fn default() -> Self {
        BindTable {
            slots: Rc::default(),
        }
    }
}

impl<T> BindTable<T> {
    /// Binds `port` on `node`; what connects to it arrives at the returned
    /// listener.
    ///
    /// # Panics
    /// Panics if the port is already bound (a configuration bug in a
    /// simulation scenario).
    pub fn bind(&self, node: NodeId, port: u16) -> Bound<T> {
        let (tx, rx) = mpsc::unbounded();
        let gen = NEXT_GEN.with(|g| g.replace(g.get() + 1));
        let prev = self.slots.borrow_mut().insert((node, port), (gen, tx));
        assert!(
            prev.is_none(),
            "port {port} already bound on node {}",
            node.0
        );
        Bound {
            table: self.clone(),
            key: (node, port),
            gen,
            incoming: rx,
        }
    }

    /// Force-unbinds a port from the outside (fault injection: a crashed
    /// process's sockets close even though its accept loop still owns the
    /// listener). New connects are refused at once, and once transient
    /// senders drop, the owner's `accept()` returns `None` so its loop
    /// exits. The listener's eventual `Drop` is a no-op. `false` if nothing
    /// was bound.
    pub fn unbind(&self, node: NodeId, port: u16) -> bool {
        self.slots.borrow_mut().remove(&(node, port)).is_some()
    }

    /// The accept queue of the listener at `(node, port)`, for a connect.
    pub fn sender(&self, node: NodeId, port: u16) -> Option<mpsc::Sender<T>> {
        self.slots
            .borrow()
            .get(&(node, port))
            .map(|(_, tx)| tx.clone())
    }
}

/// A bound port: the accept queue of one bind. Dropping it unbinds the port
/// if the bind is still its own.
pub struct Bound<T> {
    table: BindTable<T>,
    key: (NodeId, u16),
    gen: u64,
    incoming: mpsc::Receiver<T>,
}

impl<T> Bound<T> {
    /// The next inbound connection; `None` once the port was unbound and
    /// every in-flight connect has landed.
    pub async fn accept(&mut self) -> Option<T> {
        self.incoming.recv().await
    }
}

impl<T> Drop for Bound<T> {
    fn drop(&mut self) {
        let mut slots = self.table.slots.borrow_mut();
        if slots
            .get(&self.key)
            .is_some_and(|(gen, _)| *gen == self.gen)
        {
            slots.remove(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::tcp::{connect, unbind, TcpListener};
    use crate::Fabric;

    #[test]
    fn a_stale_listener_leaves_its_successor_bound() {
        sim::Runtime::new().block_on(async {
            let f = Fabric::new(Profile::fast_test());
            let (a, b) = (f.add_node("a"), f.add_node("b"));
            let stale = TcpListener::bind(&b, 9092);
            assert!(unbind(&b, 9092));
            let mut successor = TcpListener::bind(&b, 9092);
            drop(stale);
            let accepted = sim::spawn(async move { successor.accept().await.is_some() });
            assert!(
                connect(&a, b.id, 9092).await.is_ok(),
                "the port is still bound"
            );
            assert!(accepted.await.unwrap(), "and the successor accepts");
        });
    }

    #[test]
    #[should_panic(expected = "port 9092 already bound on node 1")]
    fn a_second_bind_of_a_live_port_panics() {
        let f = Fabric::new(Profile::fast_test());
        let (_a, b) = (f.add_node("a"), f.add_node("b"));
        let _first = TcpListener::bind(&b, 9092);
        let _second = TcpListener::bind(&b, 9092);
    }

    #[test]
    fn one_generation_counter_serves_every_table() {
        let (tcp, other) = (BindTable::<u8>::default(), BindTable::<String>::default());
        let gens: Vec<u64> = (0..3)
            .flat_map(|port| {
                [
                    tcp.bind(NodeId(0), port).gen,
                    other.bind(NodeId(0), port).gen,
                ]
            })
            .collect();
        assert!(gens.windows(2).all(|w| w[1] == w[0] + 1), "{gens:?}");
    }

    /// The same traced exchange run twice on one thread binds under other
    /// generations the second time, and records the same trace.
    #[test]
    fn generations_never_enter_traces() {
        let run = || {
            let registry = kdtelem::Registry::new();
            registry.set_event_capacity(1 << 10);
            let _telem = kdtelem::enter(&registry);
            let gen = sim::Runtime::new().block_on(async {
                let f = Fabric::new(Profile::fast_test());
                let (a, b) = (f.add_node("a"), f.add_node("b"));
                let mut listener = TcpListener::bind(&b, 9092);
                let gen = listener.0.gen;
                let reader = sim::spawn(async move {
                    let mut s = listener.accept().await.unwrap();
                    s.read_exact(64).await.unwrap();
                });
                let (_r, mut w) = connect(&a, b.id, 9092).await.unwrap().into_split();
                w.set_trace(Some(kdtelem::TraceCtx {
                    trace_id: 1,
                    span_id: 2,
                }));
                w.write_all(&[7; 64]).await.unwrap();
                reader.await.unwrap();
                gen
            });
            (gen, registry.drain_trace_events())
        };
        let (first, second) = (run(), run());
        assert_ne!(first.0, second.0);
        assert!(!first.1.is_empty());
        assert_eq!(first.1, second.1);
    }
}

//! Small future combinators the simulation needs but std does not provide.

use std::future::Future;
use std::task::Poll;

/// Result of [`race`]: which of the two futures finished first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    Left(A),
    Right(B),
}

/// Runs two futures concurrently and resolves with the first to finish; the
/// loser is dropped. `a` is polled first, so a tie at the same virtual
/// instant deterministically goes to `Left`.
///
/// Both futures are pinned on the caller's stack frame (`pin!`), so racing
/// costs zero heap allocations — this sits on the broker's per-request path.
pub async fn race<A, B>(
    a: impl Future<Output = A>,
    b: impl Future<Output = B>,
) -> Either<A, B> {
    let mut a = std::pin::pin!(a);
    let mut b = std::pin::pin!(b);
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(v) = a.as_mut().poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = b.as_mut().poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::time::Duration;

    #[test]
    fn first_ready_wins() {
        let rt = Runtime::new();
        rt.block_on(async {
            let r = race(
                async {
                    crate::time::sleep(Duration::from_micros(5)).await;
                    1u32
                },
                async {
                    crate::time::sleep(Duration::from_micros(2)).await;
                    2u32
                },
            )
            .await;
            assert_eq!(r, Either::Right(2));
            assert_eq!(crate::now().as_nanos(), 2_000);
        });
    }

    #[test]
    fn tie_goes_left() {
        let rt = Runtime::new();
        rt.block_on(async {
            let r = race(async { 1u32 }, async { 2u32 }).await;
            assert_eq!(r, Either::Left(1));
        });
    }

    #[test]
    fn loser_is_cancelled() {
        let rt = Runtime::new();
        rt.block_on(async {
            let n = crate::sync::Notify::new();
            let r = race(n.notified(), async { 7u32 }).await;
            assert_eq!(r, Either::Right(7));
            // The dropped `notified` must have deregistered its waiter: the
            // broadcast wakes nobody, so the root is polled once more, when
            // its sleep ends.
            n.notify_waiters();
            crate::time::sleep(Duration::from_micros(1)).await;
        });
        assert_eq!(rt.poll_count(), 2);
    }
}

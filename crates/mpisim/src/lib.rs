//! Thread-backed message-passing runtime.
//!
//! The paper wraps APEC in MPI and runs 24 ranks on one node; the ranks
//! also talk to the GPU scheduler through SysV shared memory (`shmat`).
//! Everything is intra-node, so OS threads with mailboxes and a shared
//! atomic region exercise the same code paths (see `DESIGN.md`):
//!
//! * [`run`] spawns `size` rank threads and gives each a [`RankCtx`]
//!   with point-to-point `send`/`recv`, a reusable [`RankCtx::barrier`],
//!   and the collectives the spectral driver needs (`broadcast`,
//!   `scatter`, `gather`, `all_reduce`).
//! * [`SharedRegion`] is the `shmat` analogue: a fixed-size array of
//!   atomic 64-bit words shared by all ranks (the scheduler keeps its
//!   per-device *load* and *history task count* arrays in one).
//! * [`BoundedQueue`] is a bounded, closable MPMC work queue — the
//!   admission-control primitive of the resident engine and the
//!   service tier (queue depth is the backpressure lever).
//! * [`ScatterGather`] lifts the scatter/gather collectives onto
//!   [`BoundedQueue`] lanes for long-lived shard workers outside a
//!   fixed rank world: every scattered part resolves exactly once
//!   (answered, or missing when its worker died), so gathers never
//!   hang on a dead shard.
//!
//! Messages are typed at the call site; a `recv::<T>` matching a message
//! of a different payload type panics — message misrouting is a bug, not
//! a recoverable condition.

pub mod collective;
pub mod queue;
pub mod shared;

pub use collective::{
    Envelope, Gather, Lane, LaneFault, LaneFaultPlan, OpenGather, Promise, ScatterGather,
};
pub use queue::{BoundedQueue, TryPushError};
pub use shared::SharedRegion;

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Wildcard source for [`RankCtx::recv`], like `MPI_ANY_SOURCE`.
pub const ANY_SOURCE: usize = usize::MAX;

type Payload = Box<dyn Any + Send>;

struct Mail {
    src: usize,
    tag: u64,
    payload: Payload,
}

struct Mailbox {
    queue: Mutex<VecDeque<Mail>>,
    signal: Condvar,
}

/// Reusable rendezvous of all ranks: arrivals of the current
/// generation, and the generation counter the last arrival bumps.
struct WorldBarrier {
    state: Mutex<(usize, u64)>,
    released: Condvar,
}

struct CommState {
    size: usize,
    mailboxes: Vec<Mailbox>,
    barrier: WorldBarrier,
    /// Set when a rank body panicked: every rank blocked in (or
    /// arriving at) a barrier or receive panics too instead of waiting
    /// for a peer that will never come — MPI's all-or-nothing abort.
    aborted: AtomicBool,
}

impl CommState {
    fn check_abort(&self) {
        assert!(!self.aborted.load(Ordering::SeqCst), "a peer rank panicked");
    }

    /// Flag the world as aborted and wake every blocked rank. Each
    /// lock is taken before notifying so a rank between its flag check
    /// and its wait cannot miss the wake-up.
    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        drop(self.barrier.state.lock());
        self.barrier.released.notify_all();
        for mailbox in &self.mailboxes {
            drop(mailbox.queue.lock());
            mailbox.signal.notify_all();
        }
    }
}

/// Aborts the world if the rank body unwinds past it.
struct AbortOnPanic<'a>(&'a CommState);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// Per-rank handle passed to the rank body by [`run`].
pub struct RankCtx {
    rank: usize,
    state: Arc<CommState>,
}

impl RankCtx {
    /// This rank's id, `0..size`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[must_use]
    pub fn size(&self) -> usize {
        self.state.size
    }

    /// Send `value` to rank `to` with `tag`. Non-blocking (mailboxes are
    /// unbounded, as intra-node MPI effectively is at these sizes).
    ///
    /// # Panics
    /// Panics if `to` is out of range.
    pub fn send<T: Send + 'static>(&self, to: usize, tag: u64, value: T) {
        assert!(to < self.state.size, "rank {to} out of range");
        let mailbox = &self.state.mailboxes[to];
        let mut queue = mailbox.queue.lock().expect("mailbox poisoned");
        queue.push_back(Mail {
            src: self.rank,
            tag,
            payload: Box::new(value),
        });
        mailbox.signal.notify_all();
    }

    /// Blocking receive of a `T` from rank `from` (or [`ANY_SOURCE`])
    /// with `tag`. Returns `(source, value)`. Messages that do not match
    /// stay queued for other `recv` calls (MPI-style matching).
    ///
    /// # Panics
    /// Panics if a matching message's payload is not a `T`.
    pub fn recv<T: Send + 'static>(&self, from: usize, tag: u64) -> (usize, T) {
        let mailbox = &self.state.mailboxes[self.rank];
        let mut queue = mailbox.queue.lock().expect("mailbox poisoned");
        loop {
            if let Some(pos) = queue
                .iter()
                .position(|e| e.tag == tag && (from == ANY_SOURCE || e.src == from))
            {
                let env = queue.remove(pos).expect("position valid");
                let src = env.src;
                let value = env.payload.downcast::<T>().unwrap_or_else(|_| {
                    panic!("type mismatch receiving tag {tag} from rank {src}")
                });
                return (src, *value);
            }
            self.state.check_abort();
            queue = mailbox.signal.wait(queue).expect("mailbox poisoned");
        }
    }

    /// Non-blocking receive: returns `Some((source, value))` if a
    /// matching message is already queued, `None` otherwise (like
    /// `MPI_Iprobe` + receive).
    ///
    /// # Panics
    /// Panics if a matching message's payload is not a `T`.
    pub fn try_recv<T: Send + 'static>(&self, from: usize, tag: u64) -> Option<(usize, T)> {
        let mailbox = &self.state.mailboxes[self.rank];
        let mut queue = mailbox.queue.lock().expect("mailbox poisoned");
        let pos = queue
            .iter()
            .position(|e| e.tag == tag && (from == ANY_SOURCE || e.src == from))?;
        let env = queue.remove(pos).expect("position valid");
        let src = env.src;
        let value = env
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("type mismatch receiving tag {tag} from rank {src}"));
        Some((src, *value))
    }

    /// Combined send+receive (like `MPI_Sendrecv`): ship `value` to
    /// `to`, then block for a `T` from `from` with the same tag.
    /// Deadlock-free even in rings because the send is non-blocking.
    pub fn send_recv<T: Send + 'static>(
        &self,
        to: usize,
        from: usize,
        tag: u64,
        value: T,
    ) -> (usize, T) {
        self.send(to, tag, value);
        self.recv(from, tag)
    }

    /// Synchronize all ranks. Reusable.
    ///
    /// # Panics
    /// Panics if a peer rank panicked (it will never arrive).
    pub fn barrier(&self) {
        let barrier = &self.state.barrier;
        let mut state = barrier.state.lock().expect("barrier poisoned");
        let generation = state.1;
        state.0 += 1;
        if state.0 == self.state.size {
            *state = (0, generation + 1);
            barrier.released.notify_all();
            return;
        }
        while state.1 == generation {
            self.state.check_abort();
            state = barrier.released.wait(state).expect("barrier poisoned");
        }
    }

    /// Broadcast `value` from `root` to every rank; each rank returns its
    /// copy.
    pub fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        const TAG: u64 = u64::MAX - 1;
        if self.rank == root {
            let v = value.expect("root must supply the broadcast value");
            for r in 0..self.state.size {
                if r != root {
                    self.send(r, TAG, v.clone());
                }
            }
            v
        } else {
            self.recv::<T>(root, TAG).1
        }
    }

    /// Scatter one element of `items` (root only) to each rank; every
    /// rank returns its element. `items.len()` must equal `size`.
    pub fn scatter<T: Send + 'static>(&self, root: usize, items: Option<Vec<T>>) -> T {
        const TAG: u64 = u64::MAX - 2;
        if self.rank == root {
            let items = items.expect("root must supply the scatter items");
            assert_eq!(items.len(), self.state.size, "one item per rank");
            let mut own = None;
            for (r, item) in items.into_iter().enumerate() {
                if r == root {
                    own = Some(item);
                } else {
                    self.send(r, TAG, item);
                }
            }
            own.expect("root owns one item")
        } else {
            self.recv::<T>(root, TAG).1
        }
    }

    /// Gather every rank's `value` at `root` (rank order). Non-roots get
    /// `None`.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        const TAG: u64 = u64::MAX - 3;
        if self.rank == root {
            let mut slots: Vec<Option<T>> = (0..self.state.size).map(|_| None).collect();
            slots[root] = Some(value);
            for _ in 0..self.state.size - 1 {
                let (src, v) = self.recv::<T>(ANY_SOURCE, TAG);
                slots[src] = Some(v);
            }
            Some(
                slots
                    .into_iter()
                    .map(|s| s.expect("every rank contributed"))
                    .collect(),
            )
        } else {
            self.send(root, TAG, value);
            None
        }
    }

    /// Reduce every rank's `value` with `op` (associative, commutative)
    /// and return the result on all ranks.
    pub fn all_reduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        if let Some(all) = self.gather(0, value) {
            let mut iter = all.into_iter();
            let first = iter.next().expect("size >= 1");
            let reduced = iter.fold(first, op);
            self.broadcast(0, Some(reduced))
        } else {
            self.broadcast::<T>(0, None)
        }
    }
}

/// Spawn `size` rank threads running `body` and return their results in
/// rank order. A panic in any rank aborts the world — peers blocked in a
/// barrier or receive panic too instead of hanging — and propagates (the
/// join unwraps), matching MPI's all-or-nothing job semantics.
pub fn run<R, F>(size: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&RankCtx) -> R + Send + Sync,
{
    assert!(size >= 1, "need at least one rank");
    let state = Arc::new(CommState {
        size,
        mailboxes: (0..size)
            .map(|_| Mailbox {
                queue: Mutex::new(VecDeque::new()),
                signal: Condvar::new(),
            })
            .collect(),
        barrier: WorldBarrier {
            state: Mutex::new((0, 0)),
            released: Condvar::new(),
        },
        aborted: AtomicBool::new(false),
    });
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let state = Arc::clone(&state);
                let body = &body;
                scope.spawn(move || {
                    let _abort = AbortOnPanic(&state);
                    let ctx = RankCtx {
                        rank,
                        state: Arc::clone(&state),
                    };
                    body(&ctx)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_know_their_identity() {
        let ranks = run(4, |ctx| (ctx.rank(), ctx.size()));
        assert_eq!(ranks, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_roundtrip() {
        let results = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, 42u64);
                let (_, reply) = ctx.recv::<String>(1, 8);
                reply
            } else {
                let (src, v) = ctx.recv::<u64>(0, 7);
                assert_eq!(src, 0);
                ctx.send(0, 8, format!("got {v}"));
                String::new()
            }
        });
        assert_eq!(results[0], "got 42");
    }

    #[test]
    fn tag_matching_leaves_other_messages_queued() {
        let results = run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, 100u32);
                ctx.send(1, 2, 200u32);
                0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let (_, b) = ctx.recv::<u32>(0, 2);
                let (_, a) = ctx.recv::<u32>(0, 1);
                assert_eq!((a, b), (100, 200));
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn any_source_receives_from_all() {
        let results = run(4, |ctx| {
            if ctx.rank() == 0 {
                let mut seen = [false; 4];
                for _ in 0..3 {
                    let (src, v) = ctx.recv::<usize>(ANY_SOURCE, 5);
                    assert_eq!(src, v);
                    seen[src] = true;
                }
                seen.iter().skip(1).all(|&s| s)
            } else {
                ctx.send(0, 5, ctx.rank());
                true
            }
        });
        assert!(results.iter().all(|&r| r));
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let results = run(5, |ctx| {
            if ctx.rank() == 2 {
                ctx.broadcast(2, Some(vec![1, 2, 3]))
            } else {
                ctx.broadcast::<Vec<i32>>(2, None)
            }
        });
        assert!(results.iter().all(|v| v == &vec![1, 2, 3]));
    }

    #[test]
    fn scatter_distributes_in_rank_order() {
        let results = run(4, |ctx| {
            if ctx.rank() == 0 {
                ctx.scatter(0, Some(vec![10, 11, 12, 13]))
            } else {
                ctx.scatter::<i32>(0, None)
            }
        });
        assert_eq!(results, vec![10, 11, 12, 13]);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = run(4, |ctx| ctx.gather(0, ctx.rank() * 2));
        assert_eq!(results[0], Some(vec![0, 2, 4, 6]));
        assert!(results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let results = run(6, |ctx| ctx.all_reduce(ctx.rank() as u64 + 1, |a, b| a + b));
        assert!(results.iter().all(|&r| r == 21));
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let phase1 = AtomicUsize::new(0);
        let results = run(8, |ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank must observe all 8 arrivals.
            phase1.load(Ordering::SeqCst)
        });
        assert!(results.iter().all(|&r| r == 8));
    }

    #[test]
    fn single_rank_world_works() {
        let results = run(1, |ctx| {
            ctx.barrier();
            let v = ctx.broadcast(0, Some(9));
            let g = ctx.gather(0, v).unwrap();
            let r = ctx.all_reduce(3, |a, b| a * b);
            (v, g, r)
        });
        assert_eq!(results[0], (9, vec![9], 3));
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let results = run(2, |ctx| {
            if ctx.rank() == 0 {
                // Rank 1 sends only after the first barrier, so nothing
                // is queued yet: the probe must return, and empty.
                let early = ctx.try_recv::<u8>(1, 3);
                ctx.barrier();
                ctx.barrier(); // rank 1 has sent before this one
                (early, ctx.try_recv::<u8>(1, 3))
            } else {
                ctx.barrier();
                ctx.send(0, 3, 9u8);
                ctx.barrier();
                (None, None)
            }
        });
        assert_eq!(results[0], (None, Some((1, 9))));
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn a_rank_panic_releases_peers_blocked_in_a_barrier() {
        // Without the abort flag rank 1 would wait forever for a peer
        // that already unwound, and the scope could never join.
        run(2, |ctx| {
            if ctx.rank() == 0 {
                panic!("rank 0 gives up");
            }
            ctx.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn a_rank_panic_releases_peers_blocked_in_recv() {
        run(2, |ctx| {
            if ctx.rank() == 0 {
                panic!("rank 0 gives up");
            }
            let _ = ctx.recv::<u8>(0, 1);
        });
    }

    #[test]
    fn send_recv_shifts_around_a_ring() {
        let n = 5;
        let results = run(n, |ctx| {
            let right = (ctx.rank() + 1) % n;
            let left = (ctx.rank() + n - 1) % n;
            let (_, got) = ctx.send_recv(right, left, 4, ctx.rank());
            got
        });
        // Everyone receives their left neighbour's rank.
        for (rank, &got) in results.iter().enumerate() {
            assert_eq!(got, (rank + n - 1) % n);
        }
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn type_mismatch_panics() {
        run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, 5u8);
            } else {
                let _ = ctx.recv::<u64>(0, 1);
            }
        });
    }
}

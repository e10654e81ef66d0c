//! Scatter/gather collectives over [`BoundedQueue`] lanes.
//!
//! The sharded service tier fans one request out to many engine shards
//! and folds their partial answers back together. MPI's collectives
//! assume a fixed rank world; shard workers are long-lived threads with
//! independent lifetimes, so the router needs the same scatter/gather
//! *shape* over the queue primitive instead:
//!
//! * [`ScatterGather`] owns one bounded lane per destination. A
//!   [`ScatterGather::scatter`] call splits a request into parts, each
//!   addressed to a lane, and returns a [`Gather`] that blocks until
//!   **every** part is resolved.
//! * Workers loop `while let Some(env) = lane.pop()` and answer each
//!   [`Envelope`] through its [`Promise`]. A promise that is dropped
//!   unfulfilled — worker panic, shutdown drain, refused push —
//!   resolves its part as `None`, so a gather can never hang on a dead
//!   shard: missing parts surface to the caller, which re-routes them.
//! * Close-and-drain semantics come from the underlying queues:
//!   [`ScatterGather::close`] refuses further scatters and drains every
//!   lane, resolving any still-queued envelope as missing.
//!
//! Lock poisoning is tolerated throughout (inherited from
//! [`BoundedQueue`]): a worker that panics mid-operation never wedges
//! the other shards or the gathering caller.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use desim::SimRng;

use crate::queue::BoundedQueue;

/// A worker-facing lane handle: pop [`Envelope`]s until `None`.
pub type Lane<Req, Resp> = BoundedQueue<Envelope<Req, Resp>>;

/// What failure fires on a faulted lane delivery (mirror of
/// `gpu_sim::FaultKind`, scaled down to the two things a transport can
/// do to a message: delay it or lose it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneFault {
    /// The part's answer is delayed by `millis` — the worker computes
    /// normally but its reply lands late (a straggling replica).
    Stall {
        /// Added reply latency in milliseconds.
        millis: u64,
    },
    /// The part is dropped before delivery; its promise resolves as
    /// missing (`None`) so the gather never hangs on it.
    Drop,
}

/// A reproducible fault schedule for one lane (mirror of
/// `gpu_sim::FaultPlan`'s `fire_at` API). [`Default`] is the empty plan
/// (a healthy lane); builders add indexed triggers, probabilistic
/// rates, and a persistent slow-lane skew.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneFaultPlan {
    seed: u64,
    stall_rate: f64,
    stall_millis: u64,
    drop_rate: f64,
    /// Every delivery on this lane is slowed by this much — the
    /// "slow replica" skew (composes with, and is superseded by, an
    /// explicit [`LaneFault`] firing on the same delivery).
    delay_millis: u64,
    /// Exact triggers: fire the fault when the lane's delivery counter
    /// reaches the given index (0-based).
    at: Vec<(u64, LaneFault)>,
}

impl LaneFaultPlan {
    /// An empty plan drawing probabilistic faults from `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> LaneFaultPlan {
        LaneFaultPlan {
            seed,
            ..LaneFaultPlan::default()
        }
    }

    /// Probability that any one delivery stalls for `millis` first.
    #[must_use]
    pub fn stall_rate(mut self, rate: f64, millis: u64) -> LaneFaultPlan {
        self.stall_rate = rate.clamp(0.0, 1.0);
        self.stall_millis = millis;
        self
    }

    /// Probability that any one delivery is dropped outright.
    #[must_use]
    pub fn drop_rate(mut self, rate: f64) -> LaneFaultPlan {
        self.drop_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Slow every delivery on this lane by `millis` (persistent
    /// slow-replica skew).
    #[must_use]
    pub fn delay(mut self, millis: u64) -> LaneFaultPlan {
        self.delay_millis = millis;
        self
    }

    /// Fire `fault` exactly when this lane's delivery counter reaches
    /// `index` (0-based).
    #[must_use]
    pub fn fire_at(mut self, index: u64, fault: LaneFault) -> LaneFaultPlan {
        self.at.push((index, fault));
        self
    }
}

/// Live per-lane fault state: the plan plus the delivery counter and
/// the seeded dice.
struct LaneFaultState {
    plan: LaneFaultPlan,
    rng: SimRng,
    deliveries: u64,
}

impl LaneFaultState {
    fn new(plan: LaneFaultPlan) -> LaneFaultState {
        let rng = desim::rng(plan.seed);
        LaneFaultState {
            plan,
            rng,
            deliveries: 0,
        }
    }

    /// The verdict for the next delivery on this lane: an optional
    /// fault plus the persistent skew folded in.
    fn next(&mut self) -> Option<LaneFault> {
        let index = self.deliveries;
        self.deliveries += 1;
        // Exact triggers outrank the dice (reproducible replays).
        if let Some(&(_, fault)) = self.plan.at.iter().find(|&&(at, _)| at == index) {
            return Some(fault);
        }
        if self.plan.drop_rate > 0.0 && self.rng.gen_range(0.0..1.0) < self.plan.drop_rate {
            return Some(LaneFault::Drop);
        }
        if self.plan.stall_rate > 0.0 && self.rng.gen_range(0.0..1.0) < self.plan.stall_rate {
            return Some(LaneFault::Stall {
                millis: self.plan.stall_millis + self.plan.delay_millis,
            });
        }
        (self.plan.delay_millis > 0).then_some(LaneFault::Stall {
            millis: self.plan.delay_millis,
        })
    }
}

/// The write-once resolution slot of one scattered part. Fulfil it
/// with the worker's answer; dropping it unfulfilled resolves the part
/// as missing (`None` at the gather).
pub struct Promise<Resp> {
    seq: usize,
    reply: BoundedQueue<(usize, Option<Resp>)>,
    fulfilled: bool,
    /// Injected reply latency (lane stall / slow-replica skew): the
    /// fulfilling worker sleeps this long before its answer lands.
    delay: Option<Duration>,
}

impl<Resp> Promise<Resp> {
    /// Deliver the answer for this part.
    pub fn fulfill(mut self, resp: Resp) {
        if let Some(delay) = self.delay.take() {
            // The stall burns the *worker's* time, exactly like a slow
            // replica would; the gather side keeps running.
            std::thread::sleep(delay);
        }
        // The reply queue's capacity covers every part that can
        // resolve, and each part resolves exactly once, so this push
        // cannot be refused as full; the queue is never closed.
        let _ = self.reply.try_push((self.seq, Some(resp)));
        self.fulfilled = true;
    }
}

impl<Resp> Drop for Promise<Resp> {
    /// An abandoned part — worker panic, shutdown drain, refused
    /// push — still resolves, as missing, so the gather terminates.
    fn drop(&mut self) {
        if !self.fulfilled {
            let _ = self.reply.try_push((self.seq, None));
        }
    }
}

/// One scattered part in flight: the request payload plus the promise
/// that routes its answer back to the gather.
pub struct Envelope<Req, Resp> {
    lane: usize,
    req: Req,
    promise: Promise<Resp>,
}

impl<Req, Resp> Envelope<Req, Resp> {
    /// The lane this part was addressed to.
    #[must_use]
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Borrow the request payload.
    #[must_use]
    pub fn request(&self) -> &Req {
        &self.req
    }

    /// Take ownership of the payload and the reply promise.
    #[must_use]
    pub fn split(self) -> (Req, Promise<Resp>) {
        (self.req, self.promise)
    }

    /// Answer in place (convenience for workers that borrow the
    /// request while computing).
    pub fn reply(self, resp: Resp) {
        self.promise.fulfill(resp);
    }
}

/// The pending result of one [`ScatterGather::scatter`].
#[must_use = "gather() must run, or the scattered parts' answers are dropped"]
pub struct Gather<Resp> {
    reply: BoundedQueue<(usize, Option<Resp>)>,
    expected: usize,
}

impl<Resp> Gather<Resp> {
    /// How many parts were scattered.
    #[must_use]
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Block until every part has resolved; `out[i]` is part `i`'s
    /// answer in scatter order, `None` for parts whose promise was
    /// dropped unfulfilled (dead worker, closed lane).
    pub fn gather(self) -> Vec<Option<Resp>> {
        let mut out: Vec<Option<Resp>> = (0..self.expected).map(|_| None).collect();
        for _ in 0..self.expected {
            let (seq, resp) = self
                .reply
                .pop()
                .expect("every part resolves exactly once (fulfil or drop)");
            out[seq] = resp;
        }
        out
    }
}

/// An incremental gather that stays open for speculative extra parts —
/// the hedged-re-scatter counterpart of [`Gather`]
/// (see [`ScatterGather::scatter_open`]).
#[must_use = "recv the outstanding parts, or their answers are dropped"]
pub struct OpenGather<Resp> {
    reply: BoundedQueue<(usize, Option<Resp>)>,
    /// Parts sent so far (primary + hedges); also the next seq.
    sent: usize,
    /// Hedge slots still available.
    hedge_left: usize,
}

impl<Resp> OpenGather<Resp> {
    /// Parts sent so far (primary scatter plus hedges); resolutions
    /// received must eventually reach this count.
    #[must_use]
    pub fn sent(&self) -> usize {
        self.sent
    }

    /// Hedge slots still available for [`send_more`](Self::send_more).
    #[must_use]
    pub fn hedge_slots_left(&self) -> usize {
        self.hedge_left
    }

    /// Send one more part into this gather's reply stream (a hedge).
    /// Returns the new part's seq, or `None` when the hedge slots
    /// reserved at [`ScatterGather::scatter_open`] are exhausted.
    ///
    /// # Panics
    /// Panics when `lane` is out of range on `sg`.
    pub fn send_more<Req>(
        &mut self,
        sg: &ScatterGather<Req, Resp>,
        lane: usize,
        req: Req,
    ) -> Option<usize> {
        if self.hedge_left == 0 {
            return None;
        }
        self.hedge_left -= 1;
        let seq = self.sent;
        self.sent += 1;
        sg.deliver(seq, lane, req, &self.reply);
        Some(seq)
    }

    /// Receive the next resolution, blocking at most `timeout`:
    /// `Some((seq, answer))` when a part resolved, `None` when the wait
    /// expired with nothing pending yet.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(usize, Option<Resp>)> {
        self.reply.pop_timeout(timeout)
    }

    /// Receive the next resolution, blocking until one arrives.
    ///
    /// # Panics
    /// Panics if called with no parts outstanding (callers track
    /// `sent()` minus resolutions received).
    pub fn recv(&self) -> (usize, Option<Resp>) {
        self.reply
            .pop()
            .expect("every part resolves exactly once (fulfil or drop)")
    }
}

/// Fan-out/fan-in over per-destination bounded lanes (module docs).
pub struct ScatterGather<Req, Resp> {
    lanes: Vec<Lane<Req, Resp>>,
    faults: Vec<Mutex<LaneFaultState>>,
}

impl<Req, Resp> ScatterGather<Req, Resp> {
    /// A collective with `lanes` destinations, each lane buffering at
    /// most `depth` parts (the shard-tier backpressure bound).
    ///
    /// # Panics
    /// Panics when `lanes == 0` — a collective needs a destination.
    #[must_use]
    pub fn new(lanes: usize, depth: usize) -> ScatterGather<Req, Resp> {
        assert!(lanes >= 1, "a collective needs at least one lane");
        ScatterGather {
            lanes: (0..lanes).map(|_| BoundedQueue::new(depth)).collect(),
            faults: (0..lanes)
                .map(|_| Mutex::new(LaneFaultState::new(LaneFaultPlan::default())))
                .collect(),
        }
    }

    /// Install `plan` on lane `lane`, resetting its delivery counter
    /// and dice (chaos tests drive stalls and drops through this).
    ///
    /// # Panics
    /// Panics when `lane` is out of range.
    pub fn set_lane_faults(&self, lane: usize, plan: LaneFaultPlan) {
        *self.faults[lane]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = LaneFaultState::new(plan);
    }

    /// The fault verdict for one delivery on `lane`.
    fn fault_verdict(&self, lane: usize) -> Option<LaneFault> {
        self.faults[lane]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next()
    }

    /// Number of destination lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// A worker handle for lane `lane`.
    ///
    /// # Panics
    /// Panics when `lane` is out of range.
    #[must_use]
    pub fn lane(&self, lane: usize) -> Lane<Req, Resp> {
        self.lanes[lane].clone()
    }

    /// Scatter `parts` (each a `(lane, request)` pair) and return the
    /// gather for their answers. Pushes block for lane backpressure; a
    /// part addressed to a closed lane resolves as missing instead of
    /// blocking forever.
    ///
    /// # Panics
    /// Panics when a part addresses an out-of-range lane.
    pub fn scatter(&self, parts: Vec<(usize, Req)>) -> Gather<Resp> {
        let expected = parts.len();
        let reply: BoundedQueue<(usize, Option<Resp>)> = BoundedQueue::new(expected.max(1));
        for (seq, (lane, req)) in parts.into_iter().enumerate() {
            self.deliver(seq, lane, req, &reply);
        }
        Gather { reply, expected }
    }

    /// Scatter `parts` into an [`OpenGather`] that can receive answers
    /// incrementally *and* accept up to `hedge_slots` further parts
    /// ([`OpenGather::send_more`]) into the same reply stream — the
    /// hedged-re-scatter shape: watch for stragglers, speculatively
    /// re-send their work elsewhere, take whichever answer lands first.
    ///
    /// # Panics
    /// Panics when a part addresses an out-of-range lane.
    pub fn scatter_open(&self, parts: Vec<(usize, Req)>, hedge_slots: usize) -> OpenGather<Resp> {
        let expected = parts.len();
        // Capacity covers every part that can ever resolve, so promise
        // pushes are never refused as full.
        let reply: BoundedQueue<(usize, Option<Resp>)> =
            BoundedQueue::new((expected + hedge_slots).max(1));
        for (seq, (lane, req)) in parts.into_iter().enumerate() {
            self.deliver(seq, lane, req, &reply);
        }
        OpenGather {
            reply,
            sent: expected,
            hedge_left: hedge_slots,
        }
    }

    /// Address part `seq` to `lane`, applying the lane's fault verdict:
    /// a dropped part never ships (its promise resolves missing), a
    /// stalled part carries its reply delay with it.
    fn deliver(
        &self,
        seq: usize,
        lane: usize,
        req: Req,
        reply: &BoundedQueue<(usize, Option<Resp>)>,
    ) {
        assert!(lane < self.lanes.len(), "lane {lane} out of range");
        let mut promise = Promise {
            seq,
            reply: reply.clone(),
            fulfilled: false,
            delay: None,
        };
        match self.fault_verdict(lane) {
            Some(LaneFault::Drop) => {
                // Dropping the promise resolves the part as missing —
                // the gather observes `None`, never a hang.
                drop(promise);
                return;
            }
            Some(LaneFault::Stall { millis }) => {
                promise.delay = Some(Duration::from_millis(millis));
            }
            None => {}
        }
        let envelope = Envelope { lane, req, promise };
        // A refused push (lane closed) drops the envelope, whose
        // promise resolves the part as missing.
        let _ = self.lanes[lane].push(envelope);
    }

    /// Close every lane and drain what they still hold: producers are
    /// refused from now on, workers observe end-of-stream after the
    /// drain, and every still-queued envelope resolves its part as
    /// missing. Idempotent.
    pub fn close(&self) {
        for lane in &self.lanes {
            lane.close();
            // Dropping the leftover envelopes fires their promises.
            while lane.try_pop().is_some() {}
        }
    }

    /// Whether [`ScatterGather::close`] has run.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.lanes.iter().all(BoundedQueue::is_closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_gathers_in_part_order() {
        let sg: ScatterGather<u64, u64> = ScatterGather::new(3, 4);
        let workers: Vec<_> = (0..3)
            .map(|l| {
                let lane = sg.lane(l);
                std::thread::spawn(move || {
                    while let Some(env) = lane.pop() {
                        let (req, promise) = env.split();
                        promise.fulfill(req * 10 + l as u64);
                    }
                })
            })
            .collect();
        // Parts deliberately hit lanes out of order; answers come back
        // in part order regardless of which worker finishes first.
        let gather = sg.scatter(vec![(2, 1), (0, 2), (1, 3), (0, 4)]);
        let got = gather.gather();
        assert_eq!(
            got,
            vec![Some(12), Some(20), Some(31), Some(40)],
            "answers keyed by scatter order, not completion order"
        );
        sg.close();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn dropped_envelope_resolves_as_missing() {
        let sg: ScatterGather<u32, u32> = ScatterGather::new(2, 4);
        let dead = sg.lane(0);
        let live = sg.lane(1);
        let worker = std::thread::spawn(move || {
            while let Some(env) = live.pop() {
                let (req, promise) = env.split();
                promise.fulfill(req + 1);
            }
        });
        let gather = sg.scatter(vec![(0, 7), (1, 8)]);
        // Lane 0's "worker" drops the envelope without replying.
        drop(dead.pop().expect("part queued"));
        assert_eq!(
            gather.gather(),
            vec![None, Some(9)],
            "the dead lane's part is missing, the live one answered"
        );
        sg.close();
        worker.join().unwrap();
    }

    #[test]
    fn close_drains_and_resolves_everything_missing() {
        let sg: ScatterGather<u8, u8> = ScatterGather::new(2, 4);
        // No workers: parts sit queued until close drains them.
        let pending = sg.scatter(vec![(0, 1), (1, 2), (0, 3)]);
        sg.close();
        assert!(sg.is_closed());
        assert_eq!(pending.gather(), vec![None, None, None]);
        // Scatter after close: pushes are refused, parts resolve
        // missing immediately instead of blocking.
        let refused = sg.scatter(vec![(0, 4), (1, 5)]);
        assert_eq!(refused.gather(), vec![None, None]);
    }

    #[test]
    fn concurrent_scatters_do_not_crosstalk() {
        let sg = std::sync::Arc::new(ScatterGather::<u64, u64>::new(2, 8));
        let workers: Vec<_> = (0..2)
            .map(|l| {
                let lane = sg.lane(l);
                std::thread::spawn(move || {
                    while let Some(env) = lane.pop() {
                        let (req, promise) = env.split();
                        promise.fulfill(req);
                    }
                })
            })
            .collect();
        let callers: Vec<_> = (0..4u64)
            .map(|c| {
                let sg = std::sync::Arc::clone(&sg);
                std::thread::spawn(move || {
                    let base = c * 100;
                    let gather =
                        sg.scatter(vec![(0, base), (1, base + 1), (0, base + 2), (1, base + 3)]);
                    let got = gather.gather();
                    // Each caller's gather sees exactly its own echoes.
                    assert_eq!(
                        got,
                        (0..4).map(|i| Some(base + i)).collect::<Vec<_>>(),
                        "caller {c} crosstalked"
                    );
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        sg.close();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn worker_panic_resolves_its_part_and_spares_the_rest() {
        let sg: ScatterGather<u32, u32> = ScatterGather::new(1, 4);
        let lane = sg.lane(0);
        let panicker = std::thread::spawn(move || {
            let env = lane.pop().expect("first part queued");
            let (_req, _promise) = env.split();
            panic!("injected worker death");
        });
        let gather = sg.scatter(vec![(0, 1)]);
        assert_eq!(
            gather.gather(),
            vec![None],
            "the unwound promise resolves the part as missing"
        );
        assert!(panicker.join().is_err(), "the worker did panic");
        // The collective survives the poisoned thread: a fresh worker
        // keeps serving the same lane.
        let lane = sg.lane(0);
        let worker = std::thread::spawn(move || {
            while let Some(env) = lane.pop() {
                let (req, promise) = env.split();
                promise.fulfill(req * 2);
            }
        });
        assert_eq!(sg.scatter(vec![(0, 21)]).gather(), vec![Some(42)]);
        sg.close();
        worker.join().unwrap();
    }

    #[test]
    fn dropped_lane_fault_delivers_none_not_a_hang() {
        let sg: ScatterGather<u32, u32> = ScatterGather::new(2, 4);
        // Lane 0 drops its first two deliveries; lane 1 is healthy.
        sg.set_lane_faults(
            0,
            LaneFaultPlan::default()
                .fire_at(0, LaneFault::Drop)
                .fire_at(1, LaneFault::Drop),
        );
        let workers: Vec<_> = (0..2)
            .map(|l| {
                let lane = sg.lane(l);
                std::thread::spawn(move || {
                    while let Some(env) = lane.pop() {
                        let (req, promise) = env.split();
                        promise.fulfill(req + 1);
                    }
                })
            })
            .collect();
        let got = sg.scatter(vec![(0, 10), (1, 20), (0, 30)]).gather();
        assert_eq!(
            got,
            vec![None, Some(21), None],
            "dropped parts resolve as missing; the gather terminates"
        );
        // The counter advanced past the triggers: lane 0 heals.
        assert_eq!(sg.scatter(vec![(0, 40)]).gather(), vec![Some(41)]);
        sg.close();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn stalled_lane_delivers_late_but_delivers() {
        let sg: ScatterGather<u32, u32> = ScatterGather::new(2, 4);
        sg.set_lane_faults(0, LaneFaultPlan::default().delay(30));
        let workers: Vec<_> = (0..2)
            .map(|l| {
                let lane = sg.lane(l);
                std::thread::spawn(move || {
                    while let Some(env) = lane.pop() {
                        let (req, promise) = env.split();
                        promise.fulfill(req);
                    }
                })
            })
            .collect();
        let open = sg.scatter_open(vec![(0, 1), (1, 2)], 0);
        // The healthy lane answers well before the stalled one.
        let (first_seq, first) = open.recv();
        assert_eq!((first_seq, first), (1, Some(2)));
        // The stalled part is late — a short poll misses it ...
        let early = open.recv_timeout(Duration::from_millis(1));
        // ... but it still arrives; nothing hangs.
        let (late_seq, late) = match early {
            Some(resolved) => resolved,
            None => open.recv(),
        };
        assert_eq!((late_seq, late), (0, Some(1)));
        sg.close();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn stalled_part_drained_at_close_still_resolves_missing() {
        let sg: ScatterGather<u8, u8> = ScatterGather::new(1, 4);
        sg.set_lane_faults(
            0,
            LaneFaultPlan::default().fire_at(0, LaneFault::Stall { millis: 50 }),
        );
        // No worker ever pops the stalled part; close drains it.
        let pending = sg.scatter(vec![(0, 1)]);
        sg.close();
        assert_eq!(
            pending.gather(),
            vec![None],
            "an undelivered stalled part resolves as missing at close"
        );
    }

    #[test]
    fn seeded_lane_faults_replay_identically() {
        // With no worker attached, the parts that survive the dice sit
        // queued on the lane — count them to observe the verdicts.
        let shipped = |seed: u64| -> Vec<bool> {
            let sg: ScatterGather<u8, u8> = ScatterGather::new(1, 64);
            sg.set_lane_faults(0, LaneFaultPlan::seeded(seed).drop_rate(0.5));
            let gather = sg.scatter((0..32).map(|i| (0, i)).collect());
            let lane = sg.lane(0);
            let mut survived = vec![false; 32];
            while let Some(env) = lane.try_pop() {
                survived[usize::from(*env.request())] = true;
            }
            drop(gather); // resolved by the envelope drops above
            survived
        };
        assert_eq!(shipped(7), shipped(7), "same seed, same verdicts");
        let a = shipped(7);
        let n = a.iter().filter(|&&s| s).count();
        assert!(n > 0 && n < 32, "the dice actually both drop and ship");
        assert_ne!(shipped(7), shipped(8), "different seed, different roll");
    }

    #[test]
    fn open_gather_hedge_first_writer_wins() {
        let sg: ScatterGather<u64, u64> = ScatterGather::new(2, 4);
        // Lane 0 is pathologically slow; lane 1 is fast.
        sg.set_lane_faults(0, LaneFaultPlan::default().delay(80));
        let workers: Vec<_> = (0..2)
            .map(|l| {
                let lane = sg.lane(l);
                std::thread::spawn(move || {
                    while let Some(env) = lane.pop() {
                        let (req, promise) = env.split();
                        promise.fulfill(req * 10 + l as u64);
                    }
                })
            })
            .collect();
        let mut open = sg.scatter_open(vec![(0, 5)], 2);
        assert_eq!(open.sent(), 1);
        // No answer within the hedge trigger window: re-scatter the
        // same work to the fast sibling.
        assert!(open.recv_timeout(Duration::from_millis(5)).is_none());
        let hedge_seq = open.send_more(&sg, 1, 5).expect("hedge slot");
        assert_eq!(hedge_seq, 1);
        assert_eq!(open.hedge_slots_left(), 1);
        // First writer wins: the hedge lands first ...
        let (seq, resp) = open.recv();
        assert_eq!((seq, resp), (1, Some(51)));
        // ... and the straggler still resolves (discarded by callers).
        let (seq, resp) = open.recv();
        assert_eq!((seq, resp), (0, Some(50)));
        // Hedge slots are a hard budget.
        assert!(open.send_more(&sg, 1, 5).is_some());
        assert!(open.send_more(&sg, 1, 5).is_none(), "budget exhausted");
        let _ = open.recv();
        sg.close();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn lane_backpressure_bounds_queued_parts() {
        let sg: ScatterGather<usize, usize> = ScatterGather::new(1, 2);
        let lane = sg.lane(0);
        // A slow worker: scatter's blocking push must wait for lane
        // slots, never drop or reorder parts.
        let worker = std::thread::spawn(move || {
            let mut served = 0usize;
            while let Some(env) = lane.pop() {
                let (req, promise) = env.split();
                assert_eq!(req, served, "FIFO per lane");
                served += 1;
                promise.fulfill(req);
            }
            served
        });
        let gather = sg.scatter((0..16).map(|i| (0, i)).collect());
        let got = gather.gather();
        assert_eq!(got, (0..16).map(Some).collect::<Vec<_>>());
        sg.close();
        assert_eq!(worker.join().unwrap(), 16);
    }
}

//! Lock-free single-producer single-consumer ring queue.
//!
//! The paper's dispatcher threads communicate through "lightweight,
//! lock-free single-producer, single-consumer (SPSC) queues, which pass
//! pointers to TaskObjects between pipeline chunks" (§3.4). This is that
//! queue: a fixed-capacity ring with acquire/release head/tail counters.
//! Boxes are passed, so queue traffic is pointer-sized regardless of
//! payload.
//!
//! The protocol is written once, on one [`Producer`]/[`Consumer`] pair.
//! Two shapes of ring sit under it, differing only in where the slots live
//! and how the endpoints hold the ring:
//!
//! - [`channel`] — runtime capacity, slots in a boxed slice, the ring
//!   shared through `Arc`: the host executor's workhorse.
//! - [`StaticRing`] — const-generic capacity, slots inline,
//!   `const`-constructible, and borrow-split into endpoints
//!   ([`StaticProducer`]/[`StaticConsumer`] are the same pair holding a
//!   `&` instead of an `Arc`): placeable in a `static` on an MCU where
//!   there is no allocator at channel-set-up time.
//!
//! Neither allocates on the push/pop hot path — the heap ring's only
//! allocation is the buffer itself at construction (pinned by the
//! workspace `substrate_alloc` test).

use core::cell::UnsafeCell;
use core::marker::PhantomData;
use core::sync::atomic::{AtomicBool, Ordering};
use core::time::Duration;

use alloc::boxed::Box;
use alloc::sync::Arc;

use crate::time::Park;
#[cfg(feature = "std")]
use crate::time::StdPark;

use ring::{Handle, Ring, Slot};

/// The ring state both shapes share. The module is private; its items are
/// `pub` only so the endpoints' handle type can name them.
mod ring {
    use core::cell::UnsafeCell;
    use core::ops::Deref;
    use core::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use crate::pad::CachePadded;

    /// One slot: `Some` from the push that fills it to the pop that
    /// empties it.
    pub(super) type Slot<T> = UnsafeCell<Option<T>>;

    /// The protocol's shared state: two counters on their own cache lines,
    /// two liveness flags, and the slots — a `Box<[Slot<T>]>` behind a
    /// [`channel`](super::channel)'s `Arc`, or the `[Slot<T>; N]` inside a
    /// [`StaticRing`](super::StaticRing).
    // `S` stays `Sized`: a `?Sized` last field is pinned after the flags,
    // which put 16-byte slots across cache-line boundaries and made a
    // static ring's cross-thread hop ≈ 1.5× slower (2-core x86-64 VM).
    pub struct Ring<S> {
        /// Next slot to read (owned by the consumer; read by the producer).
        pub(super) head: CachePadded<AtomicUsize>,
        /// Next slot to write (owned by the producer; read by the consumer).
        pub(super) tail: CachePadded<AtomicUsize>,
        /// Cleared when the producer drops. Lets a blocked consumer
        /// distinguish "queue momentarily empty" from "no item will ever
        /// arrive" — without it, `pop_blocking` on a dead dispatcher spins
        /// forever.
        pub(super) producer_alive: AtomicBool,
        /// Cleared when the consumer drops (symmetric signal for blocked
        /// producers).
        pub(super) consumer_alive: AtomicBool,
        pub(super) slots: S,
    }

    impl<S> Ring<S> {
        /// An empty ring over `slots`, both endpoints alive.
        pub(super) const fn new(slots: S) -> Ring<S> {
            Ring {
                head: CachePadded::new(AtomicUsize::new(0)),
                tail: CachePadded::new(AtomicUsize::new(0)),
                producer_alive: AtomicBool::new(true),
                consumer_alive: AtomicBool::new(true),
                slots,
            }
        }
    }

    // SAFETY: the counters and flags are atomics; only `slots` needs an
    // argument. The ring is shared between exactly one producer and one
    // consumer (the endpoints are not cloneable, and a `StaticRing` hands
    // its pair out once). A slot is written by the producer strictly before
    // the tail increment that publishes it (release), and read by the
    // consumer strictly after observing that increment (acquire); the
    // converse holds for head. So no slot is accessed concurrently, and
    // sharing the ring only moves items between threads: for both slot
    // storages (the only `S` this module builds), `S: Send` is exactly
    // `T: Send`.
    unsafe impl<S: Send> Sync for Ring<S> {}

    impl<S> core::fmt::Debug for Ring<S> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("Ring")
                .field("head", &self.head.load(Ordering::Relaxed))
                .field("tail", &self.tail.load(Ordering::Relaxed))
                .finish_non_exhaustive()
        }
    }

    /// How an endpoint holds its ring: an `Arc` (heap) or a `&` borrow
    /// (static). Both deref straight to the ring, so push and pop take the
    /// same path through either.
    pub trait Handle<T>: Deref<Target = Ring<Self::Slots>> {
        /// Where the slots live.
        type Slots: AsRef<[Slot<T>]>;
    }

    impl<T, H, S> Handle<T> for H
    where
        H: Deref<Target = Ring<S>>,
        S: AsRef<[Slot<T>]>,
    {
        type Slots = S;
    }
}

/// The sending endpoint of an SPSC ring. Not cloneable: single producer.
///
/// `R` is how the endpoint holds its ring: an `Arc` for a [`channel`] (the
/// default), a borrow for a [`StaticRing`] ([`StaticProducer`]).
#[derive(Debug)]
pub struct Producer<T, R: Handle<T> = Arc<Ring<Box<[Slot<T>]>>>> {
    ring: R,
    item: PhantomData<T>,
}

/// The receiving endpoint of an SPSC ring. Not cloneable: single consumer.
///
/// `R` is how the endpoint holds its ring, as for [`Producer`].
#[derive(Debug)]
pub struct Consumer<T, R: Handle<T> = Arc<Ring<Box<[Slot<T>]>>>> {
    ring: R,
    item: PhantomData<T>,
}

/// The sending endpoint of a [`StaticRing`]: a [`Producer`] that borrows
/// its ring.
pub type StaticProducer<'a, T, const N: usize> = Producer<T, &'a Ring<[Slot<T>; N]>>;

/// The receiving endpoint of a [`StaticRing`]: a [`Consumer`] that borrows
/// its ring.
pub type StaticConsumer<'a, T, const N: usize> = Consumer<T, &'a Ring<[Slot<T>; N]>>;

/// The one producer and the one consumer of the ring behind `ring`.
fn endpoints<T, R: Handle<T> + Clone>(ring: R) -> (Producer<T, R>, Consumer<T, R>) {
    let producer = Producer {
        ring: ring.clone(),
        item: PhantomData,
    };
    (
        producer,
        Consumer {
            ring,
            item: PhantomData,
        },
    )
}

/// A channel was requested with capacity zero, which cannot hold even one
/// in-flight item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError;

impl core::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SPSC channel capacity must be positive")
    }
}

impl core::error::Error for CapacityError {}

/// Creates an SPSC channel of the given capacity.
///
/// # Errors
///
/// Returns [`CapacityError`] if `capacity == 0` — a zero-slot ring could
/// never accept a push, so the misconfiguration is reported where the
/// executor can map it into its own error type instead of panicking a
/// dispatcher thread.
///
/// ```
/// let (mut tx, mut rx) = bt_rt::spsc::channel(2).unwrap();
/// tx.push(1).unwrap();
/// tx.push(2).unwrap();
/// assert!(tx.push(3).is_err(), "full");
/// assert_eq!(rx.pop(), Some(1));
/// assert_eq!(rx.pop(), Some(2));
/// assert_eq!(rx.pop(), None);
/// assert!(bt_rt::spsc::channel::<u8>(0).is_err());
/// ```
pub fn channel<T>(capacity: usize) -> Result<(Producer<T>, Consumer<T>), CapacityError> {
    if capacity == 0 {
        return Err(CapacityError);
    }
    let slots: Box<[Slot<T>]> = (0..capacity).map(|_| UnsafeCell::new(None)).collect();
    Ok(endpoints(Arc::new(Ring::new(slots))))
}

/// The peer endpoint dropped: no further item will ever arrive (consumer
/// side) or be drained (producer side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl core::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SPSC peer endpoint dropped")
    }
}

impl core::error::Error for Disconnected {}

/// Exponential backoff for busy-wait loops around [`Producer::push`] /
/// [`Consumer::pop`].
///
/// Escalates through three regimes as an operation keeps failing:
/// first busy-spin with `hint::spin_loop` (doubling the spin count each
/// round up to `2^SPIN_LIMIT`), then yield, and finally a short sleep.
/// Spinning wins when the peer is running on another core and will
/// publish within tens of nanoseconds; yielding and sleeping stop a
/// starved dispatcher from burning a whole core — which matters on small
/// phone SoCs where the spinner would steal cycles from the very peer it
/// is waiting on.
///
/// This is the one shared backoff policy for the whole substrate: the
/// [`SPIN_LIMIT`](Backoff::SPIN_LIMIT) / [`YIELD_LIMIT`](Backoff::YIELD_LIMIT)
/// / [`SLEEP`](Backoff::SLEEP) constants are public so executors and tests
/// reason about the same escalation schedule instead of duplicating the
/// numbers. The yield and sleep stages go through a [`Park`], so the same
/// policy runs on the host (`std::thread`) and on targets with no OS
/// scheduler; the spin stage is pure `core::hint::spin_loop`.
///
/// Miri-safe: only `spin_loop`, `yield_now`, and `sleep` — no clock
/// reads or OS parking primitives.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Last step of the busy-spin regime: step `s ≤ SPIN_LIMIT` spins
    /// `2^s` `spin_loop` hints.
    pub const SPIN_LIMIT: u32 = 6;
    /// Last step of the yield regime; beyond it every round sleeps.
    pub const YIELD_LIMIT: u32 = 10;
    /// Sleep quantum of the final regime.
    pub const SLEEP: Duration = Duration::from_micros(50);

    /// A fresh backoff at the spinning stage.
    pub fn new() -> Backoff {
        Backoff::default()
    }

    /// Waits one round and escalates, standing down through `park` once
    /// past the spin stage. Call after each failed push/pop attempt; drop
    /// it once it succeeds.
    pub fn snooze_with<P: Park>(&mut self, park: &P) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                core::hint::spin_loop();
            }
        } else if self.step <= Self::YIELD_LIMIT {
            park.yield_now();
        } else {
            park.sleep(Self::SLEEP);
        }
        if self.step <= Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// [`snooze_with`](Backoff::snooze_with) through the host scheduler
    /// (`std::thread::yield_now` / `std::thread::sleep`).
    #[cfg(feature = "std")]
    pub fn snooze(&mut self) {
        self.snooze_with(&StdPark);
    }
}

impl<T, R: Handle<T>> Producer<T, R> {
    /// Attempts to enqueue `value`; returns it back if the queue is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(value)` when the ring is at capacity.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        let slots = ring.slots.as_ref();
        if tail.wrapping_sub(head) == slots.len() {
            return Err(value);
        }
        // SAFETY: see `Ring`'s `Sync` justification — this slot is not
        // visible to the consumer until the tail store below.
        unsafe { *slots[tail % slots.len()].get() = Some(value) };
        ring.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Number of items currently queued.
    ///
    /// The producer owns `tail`, so a relaxed self-load is exact; `head`
    /// (the counter the consumer owns) is acquire-loaded so concurrent
    /// pops are observed promptly and in order. Guarantee: the result is
    /// an **upper bound** on the true occupancy — concurrent pops can
    /// only shrink the queue under the producer — so at least
    /// `capacity − len()` further pushes will succeed, and with no
    /// producer-side pushes in between, successive calls never increase.
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        ring.tail
            .load(Ordering::Relaxed)
            .wrapping_sub(ring.head.load(Ordering::Acquire))
    }

    /// Whether the queue is empty (same guarantee as [`Producer::len`]:
    /// `true` can only become stale through this endpoint's own pushes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the consumer endpoint has dropped. Once `true` it stays
    /// `true`, and nothing pushed afterwards will ever be drained.
    pub fn is_disconnected(&self) -> bool {
        !self.ring.consumer_alive.load(Ordering::Acquire)
    }
}

impl<T, R: Handle<T>> Drop for Producer<T, R> {
    fn drop(&mut self) {
        self.ring.producer_alive.store(false, Ordering::Release);
    }
}

impl<T, R: Handle<T>> Consumer<T, R> {
    /// Attempts to dequeue; returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slots = ring.slots.as_ref();
        // SAFETY: the acquire load of tail above guarantees the producer's
        // write to this slot is visible, and the producer will not touch it
        // again until head advances past it.
        let value = unsafe { (*slots[head % slots.len()].get()).take() };
        debug_assert!(value.is_some(), "published slot must be occupied");
        ring.head.store(head.wrapping_add(1), Ordering::Release);
        value
    }

    /// Blocking pop: waits with exponential [`Backoff`] (spin → yield →
    /// sleep, standing down through `park`) until an item arrives or the
    /// producer endpoint drops.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] once the producer has dropped *and* the
    /// queue is drained — items published before the drop are still
    /// delivered.
    pub fn pop_blocking_with<P: Park>(&mut self, park: &P) -> Result<T, Disconnected> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(v) = self.pop() {
                return Ok(v);
            }
            // Check liveness only after an empty pop: a producer that
            // pushed and then dropped must still have its items drained,
            // so re-poll once after observing the death.
            if self.is_disconnected() {
                return self.pop().ok_or(Disconnected);
            }
            backoff.snooze_with(park);
        }
    }

    /// [`pop_blocking_with`](Consumer::pop_blocking_with) through the host
    /// scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`Disconnected`] once the producer has dropped and the
    /// queue is drained.
    #[cfg(feature = "std")]
    pub fn pop_blocking(&mut self) -> Result<T, Disconnected> {
        self.pop_blocking_with(&StdPark)
    }

    /// Whether the producer endpoint has dropped. Once `true` it stays
    /// `true`; at most [`len`](Consumer::len) further pops can succeed.
    pub fn is_disconnected(&self) -> bool {
        !self.ring.producer_alive.load(Ordering::Acquire)
    }

    /// Number of items currently queued.
    ///
    /// The consumer owns `head`, so a relaxed self-load is exact; `tail`
    /// (the counter the producer owns) is acquire-loaded, which also
    /// publishes the slots behind it. Guarantee: the result is a **lower
    /// bound** on the true occupancy — concurrent pushes can only grow
    /// the queue under the consumer — so at least `len()` immediate
    /// [`pop`](Consumer::pop)s will succeed, and with no consumer-side
    /// pops in between, successive calls never decrease.
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        ring.tail
            .load(Ordering::Acquire)
            .wrapping_sub(ring.head.load(Ordering::Relaxed))
    }

    /// Whether the queue is empty (same guarantee as [`Consumer::len`]:
    /// `false` is definitive, `true` can be stale by one in-flight push).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T, R: Handle<T>> Drop for Consumer<T, R> {
    fn drop(&mut self) {
        self.ring.consumer_alive.store(false, Ordering::Release);
    }
}

/// A const-generic SPSC ring with inline storage: the [`channel`] protocol
/// without the allocator.
///
/// Where the heap channel is built at runtime and owned through `Arc`, a
/// `StaticRing` is `const`-constructible — it can live in a `static` on a
/// target whose channels must exist before (or without) any heap — and
/// the endpoints borrow it:
///
/// ```
/// static RING: bt_rt::StaticRing<u32, 4> = bt_rt::StaticRing::new();
/// let (mut tx, mut rx) = RING.split().expect("first split");
/// tx.push(7).unwrap();
/// assert_eq!(rx.pop(), Some(7));
/// assert!(RING.split().is_none(), "endpoints are claimed once");
/// ```
///
/// [`split`](StaticRing::split) hands out the single producer/consumer
/// pair once per ring lifetime; the endpoints are the heap channel's own
/// [`Producer`]/[`Consumer`], so the memory protocol is the same code.
/// A zero-capacity `StaticRing<T, 0>` fails to compile.
pub struct StaticRing<T, const N: usize> {
    ring: Ring<[Slot<T>; N]>,
    /// Set by the first (and only successful) `split`.
    claimed: AtomicBool,
}

impl<T, const N: usize> StaticRing<T, N> {
    /// Post-monomorphization guard: referencing this constant makes
    /// `StaticRing<T, 0>` a compile error rather than a runtime panic.
    const CAPACITY_POSITIVE: () = assert!(N > 0, "StaticRing capacity must be positive");

    /// An empty, unclaimed ring. Usable in `const`/`static` position.
    pub const fn new() -> StaticRing<T, N> {
        #[allow(clippy::let_unit_value)]
        let () = Self::CAPACITY_POSITIVE;
        StaticRing {
            ring: Ring::new([const { UnsafeCell::new(None) }; N]),
            claimed: AtomicBool::new(false),
        }
    }

    /// The ring's fixed capacity, `N`.
    pub const fn capacity(&self) -> usize {
        N
    }

    /// Claims the producer/consumer endpoint pair.
    ///
    /// Succeeds exactly once per ring: subsequent calls return `None`,
    /// including after the endpoints drop — a ring whose dispatcher died
    /// holds an indeterminate head/tail state and must not be reissued.
    pub fn split(&self) -> Option<(StaticProducer<'_, T, N>, StaticConsumer<'_, T, N>)> {
        if self.claimed.swap(true, Ordering::AcqRel) {
            return None;
        }
        Some(endpoints(&self.ring))
    }
}

impl<T, const N: usize> Default for StaticRing<T, N> {
    fn default() -> StaticRing<T, N> {
        StaticRing::new()
    }
}

impl<T, const N: usize> core::fmt::Debug for StaticRing<T, N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StaticRing")
            .field("capacity", &N)
            .field("claimed", &self.claimed.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(all(test, feature = "std"))]
mod tests {
    use super::*;
    use crate::time::SpinPark;

    /// Items for `len_bounds_hold_across_threads`, which fills a ring of
    /// this capacity.
    const LEN_BOUND_ITEMS: usize = if cfg!(miri) { 256 } else { 10_000 };

    /// Writes each behavioural test once and runs it on both shapes:
    /// `$heap` on a [`channel`] and `$stat` on a [`StaticRing`], both
    /// `[$t; $cap]` (item type and capacity), with the endpoints bound to
    /// `$tx` and `$rx`.
    macro_rules! on_both_shapes {
        ($(
            $heap:ident, $stat:ident: [$t:ty; $cap:expr] |$tx:ident, $rx:ident| $body:block
        )*) => {$(
            #[test]
            fn $heap() {
                #[allow(unused_mut)]
                let (mut $tx, mut $rx) = channel::<$t>($cap).expect("positive capacity");
                $body
            }

            #[test]
            fn $stat() {
                let ring = StaticRing::<$t, { $cap }>::new();
                #[allow(unused_mut)]
                let (mut $tx, mut $rx) = ring.split().expect("first split");
                $body
            }
        )*};
    }

    on_both_shapes! {
        fifo_order, static_ring_fifo_order: [u64; 8] |tx, rx| {
            for i in 0..8 {
                tx.push(i).unwrap();
            }
            for i in 0..8 {
                assert_eq!(rx.pop(), Some(i));
            }
            assert_eq!(rx.pop(), None);
        }

        full_queue_rejects, static_ring_full_queue_rejects: [&'static str; 1] |tx, rx| {
            tx.push("a").unwrap();
            assert_eq!(tx.push("b"), Err("b"));
            assert_eq!(rx.pop(), Some("a"));
            tx.push("b").unwrap();
        }

        wraparound_many_times, static_ring_fifo_and_wraparound: [u64; 3] |tx, rx| {
            for round in 0..1000u64 {
                tx.push(round).unwrap();
                assert_eq!(rx.pop(), Some(round));
            }
            // Full at capacity with the counters far past it.
            for i in 1..=3 {
                tx.push(i).unwrap();
            }
            assert_eq!(tx.push(4), Err(4), "full at capacity");
            assert_eq!(tx.len(), 3);
            assert_eq!(rx.pop(), Some(1));
            assert_eq!(rx.len(), 2);
        }

        boxed_payloads_move_without_copy, static_ring_boxed_payloads_move_without_copy:
            [Box<Vec<u8>>; 2] |tx, rx| {
            let payload = Box::new(vec![7u8; 1024]);
            let addr = payload.as_ptr();
            tx.push(payload).unwrap();
            let got = rx.pop().unwrap();
            assert_eq!(got.as_ptr(), addr, "same allocation passed through");
        }

        concurrent_stress_no_loss_no_duplication,
        static_ring_concurrent_stress_no_loss_no_duplication: [u64; 64] |tx, rx| {
            // Miri interprets every memory access; keep its schedule bounded.
            const N: u64 = if cfg!(miri) { 1_000 } else { 200_000 };
            std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..N {
                        let mut v = i;
                        while let Err(back) = tx.push(v) {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                });
                s.spawn(move || {
                    let (mut expected, mut sum) = (0u64, 0u64);
                    while expected < N {
                        if let Some(v) = rx.pop() {
                            assert_eq!(v, expected, "strict FIFO");
                            sum = sum.wrapping_add(v);
                            expected += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    assert_eq!(sum, (N - 1) * N / 2);
                });
            });
        }

        len_tracks_occupancy, static_ring_len_tracks_occupancy: [u64; 4] |tx, rx| {
            assert!(tx.is_empty());
            tx.push(1).unwrap();
            tx.push(2).unwrap();
            assert_eq!(tx.len(), 2);
            assert_eq!(rx.len(), 2);
            rx.pop();
            assert_eq!(rx.len(), 1);
        }

        len_bounds_hold_across_threads, static_ring_len_bounds_hold_across_threads:
            [usize; LEN_BOUND_ITEMS] |tx, rx| {
            const N: usize = LEN_BOUND_ITEMS;
            std::thread::scope(|s| {
                // While only the producer mutates the queue, the
                // consumer-side len is a lower bound and never decreases,
                // and every item it counts is immediately poppable.
                let watcher = s.spawn(move || {
                    let mut last = 0usize;
                    while last < N {
                        let cur = rx.len();
                        assert!(cur >= last, "consumer len went backwards: {last} -> {cur}");
                        last = cur;
                    }
                    rx
                });
                for i in 0..N {
                    tx.push(i).unwrap();
                }
                let mut rx = watcher.join().unwrap();
                let counted = rx.len();
                for _ in 0..counted {
                    assert!(rx.pop().is_some(), "counted item must be poppable");
                }

                // While only the consumer mutates the queue, the
                // producer-side len is an upper bound and never increases.
                for i in 0..N {
                    tx.push(i).unwrap();
                }
                s.spawn(move || while rx.pop().is_some() {});
                let mut last = N;
                while last > 0 {
                    let cur = tx.len();
                    assert!(cur <= last, "producer len grew without a push: {last} -> {cur}");
                    last = cur;
                }
            });
            assert!(tx.is_empty());
        }

        pop_blocking_waits_for_producer, static_ring_pop_blocking_waits_for_producer:
            [u64; 1] |tx, rx| {
            std::thread::scope(|s| {
                let h = s.spawn(move || rx.pop_blocking());
                std::thread::sleep(Duration::from_millis(20));
                tx.push(42).unwrap();
                assert_eq!(h.join().unwrap(), Ok(42));
            });
        }

        pop_blocking_unblocks_when_producer_dies,
        static_ring_pop_blocking_unblocks_when_producer_dies: [u8; 4] |tx, rx| {
            // The bug this guards against: a consumer blocked on a queue
            // whose producer dispatcher died used to spin forever.
            std::thread::scope(|s| {
                let h = s.spawn(move || rx.pop_blocking());
                std::thread::sleep(Duration::from_millis(10));
                drop(tx);
                assert_eq!(h.join().unwrap(), Err(Disconnected));
            });
        }

        pop_blocking_drains_items_published_before_death,
        static_ring_drains_after_producer_death: [u8; 4] |tx, rx| {
            tx.push(1).unwrap();
            tx.push(2).unwrap();
            drop(tx);
            assert_eq!(rx.pop_blocking(), Ok(1));
            assert_eq!(rx.pop_blocking_with(&SpinPark), Ok(2));
            assert_eq!(rx.pop_blocking(), Err(Disconnected));
            assert!(rx.is_disconnected());
        }

        producer_observes_consumer_death, static_ring_endpoint_drop_signals_peer:
            [u8; 2] |tx, rx| {
            assert!(!tx.is_disconnected());
            drop(rx);
            assert!(tx.is_disconnected());
            tx.push(1).unwrap(); // pushes after consumer death still succeed
        }
    }

    #[test]
    fn backoff_escalates_without_panicking() {
        let mut b = Backoff::new();
        // Walk through all three regimes: spin (steps 0..=6), yield
        // (7..=10), sleep (capped at 11). Must stay callable forever.
        for _ in 0..16 {
            b.snooze();
        }
        assert_eq!(b.step, Backoff::YIELD_LIMIT + 1, "step caps at sleep");
    }

    #[test]
    fn zero_capacity_errors() {
        let err = channel::<u8>(0).unwrap_err();
        assert_eq!(err, CapacityError);
        assert_eq!(err.to_string(), "SPSC channel capacity must be positive");
    }

    #[test]
    fn static_ring_splits_exactly_once() {
        let ring: StaticRing<u8, 2> = StaticRing::new();
        assert_eq!(ring.capacity(), 2);
        let pair = ring.split();
        assert!(pair.is_some());
        assert!(ring.split().is_none(), "second split refused");
        drop(pair);
        assert!(
            ring.split().is_none(),
            "claim is per ring lifetime, not per endpoint lifetime"
        );
    }
}

//! Unified-memory buffers and TaskObjects (§3.1, §3.4 of the paper).
//!
//! On the paper's UMA SoCs, a `UsmBuffer` is memory visible to both host
//! and device (`cudaMallocManaged` / `VkBuffer`); on the host substrate it
//! is a pre-allocated, recyclable typed buffer that never reallocates
//! during steady-state execution — preserving the zero-copy,
//! no-allocation-on-the-hot-path discipline of the paper's runtime. On an
//! MCU the same discipline is structural: the pool is sized at bring-up
//! and [`TaskObject::recycle`] is the only thing the hot loop ever does.

use core::fmt;

use alloc::vec::Vec;

/// A pre-allocated typed buffer with a fixed capacity and a movable length.
///
/// Growth beyond capacity is an explicit, countable event
/// ([`UsmBuffer::reallocations`]) so tests can assert the hot path stays
/// allocation-free.
///
/// ```
/// use bt_rt::UsmBuffer;
/// let mut buf: UsmBuffer<u32> = UsmBuffer::with_capacity(8);
/// buf.resize(4);
/// buf.as_mut_slice().copy_from_slice(&[1, 2, 3, 4]);
/// assert_eq!(buf.as_slice()[2], 3);
/// assert_eq!(buf.reallocations(), 0);
/// ```
#[derive(Clone)]
pub struct UsmBuffer<T> {
    data: Vec<T>,
    reallocations: u32,
}

impl<T: Default + Clone> UsmBuffer<T> {
    /// Pre-allocates a buffer of `capacity` elements, initially empty.
    pub fn with_capacity(capacity: usize) -> UsmBuffer<T> {
        UsmBuffer {
            data: Vec::with_capacity(capacity),
            reallocations: 0,
        }
    }

    /// Sets the buffer's logical length, zero-filling new elements.
    /// Growing beyond the current capacity is counted as a reallocation.
    pub fn resize(&mut self, len: usize) {
        if len > self.data.capacity() {
            self.reallocations += 1;
        }
        self.data.resize(len, T::default());
    }

    /// Current logical length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is logically empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocated capacity.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// How many times the buffer grew beyond its pre-allocation.
    pub fn reallocations(&self) -> u32 {
        self.reallocations
    }

    /// Read view.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Write view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Clears the logical contents, retaining capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }
}

impl<T> fmt::Debug for UsmBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UsmBuffer")
            .field("len", &self.data.len())
            .field("capacity", &self.data.capacity())
            .field("reallocations", &self.reallocations)
            .finish()
    }
}

/// A TaskObject: the container holding everything one streaming task needs
/// across all pipeline stages (§3.4). A fixed pool of these circulates
/// through the chunks and is recycled back to the head.
#[derive(Debug)]
pub struct TaskObject<P> {
    /// Which streaming input this object currently carries.
    pub seq: u64,
    /// How many times the object has been recycled.
    pub generation: u32,
    /// Timestamp of pipeline entry (set by the head dispatcher). Host-only:
    /// off-std substrates measure entry with their own platform timer.
    #[cfg(feature = "std")]
    pub entered: Option<std::time::Instant>,
    /// Tombstone set by the resilient executor when every retry of a stage
    /// failed: the object keeps flowing (so the pool never shrinks) but
    /// downstream chunks skip execution and the tail counts it as dropped
    /// instead of completed. Cleared on [`recycle`](TaskObject::recycle).
    pub dropped: bool,
    /// The application-specific buffers (persistent + scratchpad).
    pub payload: P,
}

impl<P> TaskObject<P> {
    /// Wraps a payload as a fresh TaskObject.
    pub fn new(payload: P) -> TaskObject<P> {
        TaskObject {
            seq: 0,
            generation: 0,
            #[cfg(feature = "std")]
            entered: None,
            dropped: false,
            payload,
        }
    }

    /// Prepares the object for a new task: bumps the generation, assigns
    /// the sequence number, stamps entry time (host only), clears the
    /// tombstone.
    pub fn recycle(&mut self, seq: u64) {
        self.seq = seq;
        self.generation += 1;
        #[cfg(feature = "std")]
        {
            self.entered = Some(std::time::Instant::now());
        }
        self.dropped = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_realloc_within_capacity() {
        let mut buf: UsmBuffer<f32> = UsmBuffer::with_capacity(100);
        for len in [10, 50, 100, 30, 100] {
            buf.resize(len);
        }
        assert_eq!(buf.reallocations(), 0);
        assert_eq!(buf.len(), 100);
    }

    #[test]
    fn growth_is_counted() {
        let mut buf: UsmBuffer<u8> = UsmBuffer::with_capacity(4);
        buf.resize(8);
        assert_eq!(buf.reallocations(), 1);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut buf: UsmBuffer<u32> = UsmBuffer::with_capacity(16);
        buf.resize(16);
        buf.clear();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 16);
    }

    #[test]
    fn task_object_recycling() {
        let mut obj = TaskObject::new(alloc::vec![0u8; 4]);
        assert_eq!(obj.generation, 0);
        obj.recycle(7);
        assert_eq!(obj.seq, 7);
        assert_eq!(obj.generation, 1);
        #[cfg(feature = "std")]
        assert!(obj.entered.is_some());
        obj.recycle(8);
        assert_eq!(obj.generation, 2);
    }
}

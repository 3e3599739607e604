//! The park seam between the substrate and its platform.
//!
//! The blocking pop needs exactly one service from the world: a way to
//! stand down when a busy-wait has gone on too long (yield, then sleep).
//! On the host that is `std::thread`; on an MCU it is `wfi`/`wfe` or a
//! scheduler hook. [`Park`] names that seam,
//! [`Backoff::snooze_with`](crate::spsc::Backoff::snooze_with) and
//! [`Consumer::pop_blocking_with`](crate::spsc::Consumer::pop_blocking_with)
//! accept any implementation, and the `std` feature supplies [`StdPark`],
//! which reproduces the pre-extraction host behavior exactly.

use core::time::Duration;

/// How a starved busy-wait loop stands down.
///
/// [`crate::spsc::Backoff`] escalates spin → yield → sleep; the spin stage
/// is pure `core::hint::spin_loop`, and this trait supplies the other two.
pub trait Park {
    /// Gives the execution context up to a peer (e.g.
    /// `std::thread::yield_now`, or an RTOS yield).
    fn yield_now(&self);

    /// Blocks for approximately `d` (e.g. `std::thread::sleep`, or a
    /// timer-backed wait-for-interrupt).
    fn sleep(&self, d: Duration);
}

/// A [`Park`] that never leaves the CPU: both stages degrade to bounded
/// `spin_loop` bursts.
///
/// The fallback for bare-metal contexts with no scheduler — a
/// single-issue MCU core waiting on a DMA-fed ring has nothing to yield
/// *to*. Prefer a platform park that can `wfe`/`wfi` when one exists;
/// spinning burns the power budget the MCU deployment is there to save.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpinPark;

impl SpinPark {
    /// How many `spin_loop` hints one [`Park::sleep`] call issues.
    const SLEEP_SPINS: u32 = 1 << 10;
}

impl Park for SpinPark {
    fn yield_now(&self) {
        core::hint::spin_loop();
    }

    fn sleep(&self, _d: Duration) {
        // No clock to honor `d` with; a fixed burst keeps the caller's
        // escalation meaningful (sleep stays coarser than yield).
        for _ in 0..Self::SLEEP_SPINS {
            core::hint::spin_loop();
        }
    }
}

/// The host park: `std::thread::yield_now` / `std::thread::sleep` —
/// exactly what the pre-extraction `Backoff` called directly.
#[cfg(feature = "std")]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StdPark;

#[cfg(feature = "std")]
impl Park for StdPark {
    fn yield_now(&self) {
        std::thread::yield_now();
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

#[cfg(all(test, feature = "std"))]
mod tests {
    use super::*;

    #[test]
    fn spin_park_returns_promptly() {
        let park = SpinPark;
        park.yield_now();
        park.sleep(Duration::from_secs(3600)); // must not actually sleep
    }
}

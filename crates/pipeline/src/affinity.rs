//! Best-effort thread pinning — the host counterpart of the paper's
//! `sched_setaffinity()` calls (§3.4).
//!
//! A dispatcher thread pins itself to its chunk's core set; worker threads
//! it spawns inherit the mask on Linux, which reproduces the
//! OpenMP-pool-bound-to-cluster behaviour. On non-Linux hosts (or when the
//! OS refuses, as on the OnePlus 11's little cores) pinning degrades to a
//! no-op and the runtime proceeds unpinned.

/// Attempts to pin the calling thread to the given core IDs. Returns
/// whether the OS accepted the mask.
///
/// An empty `cores` slice is a no-op returning `false`.
#[cfg(target_os = "linux")]
pub(crate) fn pin_current_thread(cores: &[usize]) -> bool {
    if cores.is_empty() {
        return false;
    }
    // SAFETY: cpu_set_t is plain-old-data; zeroed is a valid empty set.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        for &c in cores {
            if c < libc::CPU_SETSIZE as usize {
                libc::CPU_SET(c, &mut set);
            }
        }
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
}

/// Non-Linux fallback: pinning is unavailable; always returns `false`.
#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_current_thread(_cores: &[usize]) -> bool {
    false
}

/// The core IDs the calling thread is currently allowed to run on
/// (Linux only; `None` elsewhere or on error): how the tests see a pin.
#[cfg(all(test, target_os = "linux"))]
fn current_affinity() -> Option<Vec<usize>> {
    // SAFETY: as above.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        if libc::sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set) != 0 {
            return None;
        }
        Some(
            (0..libc::CPU_SETSIZE as usize)
                .filter(|&c| libc::CPU_ISSET(c, &set))
                .collect(),
        )
    }
}

/// Non-Linux fallback.
#[cfg(all(test, not(target_os = "linux")))]
fn current_affinity() -> Option<Vec<usize>> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_mask_is_noop() {
        assert!(!pin_current_thread(&[]));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pin_and_restore() {
        let original = current_affinity().expect("linux exposes affinity");
        assert!(!original.is_empty());
        // Pin to the first allowed core, verify, restore.
        let first = original[0];
        let handle = std::thread::spawn(move || {
            if pin_current_thread(&[first]) {
                let now = current_affinity().expect("affinity readable");
                assert_eq!(now, vec![first]);
            }
        });
        handle.join().expect("pin thread exits cleanly");
        // The spawning thread's mask is untouched.
        assert_eq!(current_affinity().unwrap(), original);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn children_inherit_mask() {
        let original = current_affinity().expect("linux");
        let first = original[0];
        std::thread::spawn(move || {
            if !pin_current_thread(&[first]) {
                return; // sandboxed environments may refuse
            }
            let child = std::thread::spawn(|| current_affinity().unwrap());
            assert_eq!(child.join().unwrap(), vec![first]);
        })
        .join()
        .unwrap();
    }
}

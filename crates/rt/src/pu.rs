//! The processing-unit class vocabulary every schedule speaks.

use core::fmt;

/// The class of a processing unit on a heterogeneous SoC.
///
/// Mirrors the PU taxonomy of the paper: big.LITTLE CPU clusters (with an
/// optional medium tier, as on the Google Pixel 7a) plus an integrated GPU.
/// A *class* groups identical cores — scheduling in BetterTogether assigns
/// pipeline stages to classes, not to individual cores. On MCU-class
/// devices the same four slots map onto the parts such chips actually
/// have: the fast core (Cortex-M7) in the big slot, the efficiency core
/// (Cortex-M4) in the little slot, and the DMA engine in the async
/// accelerator slot the GPU occupies on phones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[cfg_attr(feature = "std", derive(serde::Serialize, serde::Deserialize))]
pub enum PuClass {
    /// High-performance out-of-order CPU cores (e.g. Cortex-X1/X3, A78AE).
    BigCpu,
    /// Mid-tier CPU cores (e.g. Cortex-A78, A715/A710).
    MediumCpu,
    /// Energy-efficient in-order CPU cores (e.g. Cortex-A55, A510).
    LittleCpu,
    /// Integrated GPU sharing DRAM with the CPU clusters (UMA) — or, on
    /// MCU-class devices, the asynchronous engine class (DMA).
    Gpu,
}

impl PuClass {
    /// Number of distinct PU classes.
    pub const COUNT: usize = 4;

    /// All PU classes, in canonical order (big, medium, little, GPU).
    pub const ALL: [PuClass; PuClass::COUNT] = [
        PuClass::BigCpu,
        PuClass::MediumCpu,
        PuClass::LittleCpu,
        PuClass::Gpu,
    ];

    /// Stable index of this class in `0..PuClass::COUNT`.
    ///
    /// ```
    /// use bt_rt::PuClass;
    /// assert_eq!(PuClass::BigCpu.index(), 0);
    /// assert_eq!(PuClass::Gpu.index(), 3);
    /// ```
    pub const fn index(self) -> usize {
        match self {
            PuClass::BigCpu => 0,
            PuClass::MediumCpu => 1,
            PuClass::LittleCpu => 2,
            PuClass::Gpu => 3,
        }
    }

    /// Whether this class is a CPU cluster (as opposed to a GPU).
    pub const fn is_cpu(self) -> bool {
        !matches!(self, PuClass::Gpu)
    }

    /// Short label used in tables and figures ("big", "med", "little", "gpu").
    pub const fn label(self) -> &'static str {
        match self {
            PuClass::BigCpu => "big",
            PuClass::MediumCpu => "med",
            PuClass::LittleCpu => "little",
            PuClass::Gpu => "gpu",
        }
    }
}

impl fmt::Display for PuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::string::ToString;

    #[test]
    fn class_index_roundtrip() {
        // `PerClass` indexes by `index()`: it must walk `ALL` in order.
        for (i, class) in PuClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn class_display_labels() {
        assert_eq!(PuClass::BigCpu.to_string(), "big");
        assert_eq!(PuClass::Gpu.to_string(), "gpu");
    }

    #[test]
    fn is_cpu() {
        assert!(PuClass::BigCpu.is_cpu());
        assert!(PuClass::LittleCpu.is_cpu());
        assert!(!PuClass::Gpu.is_cpu());
    }
}

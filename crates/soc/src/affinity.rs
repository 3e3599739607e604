//! Deriving a device's [`AffinityMap`] from its cluster specs.
//!
//! The map type itself lives in the runtime substrate (`bt-rt`); what is
//! device-model-specific — and therefore stays here — is the convention for
//! numbering cores from a [`PerClass`] of [`PuSpec`]s.

use bt_rt::AffinityMap;

use crate::{PerClass, PuClass, PuSpec};

/// Derives a conventional map from cluster specs: cores numbered in
/// little → medium → big order (the usual Android convention), with the
/// first `pinnable_cores` of each cluster exposed for pinning.
pub(crate) fn derive_affinity(pus: &PerClass<PuSpec>) -> AffinityMap {
    let mut map = AffinityMap::new();
    let mut next = 0usize;
    // Android numbers efficiency cores first.
    for class in [PuClass::LittleCpu, PuClass::MediumCpu, PuClass::BigCpu] {
        if let Some(spec) = pus.get(class) {
            let cores: Vec<usize> = (next..next + spec.cores() as usize).collect();
            let pinnable = cores[..spec.pinnable_cores() as usize].to_vec();
            next += spec.cores() as usize;
            map = map.with_cluster(class, cores, pinnable);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use crate::devices;
    use crate::PuClass;

    #[test]
    fn derive_numbers_little_first() {
        let soc = devices::pixel_7a();
        let map = soc.affinity();
        assert_eq!(map.cores(PuClass::LittleCpu), &[0, 1, 2, 3]);
        assert_eq!(map.cores(PuClass::MediumCpu), &[4, 5]);
        assert_eq!(map.cores(PuClass::BigCpu), &[6, 7]);
        assert_eq!(map.total_cores(), 8);
        assert_eq!(map.total_pinnable(), 8);
    }

    #[test]
    fn oneplus_exposes_five_of_eight() {
        let soc = devices::oneplus_11();
        let map = soc.affinity();
        assert_eq!(map.total_cores(), 8);
        assert_eq!(map.total_pinnable(), 5);
        assert!(map.pinnable(PuClass::LittleCpu).is_empty());
    }

    #[test]
    fn gpu_has_no_cores() {
        let soc = devices::pixel_7a();
        assert!(soc.affinity().cores(PuClass::Gpu).is_empty());
    }
}

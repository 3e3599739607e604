//! The device-fleet registry.
//!
//! Devices are data: one `SocSpec` JSON per device under `devices/`,
//! enumerated by `devices/registry.json`. The registry interns each spec
//! with its content hash at registration time, so a request-path lookup
//! is a binary search over a sorted name table — no parsing, hashing, or
//! allocation.
//!
//! [`validate_dir`] is the CI schema gate: every record must name a
//! parseable `SocSpec` file, every JSON file in the directory must be
//! referenced exactly once, and names must be unique (including against
//! any builtin fleet the service registers).

use std::collections::HashMap;
use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use bt_soc::{devices, SocSpec};

use crate::ServeError;

/// One interned device.
#[derive(Debug, Clone)]
pub struct DeviceEntry {
    /// Registered (request-facing) name, e.g. `"pixel_7a"`.
    pub name: String,
    /// The full device model.
    pub spec: SocSpec,
    /// `spec.content_hash()`, precomputed at registration.
    pub hash: u64,
}

/// The on-disk `devices/registry.json` format.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RegistryFile {
    /// Every fleet device, in display order.
    pub devices: Vec<RegistryRecord>,
}

/// One record of [`RegistryFile`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RegistryRecord {
    /// Request-facing device name (must be unique).
    pub name: String,
    /// Spec file, relative to the registry's directory.
    pub file: String,
    /// Human-readable description.
    pub description: String,
}

/// Outcome of validating a registry directory.
#[derive(Debug, Clone, Default)]
pub struct RegistryReport {
    /// `(name, file, content hash)` for every valid record.
    pub checked: Vec<(String, String, u64)>,
    /// Every violation found (empty means the directory is valid).
    pub errors: Vec<String>,
}

impl RegistryReport {
    /// Whether validation passed.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Names sorted for binary search, each with its entry index. A request
/// name is compared, never hashed, so no client string meets an unkeyed
/// hash; a handful of names costs a few short comparisons.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameTable(Vec<(String, u32)>);

impl NameTable {
    /// The index registered under `name`, if any.
    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        let at = self
            .0
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()?;
        Some(self.0[at].1)
    }

    /// Assigns each of `names`, in order, its index: the one it already
    /// has (registered before, or earlier in this batch), or else the
    /// next one from `next` up. New names join the table in one sort at
    /// the end, so a batch of n names costs O(n log n) whatever their
    /// order.
    pub(crate) fn intern<'a>(
        &mut self,
        names: impl IntoIterator<Item = &'a str>,
        mut next: u32,
    ) -> Vec<u32> {
        let mut fresh: HashMap<&str, u32> = HashMap::new();
        let indices = names
            .into_iter()
            .map(|name| {
                self.get(name).unwrap_or_else(|| {
                    *fresh.entry(name).or_insert_with(|| {
                        let idx = next;
                        next += 1;
                        idx
                    })
                })
            })
            .collect();
        self.0
            .extend(fresh.into_iter().map(|(name, i)| (name.to_string(), i)));
        self.0.sort_unstable();
        indices
    }
}

/// An interned, name-addressable device fleet.
#[derive(Debug, Clone, Default)]
pub struct DeviceRegistry {
    entries: Vec<DeviceEntry>,
    by_name: NameTable,
}

impl DeviceRegistry {
    /// An empty registry.
    pub(crate) fn new() -> DeviceRegistry {
        DeviceRegistry::default()
    }

    /// The four paper evaluation platforms under their canonical short
    /// names (`pixel_7a`, `oneplus_11`, `jetson_orin_nano`,
    /// `jetson_orin_nano_lp`).
    pub(crate) fn builtin() -> DeviceRegistry {
        let mut r = DeviceRegistry::new();
        r.register_all(vec![
            ("pixel_7a".to_string(), devices::pixel_7a()),
            ("oneplus_11".to_string(), devices::oneplus_11()),
            ("jetson_orin_nano".to_string(), devices::jetson_orin_nano()),
            (
                "jetson_orin_nano_lp".to_string(),
                devices::jetson_orin_nano_lp(),
            ),
        ]);
        r
    }

    /// Interns every `(name, spec)` in order. A name registered before,
    /// or earlier in `records`, is replaced in place and keeps its index;
    /// a new name takes the next index. Returns, ascending, the indices
    /// registered before this call whose content hash it changed.
    pub(crate) fn register_all(&mut self, records: Vec<(String, SocSpec)>) -> Vec<u32> {
        let before: Vec<u64> = self.entries.iter().map(|e| e.hash).collect();
        let next = u32::try_from(self.entries.len()).expect("fleet fits in u32");
        let indices = self
            .by_name
            .intern(records.iter().map(|(name, _)| name.as_str()), next);
        for ((name, spec), idx) in records.into_iter().zip(indices) {
            let hash = spec.content_hash();
            let entry = DeviceEntry { name, spec, hash };
            match self.entries.get_mut(idx as usize) {
                Some(slot) => *slot = entry,
                None => self.entries.push(entry),
            }
        }
        (0..before.len() as u32)
            .filter(|&i| self.entries[i as usize].hash != before[i as usize])
            .collect()
    }

    /// Loads every record of `dir/registry.json` into the registry; no
    /// record is registered unless all of them load. Returns the indices
    /// of already registered devices whose spec changed.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Registry`] on any read/parse failure.
    pub(crate) fn load_dir(&mut self, dir: &Path) -> Result<Vec<u32>, ServeError> {
        let file = load_registry_file(dir)?;
        let records = file
            .devices
            .into_iter()
            .map(|record| Ok((record.name, load_spec(dir, &record.file)?)))
            .collect::<Result<Vec<_>, ServeError>>()?;
        Ok(self.register_all(records))
    }

    /// Resolves a device by name: a binary search, allocation-free.
    pub fn get(&self, name: &str) -> Option<(u32, &DeviceEntry)> {
        let idx = self.by_name.get(name)?;
        Some((idx, &self.entries[idx as usize]))
    }

    /// The entry at `idx`.
    pub(crate) fn entry(&self, idx: u32) -> &DeviceEntry {
        &self.entries[idx as usize]
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[DeviceEntry] {
        &self.entries
    }
}

fn load_registry_file(dir: &Path) -> Result<RegistryFile, ServeError> {
    let path = dir.join("registry.json");
    let raw = fs::read_to_string(&path)
        .map_err(|e| ServeError::Registry(format!("read {}: {e}", path.display())))?;
    serde_json::from_str(&raw)
        .map_err(|e| ServeError::Registry(format!("parse {}: {e}", path.display())))
}

fn load_spec(dir: &Path, file: &str) -> Result<SocSpec, ServeError> {
    let path = dir.join(file);
    let raw = fs::read_to_string(&path)
        .map_err(|e| ServeError::Registry(format!("read {}: {e}", path.display())))?;
    serde_json::from_str(&raw)
        .map_err(|e| ServeError::Registry(format!("parse {} as SocSpec: {e}", path.display())))
}

/// Validates a registry directory for CI: `registry.json` parses, every
/// record's file parses as a schedulable `SocSpec`, names and files are
/// unique, and every `*.json` spec file in the directory is referenced.
///
/// Violations are *collected*, not short-circuited, so one CI run reports
/// every schema drift at once.
///
/// # Errors
///
/// Returns [`ServeError::Registry`] only if the directory itself cannot
/// be enumerated; schema violations land in [`RegistryReport::errors`].
pub fn validate_dir(dir: &Path) -> Result<RegistryReport, ServeError> {
    let mut report = RegistryReport::default();
    let file = match load_registry_file(dir) {
        Ok(f) => f,
        Err(e) => {
            report.errors.push(e.to_string());
            return Ok(report);
        }
    };

    let mut seen_names: HashMap<&str, usize> = HashMap::new();
    let mut seen_files: HashMap<&str, usize> = HashMap::new();
    for (i, record) in file.devices.iter().enumerate() {
        if let Some(prev) = seen_names.insert(&record.name, i) {
            report.errors.push(format!(
                "duplicate device name {:?} (records {prev} and {i})",
                record.name
            ));
        }
        if let Some(prev) = seen_files.insert(&record.file, i) {
            report.errors.push(format!(
                "file {:?} referenced by records {prev} and {i}",
                record.file
            ));
        }
        match load_spec(dir, &record.file) {
            Ok(spec) => {
                if spec.schedulable_classes().is_empty() {
                    report.errors.push(format!(
                        "{}: no schedulable PU class — nothing can host a chunk",
                        record.file
                    ));
                } else {
                    report.checked.push((
                        record.name.clone(),
                        record.file.clone(),
                        spec.content_hash(),
                    ));
                }
            }
            Err(e) => report.errors.push(e.to_string()),
        }
    }

    let listed = fs::read_dir(dir)
        .map_err(|e| ServeError::Registry(format!("read dir {}: {e}", dir.display())))?;
    for entry in listed.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if !name.ends_with(".json") || name == "registry.json" {
            continue;
        }
        if !seen_files.contains_key(name.as_ref()) {
            report.errors.push(format!(
                "{name} exists in {} but is not referenced by registry.json",
                dir.display()
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../devices")
    }

    #[test]
    fn builtin_fleet_registers_four_devices() {
        let r = DeviceRegistry::builtin();
        assert_eq!(r.entries().len(), 4);
        let (idx, entry) = r.get("pixel_7a").expect("registered");
        assert_eq!(entry.hash, devices::pixel_7a().content_hash());
        assert_eq!(r.entry(idx).name, "pixel_7a");
        assert!(r.get("nonexistent").is_none());
    }

    #[test]
    fn re_registering_a_name_replaces_it_in_place() {
        let mut r = DeviceRegistry::builtin();
        let (idx, _) = r.get("oneplus_11").expect("builtin");
        let changed = r.register_all(vec![
            ("oneplus_11".into(), devices::pixel_7a()),
            ("twin".into(), devices::oneplus_11()),
            ("pixel_7a".into(), devices::pixel_7a()),
            ("twin".into(), devices::jetson_orin_nano()),
        ]);
        // Only a replacement that changes the content hash is reported;
        // re-registering pixel_7a with its own spec is not.
        assert_eq!(changed, vec![idx]);
        let (again, entry) = r.get("oneplus_11").expect("still registered");
        assert_eq!(again, idx);
        assert_eq!(entry.hash, devices::pixel_7a().content_hash());
        // A name repeated within one batch takes one new index, and the
        // last record wins.
        assert_eq!(r.entries().len(), 5);
        let (twin, entry) = r.get("twin").expect("new name");
        assert_eq!(twin, 4);
        assert_eq!(entry.hash, devices::jetson_orin_nano().content_hash());
        for (i, e) in r.entries().iter().enumerate() {
            assert_eq!(r.get(&e.name).map(|(j, _)| j), Some(i as u32));
        }
    }

    #[test]
    fn near_miss_names_do_not_resolve() {
        let r = DeviceRegistry::builtin();
        for name in [
            "",
            "pixel_7",
            "pixel_7a ",
            " pixel_7a",
            "PIXEL_7A",
            "pixel_7aa",
        ] {
            assert!(r.get(name).is_none(), "{name:?} resolved");
        }
    }

    #[test]
    fn a_large_unsorted_batch_interns_in_one_sort() {
        let mut table = NameTable::default();
        // Descending order, each name twice: the worst case for
        // insertion into a sorted vector.
        let names: Vec<String> = (0..5_000).rev().map(|i| format!("dev{i:05}")).collect();
        let twice = names.iter().chain(&names).map(String::as_str);
        let indices = table.intern(twice, 3);
        assert_eq!(indices.len(), 10_000);
        assert_eq!(indices[..5_000], indices[5_000..]);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(indices[i], 3 + i as u32);
            assert_eq!(table.get(name), Some(3 + i as u32));
        }
        // A later batch reuses every known index.
        assert_eq!(
            table.intern(["dev00000", "dev99999"], 5_003),
            [5_002, 5_003]
        );
    }

    #[test]
    fn committed_devices_dir_validates_cleanly() {
        let report = validate_dir(&devices_dir()).expect("dir readable");
        assert!(report.is_ok(), "violations: {:?}", report.errors);
        assert!(
            report.checked.len() >= 3,
            "expected at least rk3588 + two fleet devices, got {:?}",
            report.checked
        );
    }

    #[test]
    fn committed_devices_load_into_a_registry() {
        let mut r = DeviceRegistry::builtin();
        r.load_dir(&devices_dir()).expect("fleet loads");
        assert!(
            r.entries().len() >= 7,
            "builtin 4 + disk fleet, got {}",
            r.entries().len()
        );
        assert!(r.get("rk3588").is_some());
    }

    #[test]
    fn unreferenced_files_and_bad_records_are_reported() {
        let dir = std::env::temp_dir().join(format!("bt-serve-registry-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("registry.json"),
            r#"{"devices":[{"name":"ghost","file":"ghost.json","description":"missing"}]}"#,
        )
        .unwrap();
        fs::write(dir.join("orphan.json"), "{}").unwrap();
        let report = validate_dir(&dir).unwrap();
        assert!(!report.is_ok());
        assert!(report.errors.iter().any(|e| e.contains("ghost.json")));
        assert!(report.errors.iter().any(|e| e.contains("orphan.json")));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_load_registers_nothing() {
        let dir = std::env::temp_dir().join(format!("bt-serve-partial-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::copy(devices_dir().join("rk3588.json"), dir.join("rk3588.json")).unwrap();
        fs::write(
            dir.join("registry.json"),
            r#"{"devices":[{"name":"pixel_7a","file":"rk3588.json","description":"ok"},
                           {"name":"ghost","file":"ghost.json","description":"missing"}]}"#,
        )
        .unwrap();
        let mut r = DeviceRegistry::builtin();
        let loaded = r.load_dir(&dir);
        fs::remove_dir_all(&dir).ok();
        assert!(matches!(loaded, Err(ServeError::Registry(_))));
        assert_eq!(r.entries().len(), 4);
        let (_, entry) = r.get("pixel_7a").unwrap();
        assert_eq!(entry.hash, devices::pixel_7a().content_hash());
    }

    #[test]
    fn a_deeply_nested_device_file_is_a_registry_error_not_a_crash() {
        let dir = std::env::temp_dir().join(format!("bt-serve-deep-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("registry.json"),
            r#"{"devices":[{"name":"deep","file":"deep.json","description":"hostile"}]}"#,
        )
        .unwrap();
        fs::write(dir.join("deep.json"), "[".repeat(1_000_000)).unwrap();
        let loaded = DeviceRegistry::new().load_dir(&dir);
        fs::remove_dir_all(&dir).ok();
        match loaded {
            Err(ServeError::Registry(msg)) => assert!(msg.contains("recursion limit"), "{msg}"),
            other => panic!("expected a registry error, got {other:?}"),
        }
    }
}

//! The device-fleet registry.
//!
//! Devices are data: one `SocSpec` JSON per device under `devices/`,
//! enumerated by `devices/registry.json`. The registry interns each spec
//! with its content hash at registration time, so request-path lookups
//! are a borrowed-string map probe — no parsing, hashing, or allocation.
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

/// An interned, name-addressable device fleet.
#[derive(Debug, Clone, Default)]
pub struct DeviceRegistry {
    entries: Vec<DeviceEntry>,
    by_name: HashMap<String, u32>,
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
        r.register("pixel_7a", devices::pixel_7a());
        r.register("oneplus_11", devices::oneplus_11());
        r.register("jetson_orin_nano", devices::jetson_orin_nano());
        r.register("jetson_orin_nano_lp", devices::jetson_orin_nano_lp());
        r
    }

    /// Interns `spec` under `name`, replacing any previous registration
    /// of that name. Returns the entry index.
    pub(crate) fn register(&mut self, name: impl Into<String>, spec: SocSpec) -> u32 {
        let name = name.into();
        let hash = spec.content_hash();
        if let Some(&idx) = self.by_name.get(&name) {
            self.entries[idx as usize] = DeviceEntry { name, spec, hash };
            return idx;
        }
        let idx = u32::try_from(self.entries.len()).expect("fleet fits in u32");
        self.by_name.insert(name.clone(), idx);
        self.entries.push(DeviceEntry { name, spec, hash });
        idx
    }

    /// Loads every record of `dir/registry.json` into the registry.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Registry`] on any read/parse failure.
    pub(crate) fn load_dir(&mut self, dir: &Path) -> Result<(), ServeError> {
        let file = load_registry_file(dir)?;
        for record in &file.devices {
            let spec = load_spec(dir, &record.file)?;
            self.register(record.name.clone(), spec);
        }
        Ok(())
    }

    /// Resolves a device by name. Allocation-free for `String`-keyed maps
    /// probed with `&str`.
    pub fn get(&self, name: &str) -> Option<(u32, &DeviceEntry)> {
        let idx = *self.by_name.get(name)?;
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

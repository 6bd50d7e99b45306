//! Machine descriptions, loaded the way a user loads them: from JSON
//! files through `MachineDesc::from_json`.

use presage_machine::MachineDesc;
use std::path::PathBuf;
use std::time::Instant;

/// The four shipped machines plus wide8 extended with a `cache` section,
/// relative to the repository root.
const MACHINE_FILES: [&str; 5] = [
    "machines/power-like.json",
    "machines/risc1.json",
    "machines/wide4.json",
    "machines/wide8.json",
    "e2ebench/machines/wide8c.json",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Reads and parses every machine file; also returns the mean
/// `from_json` time in microseconds (file reads excluded).
pub fn load_machines_timed() -> Result<(Vec<MachineDesc>, f64), String> {
    let root = repo_root();
    let mut machines = Vec::new();
    let mut parse_ns = 0u128;
    for file in MACHINE_FILES {
        let path = root.join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let t = Instant::now();
        let m = MachineDesc::from_json(&text).map_err(|e| format!("{file}: {e}"))?;
        parse_ns += t.elapsed().as_nanos();
        machines.push(m);
    }
    let mean_us = parse_ns as f64 / 1e3 / machines.len() as f64;
    Ok((machines, mean_us))
}

#[cfg(test)]
pub fn load_machines() -> Result<Vec<MachineDesc>, String> {
    load_machines_timed().map(|(m, _)| m)
}

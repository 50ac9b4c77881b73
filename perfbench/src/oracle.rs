//! Output oracle: the pinned FNV-1a digests of the 84 files
//! (42 figures × CSV/SVG) that a scheduler-path regeneration emits.
//!
//! The same bytes come out of a cold run, a warm run, `--jobs 1`,
//! `--jobs 2` and `--no-cache`. The legacy path with no scheduler
//! differs in 32 files, so the committed `results/` are not the
//! reference. Re-pin with `--digest <dir>` over a fresh
//! `all_figures --jobs 1` output only when a change means to alter
//! figure bytes.

use std::path::Path;

use syncperf_sched::hash::{fnv1a, fnv1a_continue};

use crate::pins::PINNED;

/// One emitted file: name and bytes.
pub type OutputFile = (String, Vec<u8>);

/// Reads every `.csv`/`.svg` file directly under `dir`, sorted by name.
pub fn read_outputs(dir: &Path) -> std::io::Result<Vec<OutputFile>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") || name.ends_with(".svg") {
            files.push((name, std::fs::read(entry.path())?));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// Digest of a whole output set: FNV-1a over `name NUL fnv(bytes)`
/// for each file in name order.
#[must_use]
pub fn set_digest(files: &[OutputFile]) -> u64 {
    files.iter().fold(fnv1a(b""), |h, (name, bytes)| {
        let h = fnv1a_continue(h, name.as_bytes());
        let h = fnv1a_continue(h, &[0]);
        fnv1a_continue(h, &fnv1a(bytes).to_le_bytes())
    })
}

/// Checks `files` against `pinned` (name, digest, length). With
/// `whole`, the names must be exactly the pinned set; otherwise every
/// file must be pinned and match, and `files` may be a subset.
pub fn check(files: &[OutputFile], pinned: &[(&str, u64, u64)], whole: bool) -> Result<(), String> {
    if whole && files.len() != pinned.len() {
        return Err(format!(
            "{} files emitted, {} pinned",
            files.len(),
            pinned.len()
        ));
    }
    for (name, bytes) in files {
        let Some(&(_, digest, len)) = pinned.iter().find(|p| p.0 == name) else {
            return Err(format!("{name} is not a pinned output"));
        };
        if bytes.len() as u64 != len || fnv1a(bytes) != digest {
            return Err(format!("{name} differs from its pinned bytes"));
        }
    }
    Ok(())
}

/// Checks a regeneration's outputs against the pinned table.
pub fn check_pinned(files: &[OutputFile], whole: bool) -> Result<(), String> {
    check(files, PINNED, whole)
}

/// Renders `files` as the source of a pin table.
#[must_use]
pub fn render_pins(files: &[OutputFile]) -> String {
    let mut out = format!(
        "// {} files, set digest {:016x}\npub const PINNED: &[(&str, u64, u64)] = &[\n",
        files.len(),
        set_digest(files)
    );
    for (name, bytes) in files {
        out.push_str(&format!(
            "    (\"{name}\", 0x{:016x}, {}),\n",
            fnv1a(bytes),
            bytes.len()
        ));
    }
    out.push_str("];\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<OutputFile> {
        vec![
            ("fig01.csv".into(), b"threads,a\n1,2\n".to_vec()),
            ("fig01.svg".into(), b"<svg></svg>\n".to_vec()),
        ]
    }

    fn pins(files: &[OutputFile]) -> Vec<(&str, u64, u64)> {
        files
            .iter()
            .map(|(n, b)| (n.as_str(), fnv1a(b), b.len() as u64))
            .collect()
    }

    #[test]
    fn flipped_byte_fails_the_digest_check() {
        let good = files();
        let pinned = pins(&good);
        assert!(check(&good, &pinned, true).is_ok());
        let mut bad = good.clone();
        bad[1].1[3] ^= 0x01;
        assert!(check(&bad, &pinned, true).is_err());
        assert!(check(&bad, &pinned, false).is_err());
        assert_ne!(set_digest(&good), set_digest(&bad));
    }

    #[test]
    fn missing_or_extra_files_fail_a_whole_check() {
        let good = files();
        let pinned = pins(&good);
        assert!(check(&good[..1], &pinned, true).is_err());
        assert!(
            check(&good[..1], &pinned, false).is_ok(),
            "a subset may match"
        );
        let mut extra = good.clone();
        extra.push(("fig99.csv".into(), Vec::new()));
        assert!(check(&extra, &pinned, false).is_err());
    }

    #[test]
    fn pinned_table_is_sorted_and_complete() {
        assert_eq!(PINNED.len(), 84);
        assert!(PINNED.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

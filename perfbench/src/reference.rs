//! The machine-speed reference the end-to-end times are divided by.
//!
//! On a shared 2-core virtual machine the op time of identical runs
//! drifts with the neighbours' load: the same code measured 85 to
//! 152 ms per `regen_nocache` op within one hour, and CPU time drifted
//! with it. A fixed pass timed among the ops drifts the same way, so
//! the ratio of the two repeats far better than either. The pass uses
//! none of the program's code, so no change to the program can move
//! it.
//!
//! The pass has two halves of about 4 ms each, because the machine's
//! speed drifts in two ways that do not move together: a CPU half
//! (dependent loads and integer mixing over a 512 KiB table) and a
//! system-call half (reading a thousand 800-byte files). Within one
//! `regen_warm` run, whose ops read 3,204 cache entries, the block
//! medians of the op time moved from 55 to 85 ms while the CPU half
//! stayed within 12% and the file half moved with the ops; divided by
//! the sum of both halves, the blocks of every workload varied less
//! than divided by either half alone.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Files the system-call half reads.
const FILES: usize = 1000;

/// Bytes per file, about the size of one cache entry.
const FILE_BYTES: usize = 800;

/// The reference pass and the files it reads.
#[derive(Debug)]
pub struct Reference {
    files: Vec<PathBuf>,
}

impl Reference {
    /// Writes the files of the system-call half under `dir`.
    pub fn new(dir: &Path) -> io::Result<Reference> {
        std::fs::create_dir_all(dir)?;
        let files: Vec<PathBuf> = (0..FILES).map(|k| dir.join(format!("{k:04}"))).collect();
        for (k, path) in files.iter().enumerate() {
            std::fs::write(path, vec![k as u8; FILE_BYTES])?;
        }
        Ok(Reference { files })
    }

    /// Times one pass, in ms.
    pub fn time_ms(&self) -> io::Result<f64> {
        let start = Instant::now();
        cpu_half();
        let mut bytes = 0;
        for path in &self.files {
            bytes += std::fs::read(path)?.len();
        }
        std::hint::black_box(bytes);
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }
}

/// Dependent loads over a 512 KiB table and integer mixing.
fn cpu_half() {
    const WORDS: usize = 1 << 16;
    let mut table = vec![0u64; WORDS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for slot in &mut table {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    let mut i = 0usize;
    let mut acc = 0u64;
    for _ in 0..400_000 {
        let v = table[i];
        acc = acc.rotate_left(5) ^ v.wrapping_mul(0x2545_F491_4F6C_DD1D);
        table[i] = v ^ acc;
        i = (v as usize ^ acc as usize) & (WORDS - 1);
    }
    std::hint::black_box(acc);
}

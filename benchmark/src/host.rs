//! What the benchmark needs from the machine it runs on: the `host`
//! block, peak memory, a scratch directory inside the benchmark's own
//! directory, and cold set-up probes in child processes.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};

use serde::Value;

use crate::stats::obj;

/// Scratch space (table caches, traces): `benchmark/.out`, wherever the
/// checkout is. Never the system temp dir — a run writes only inside
/// its checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".out");
    std::fs::create_dir_all(&dir).expect("create benchmark/.out");
    dir
}

/// A fresh, empty directory under [`out_dir`], removed on drop — the
/// cold table cache of one set-up.
pub struct FreshDir(pub PathBuf);

impl FreshDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("tmp-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a fresh table-cache dir");
        Self(dir)
    }
}

impl Drop for FreshDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The `host` block carried by every result.
pub fn host_block() -> Value {
    obj(vec![
        ("arch", Value::Str(std::env::consts::ARCH.into())),
        ("os", Value::Str(std::env::consts::OS.into())),
        ("nproc", Value::U64(nproc() as u64)),
        ("rustc", Value::Str(rustc_version())),
        (
            "montgomery_kernel",
            Value::Str(cryptonn_bigint::lanes::kernel_name().into()),
        ),
    ])
}

/// Repeats a workload's cold set-up in `n` child processes of this
/// binary, one after another, and returns the seconds each reported. A
/// child pays everything a new deployment pays — process-wide lazy
/// initialisation included — which a repeat inside this process would
/// not.
pub fn setup_probes(workload: &str, seed: u64, n: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    &seed.to_string(),
                    "--setup-probe",
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .expect("spawn a set-up probe");
            assert!(
                out.status.success(),
                "set-up probe failed: {:?}",
                out.status
            );
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .expect("a set-up probe prints its seconds")
        })
        .collect()
}

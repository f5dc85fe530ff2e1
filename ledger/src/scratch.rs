//! Where the benchmark writes: everything goes under
//! `<target dir>/ledger/` of the directory it was started in, so a run
//! reads and writes only inside its checkout.

use std::path::PathBuf;
use std::sync::OnceLock;

/// `$CARGO_TARGET_DIR/ledger`, or `target/ledger` when unset.
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("ledger")
}

static SCRATCH: OnceLock<PathBuf> = OnceLock::new();

/// Points the process's temp dir at a private directory under
/// [`out_dir`]: `Network::enable_deep_history` puts its segment and
/// spill files in `std::env::temp_dir()`, and they must stay inside the
/// checkout. Call before building any world.
pub fn use_process_scratch() -> PathBuf {
    SCRATCH
        .get_or_init(|| {
            let dir = out_dir().join(format!("tmp-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
            let dir = dir.canonicalize().unwrap_or(dir);
            std::env::set_var("TMPDIR", &dir);
            dir
        })
        .clone()
}

/// Deletes the scratch directory (segments, spill files) of this run.
pub fn remove_process_scratch() {
    if let Some(dir) = SCRATCH.get() {
        let _ = std::fs::remove_dir_all(dir);
    }
}

//! Keeps the idle cores awake while a pass measures.
//!
//! The program spawns scoped threads inside an exchange (`par_join`
//! around the two envelope recoveries, the quorum fan-out). On a
//! virtualised host an idle vCPU halts, and waking it costs anything
//! from 30 µs to several hundred depending on what else the host is
//! doing — measured here as 28–45 µs per `thread::scope` spawn with the
//! cores kept awake against 44–250 µs without, which moved the median
//! exchange by up to 70 % from one second to the next. One yielding
//! spinner per otherwise idle core removes that: `yield_now` hands the
//! core to any runnable thread of the program at once, so the spinner
//! costs the program nothing but the few per cent an always-busy
//! sibling does, and costs it the same on every commit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let idle_cores = std::thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..idle_cores)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    // Relaxed: the flag publishes no other data.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            // A spinner cannot panic; nothing to report if it had.
            let _ = spinner.join();
        }
    }
}

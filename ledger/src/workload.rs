//! What the runner needs from a workload: build it, run rounds of a
//! fixed operation list, read its counters.

use crate::span::Recorder;
use std::collections::BTreeMap;

/// The six workloads, with why each exists (the `why` of
/// `BENCHMARK.json`, one line each).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "read-single",
        "Table III read: one GetBalance per exchange on a warm 10,000-account state; signatures dominate, multiproof, store and gateway are bypassed",
    ),
    (
        "read-batch64",
        "64 GetBalance per exchange: envelope signatures amortise, multiproof, serialisation and client proof hashing do the work",
    ),
    (
        "write-mix",
        "one SendRawTransaction per 15 reads: every write invalidates and rebuilds the frozen head trie the reads hit",
    ),
    (
        "history-cold",
        "batched tx+receipt lookups on pruned blocks with a warm tier holding ~3% of the pages: working set far beyond the program's cache",
    ),
    (
        "gateway-quorum",
        "fault-free marketplace wrapper over 4 providers with 1 ms links: three Gateway::call to one quorum_call(k=3)",
    ),
    (
        "gateway-chaos",
        "12 seeded fault schedules (drop, corrupt, delay, crash, partition) over 5 providers: failure is an input",
    ),
];

/// What one round of a workload measured. A round replays the
/// workload's fixed, seed-generated operation list once.
#[derive(Debug, Default)]
pub struct Round {
    /// Exchanges (single, batch, or one gateway call) handed to the driver.
    pub attempted: u64,
    /// Positions in `exchange_us` of the exchanges that did not end in a
    /// verified, ground-truth-equal payload: refused, timed out and
    /// errored all count (the issue's `failed_share`).
    pub unserved_at: Vec<usize>,
    /// The unserved exchanges no injected fault accounts for: all of
    /// them on a fault-free world, none under a fault schedule, where a
    /// classified gateway error is a specified outcome. The `failed` of
    /// the result line.
    pub failed: u64,
    /// Verified RPC calls, a 64-batch counting 64.
    pub verified_calls: u64,
    /// Wall time of every exchange (µs).
    pub exchange_us: Vec<f64>,
    /// Wall time of the `SendRawTransaction` exchanges (µs).
    pub write_us: Vec<f64>,
    /// Wall time of the gateway's single calls and quorum calls (µs).
    pub gateway_single_us: Vec<f64>,
    pub gateway_quorum_us: Vec<f64>,
    /// Sim-clock latency of every exchange (µs of simulated time).
    pub sim_us: Vec<f64>,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub proof_bytes: u64,
    /// Request + response bytes attributed to this round's exchanges.
    pub wire_bytes: f64,
    /// Counts that must repeat exactly for a seed (compared across the
    /// rounds of `gateway-chaos` and across the two runs of `--aa`).
    pub counts: BTreeMap<&'static str, u64>,
    /// Sim-clock time from each failover to the next verified response.
    pub recoveries_sim_us: Vec<f64>,
}

impl Round {
    /// Files the exchange whose time was pushed last as unserved.
    pub fn mark_unserved(&mut self, faults_injected: bool) {
        self.unserved_at.push(self.exchange_us.len() - 1);
        if !faults_injected {
            self.failed += 1;
        }
    }

    pub fn unserved(&self) -> u64 {
        self.unserved_at.len() as u64
    }
}

pub trait Workload {
    /// Untimed work a round needs first (signing the round's transfers,
    /// rebuilding consumed worlds). Returns the seconds it spent on
    /// world set-up, if it built worlds.
    fn before_round(&mut self) -> Result<Option<f64>, String> {
        Ok(None)
    }

    /// Runs the operation list once. With a recorder the exchanges are
    /// unrolled into spans (the traced pass); without, they go through
    /// the program's own drivers (the timed pass). An accepted payload
    /// that differs from chain ground truth is an `Err`: it aborts the
    /// run.
    fn round(&mut self, rec: Option<&mut Recorder>) -> Result<Round, String>;

    /// Per-layer metrics only this workload can measure (program
    /// counters read through public accessors, twins, leaf timers on
    /// its own world), written into `out` by metric name. Exchanges it
    /// unrolls to see the layers below a wrapper go into `probe`.
    fn layer_metrics(
        &mut self,
        out: &mut BTreeMap<&'static str, f64>,
        probe: &mut Recorder,
    ) -> Result<(), String>;
}

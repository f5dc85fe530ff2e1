//! The over-capacity serving scenario: many clients contending for one
//! full node, with the runtime's admission controller and fair queue
//! between them.
//!
//! One client floods far beyond any sustainable rate while honest
//! clients request at modest, paid-for rates. The scenario drives real
//! batched exchanges through the serving runtime (so the snapshot cache
//! is exercised, not mocked) under a deterministic logical clock, and
//! reports per-client admission and latency figures.
//! The properties the runtime must deliver — the flooder bounded to its
//! token-bucket rate, honest clients' latency within a small factor of
//! the uncontended case — are asserted by `tests/runtime.rs` on top of
//! the [`ContentionReport`] this module produces.

use crate::sim::Network;
use parp_contracts::{ParpBatchRequest, RpcCall};
use parp_crypto::SecretKey;
use parp_primitives::{Address, U256};
use parp_runtime::{FairQueue, Runtime, RuntimeConfig};
use parp_telemetry::{MetricsSnapshot, Telemetry};

/// Tuning for the contention scenario.
#[derive(Debug, Clone, Copy)]
pub struct ContentionConfig {
    /// Number of honest clients.
    pub honest_clients: usize,
    /// Honest request rate: batches per simulated second, per client.
    pub honest_rate_per_sec: u64,
    /// Flooder request rate: batches per simulated second (0 disables
    /// the flooder — the uncontended baseline).
    pub flood_rate_per_sec: u64,
    /// Calls per batch.
    pub batch_size: usize,
    /// Admission burst per client (calls).
    pub admission_burst: u64,
    /// Admission refill rate per client (calls per second).
    pub admission_rate_per_sec: u64,
    /// Simulated scenario length in milliseconds.
    pub duration_ms: u64,
    /// Simulated service time per batch in microseconds.
    pub service_time_us: u64,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            honest_clients: 3,
            honest_rate_per_sec: 20,
            flood_rate_per_sec: 500,
            batch_size: 4,
            admission_burst: 16,
            admission_rate_per_sec: 100,
            duration_ms: 1_000,
            service_time_us: 200,
        }
    }
}

/// Per-client outcome of a contention run.
#[derive(Debug, Clone, Copy)]
pub struct ClientOutcome {
    /// The client's address.
    pub address: Address,
    /// Calls the client attempted (batches × batch size).
    pub attempted_calls: u64,
    /// Calls past the admission controller.
    pub admitted_calls: u64,
    /// Calls rejected by the rate limit.
    pub throttled_calls: u64,
    /// Batches actually served.
    pub served_batches: u64,
    /// Mean enqueue-to-completion latency over served batches (µs).
    pub mean_latency_us: u64,
    /// Worst served-batch latency (µs).
    pub max_latency_us: u64,
}

/// Aggregate outcome of a contention run.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// Per-honest-client outcomes.
    pub honest: Vec<ClientOutcome>,
    /// The flooding client's outcome (zeroed when flooding is off).
    pub flooder: ClientOutcome,
    /// Snapshot-cache hits across the run.
    pub cache_hits: u64,
    /// Snapshot-cache misses across the run.
    pub cache_misses: u64,
    /// End-of-run snapshot of the run's telemetry registry (runtime
    /// admission/cache counters, serve-path histograms, net series).
    pub metrics: MetricsSnapshot,
}

impl ContentionReport {
    /// Mean latency over every served honest batch (µs).
    pub fn honest_mean_latency_us(&self) -> u64 {
        let (sum, count) = self.honest.iter().fold((0u64, 0u64), |(s, c), o| {
            (
                s + o.mean_latency_us * o.served_batches,
                c + o.served_batches,
            )
        });
        sum.checked_div(count).unwrap_or(0)
    }

    /// Total calls served for honest clients.
    pub fn honest_served_calls(&self, batch_size: usize) -> u64 {
        self.honest
            .iter()
            .map(|o| o.served_batches * batch_size as u64)
            .sum()
    }
}

/// One client's request stream inside the scenario.
struct Contender {
    secret: SecretKey,
    address: Address,
    channel_id: u64,
    tip: parp_primitives::H256,
    /// Cumulative payment committed so far (grows by price × batch).
    amount: U256,
    targets: Vec<Address>,
    attempted: u64,
    served: u64,
    latency_sum_us: u64,
    latency_max_us: u64,
}

impl Contender {
    fn next_batch(&mut self, price: U256, batch_size: usize) -> ParpBatchRequest {
        let calls: Vec<RpcCall> = (0..batch_size)
            .map(|i| RpcCall::GetBalance {
                address: self.targets[(self.attempted as usize + i) % self.targets.len()],
            })
            .collect();
        self.amount += price * U256::from(batch_size as u64);
        self.attempted += batch_size as u64;
        ParpBatchRequest::build(&self.secret, self.channel_id, self.tip, self.amount, calls)
    }

    fn outcome(&self, runtime: &Runtime) -> ClientOutcome {
        let stats = runtime.admission_stats(&self.address);
        ClientOutcome {
            address: self.address,
            attempted_calls: self.attempted,
            admitted_calls: stats.admitted,
            throttled_calls: stats.throttled,
            served_batches: self.served,
            mean_latency_us: self.latency_sum_us.checked_div(self.served).unwrap_or(0),
            max_latency_us: self.latency_max_us,
        }
    }
}

/// Runs the over-capacity scenario and reports per-client figures.
///
/// The simulation is fully deterministic: arrivals follow fixed
/// per-client periods on a logical microsecond clock, admission is the
/// runtime's token buckets, the backlog drains through the runtime's
/// fair round-robin queue, and every admitted batch is genuinely served
/// (signed, proven) through the snapshot cache at the pinned head.
pub fn run_contention(config: &ContentionConfig) -> ContentionReport {
    let price = U256::from(10u64);
    let telemetry = Telemetry::new();
    let mut net = Network::with_latency(crate::latency::LatencyModel::zero());
    net.set_runtime(Runtime::new(RuntimeConfig {
        burst_capacity: config.admission_burst,
        rate_per_sec: config.admission_rate_per_sec,
    }));
    net.attach_telemetry(&telemetry);
    let node = net.spawn_node(b"contended-node", price);

    // Some funded accounts for the read workload to target.
    let targets: Vec<Address> = (0..32)
        .map(|i| Address::from_low_u64_be(0xCA11 + i))
        .collect();
    net.fund_many(&targets);

    // Flooder is contender 0 (when enabled), honest clients follow.
    let budget = U256::from(1u64) << 60;
    let mut contenders: Vec<Contender> = Vec::new();
    let mut periods_us: Vec<u64> = Vec::new();
    let flooding = config.flood_rate_per_sec > 0;
    let roles: Vec<(Vec<u8>, u64)> =
        std::iter::once((b"flood-client".to_vec(), config.flood_rate_per_sec))
            .filter(|_| flooding)
            .chain((0..config.honest_clients).map(|i| {
                (
                    format!("honest-client-{i}").into_bytes(),
                    config.honest_rate_per_sec,
                )
            }))
            .collect();
    for (seed, rate) in &roles {
        let mut client = net.spawn_client(seed, price);
        let channel_id = net.connect(&mut client, node, budget).expect("connect");
        contenders.push(Contender {
            secret: *client.secret(),
            address: client.address(),
            channel_id,
            tip: client.tip().expect("synced").hash(),
            amount: U256::ZERO,
            targets: targets.clone(),
            attempted: 0,
            served: 0,
            latency_sum_us: 0,
            latency_max_us: 0,
        });
        periods_us.push(if *rate == 0 {
            u64::MAX
        } else {
            1_000_000 / rate
        });
    }

    // Deterministic arrival schedule: (time, contender index), merged in
    // time order with index as tie-break. Small per-client offsets keep
    // periodic streams from aligning on the exact same microsecond.
    let horizon_us = config.duration_ms * 1_000;
    let mut arrivals: Vec<(u64, usize)> = Vec::new();
    for (index, period) in periods_us.iter().enumerate() {
        if *period == u64::MAX {
            continue;
        }
        let mut t = 13 * (index as u64 + 1);
        while t < horizon_us {
            arrivals.push((t, index));
            t += period;
        }
    }
    arrivals.sort_unstable();

    // Single-server queueing loop: admission at arrival time, fair
    // round-robin service, fixed per-batch service time.
    let mut queue: FairQueue<(ParpBatchRequest, u64)> = FairQueue::new();
    let mut server_free_at = 0u64;
    let mut next_arrival = 0usize;
    let ingest = |net: &mut Network,
                  contenders: &mut Vec<Contender>,
                  queue: &mut FairQueue<(ParpBatchRequest, u64)>,
                  time: u64,
                  index: usize| {
        let contender = &mut contenders[index];
        let address = contender.address;
        if net
            .runtime_mut()
            .admit(address, config.batch_size as u64, time)
            .is_ok()
        {
            let request = contender.next_batch(price, config.batch_size);
            queue.push(address, (request, time));
        } else {
            // Throttled attempts still count as attempted calls.
            contender.attempted += config.batch_size as u64;
        }
    };
    while next_arrival < arrivals.len() || !queue.is_empty() {
        if queue.is_empty() {
            let (time, index) = arrivals[next_arrival];
            next_arrival += 1;
            server_free_at = server_free_at.max(time);
            ingest(&mut net, &mut contenders, &mut queue, time, index);
            continue;
        }
        // Ingest everything arriving before the server frees up, so
        // round-robin sees the full contention set.
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= server_free_at {
            let (time, index) = arrivals[next_arrival];
            next_arrival += 1;
            ingest(&mut net, &mut contenders, &mut queue, time, index);
        }
        let (address, (request, enqueued_at)) = queue.pop().expect("non-empty");
        net.serve_batch(node, &request)
            .expect("admitted batch serves");
        let finish = server_free_at + config.service_time_us;
        let latency = finish - enqueued_at;
        server_free_at = finish;
        let contender = contenders
            .iter_mut()
            .find(|c| c.address == address)
            .expect("known contender");
        contender.served += 1;
        contender.latency_sum_us += latency;
        contender.latency_max_us = contender.latency_max_us.max(latency);
    }

    let runtime = net.runtime();
    let honest_range = if flooding { 1.. } else { 0.. };
    let honest = contenders[honest_range]
        .iter()
        .map(|c| c.outcome(runtime))
        .collect();
    let flooder = if flooding {
        contenders[0].outcome(runtime)
    } else {
        ClientOutcome {
            address: Address::ZERO,
            attempted_calls: 0,
            admitted_calls: 0,
            throttled_calls: 0,
            served_batches: 0,
            mean_latency_us: 0,
            max_latency_us: 0,
        }
    };
    ContentionReport {
        honest,
        flooder,
        cache_hits: runtime.cache().hits(),
        cache_misses: runtime.cache().misses(),
        metrics: telemetry.registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_baseline_serves_everything() {
        let config = ContentionConfig {
            flood_rate_per_sec: 0,
            duration_ms: 200,
            ..ContentionConfig::default()
        };
        let report = run_contention(&config);
        assert_eq!(report.honest.len(), config.honest_clients);
        for outcome in &report.honest {
            assert!(outcome.served_batches > 0);
            assert_eq!(outcome.throttled_calls, 0, "honest rate is within bucket");
            assert_eq!(
                outcome.served_batches * config.batch_size as u64,
                outcome.admitted_calls
            );
        }
        assert_eq!(report.flooder.admitted_calls, 0);
        // Same head for every exchange: one cold build, all hits after.
        assert!(report.cache_hits > report.cache_misses);
        // The telemetry registry adopted the very counters the runtime
        // increments, so the snapshot agrees with the report exactly.
        assert_eq!(
            report
                .metrics
                .counter("parp_runtime_snapshot_cache_hits_total", &[]),
            Some(report.cache_hits)
        );
        let admitted: u64 = report.honest.iter().map(|o| o.admitted_calls).sum();
        assert_eq!(
            report
                .metrics
                .counter("parp_runtime_admitted_calls_total", &[]),
            Some(admitted)
        );
    }

    #[test]
    fn flooder_gets_throttled_not_honest() {
        let config = ContentionConfig {
            duration_ms: 300,
            ..ContentionConfig::default()
        };
        let report = run_contention(&config);
        assert!(
            report.flooder.throttled_calls > 0,
            "flood must hit the limit"
        );
        for outcome in &report.honest {
            assert_eq!(outcome.throttled_calls, 0);
        }
    }
}

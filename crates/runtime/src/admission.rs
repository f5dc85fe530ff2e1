//! Per-client admission control: token-bucket rate limiting plus fair
//! round-robin dequeueing across open channels.
//!
//! Multi-tenant RPC serving is only incentive-compatible when one
//! aggressive client cannot buy the whole node (Relay Mining makes the
//! same observation for its relay quotas): a payment channel entitles a
//! client to *its* rate, not to the head of every queue. The runtime
//! enforces that in two layers — a [`TokenBucket`] per client bounds
//! how many calls it may even enqueue per unit time, and a [`FairQueue`]
//! rotates service across clients so queued backlogs from one channel
//! cannot starve another's.
//!
//! All time is a caller-supplied microsecond clock, so simulations stay
//! deterministic and tests never sleep.

use parp_primitives::Address;
use parp_telemetry::Counter;
use std::collections::{HashMap, VecDeque};

/// Micro-tokens per token: buckets refill with integer math only.
const MICRO: u64 = 1_000_000;

/// A token bucket: `capacity` burst, `rate` tokens/second steady state.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity_micro: u64,
    available_micro: u64,
    rate_per_sec: u64,
    last_refill_us: u64,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(capacity: u64, rate_per_sec: u64, now_us: u64) -> Self {
        TokenBucket {
            capacity_micro: capacity.saturating_mul(MICRO),
            available_micro: capacity.saturating_mul(MICRO),
            rate_per_sec,
            last_refill_us: now_us,
        }
    }

    /// Whole tokens currently available.
    pub fn available(&self, now_us: u64) -> u64 {
        self.peek_available_micro(now_us) / MICRO
    }

    fn peek_available_micro(&self, now_us: u64) -> u64 {
        let elapsed = now_us.saturating_sub(self.last_refill_us);
        let refill = (elapsed as u128 * self.rate_per_sec as u128) as u64;
        self.available_micro
            .saturating_add(refill)
            .min(self.capacity_micro)
    }

    fn refill(&mut self, now_us: u64) {
        self.available_micro = self.peek_available_micro(now_us);
        self.last_refill_us = self.last_refill_us.max(now_us);
    }

    /// Takes `cost` tokens, or reports how many microseconds until they
    /// will have refilled.
    ///
    /// # Errors
    ///
    /// Returns `Err(retry_after_us)` when the bucket cannot cover the
    /// cost now.
    pub fn try_take(&mut self, cost: u64, now_us: u64) -> Result<(), u64> {
        self.refill(now_us);
        let cost_micro = cost.saturating_mul(MICRO);
        if cost_micro > self.capacity_micro {
            // Never admissible; report a full-capacity refill horizon.
            return Err(u64::MAX);
        }
        if self.available_micro >= cost_micro {
            self.available_micro -= cost_micro;
            return Ok(());
        }
        let missing = cost_micro - self.available_micro;
        let retry_after_us = if self.rate_per_sec == 0 {
            u64::MAX
        } else {
            missing.div_ceil(self.rate_per_sec)
        };
        Err(retry_after_us)
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The client's bucket is empty; retry after roughly this long.
    RateLimited {
        /// Microseconds until the bucket covers the rejected cost
        /// (`u64::MAX` when it never will).
        retry_after_us: u64,
    },
}

/// Per-client admission statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Calls admitted for serving.
    pub admitted: u64,
    /// Calls rejected by the rate limit.
    pub throttled: u64,
}

/// Token buckets for every client a node serves.
///
/// Besides the per-client [`AdmissionStats`], the controller keeps two
/// live global [`Counter`]s (total admitted / throttled calls) that a
/// telemetry registry can adopt, so fleet-wide admission pressure is
/// one exported metric instead of a walk over every client.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    burst_capacity: u64,
    rate_per_sec: u64,
    buckets: HashMap<Address, TokenBucket>,
    stats: HashMap<Address, AdmissionStats>,
    admitted_total: Counter,
    throttled_total: Counter,
}

impl AdmissionController {
    /// A controller giving every client a `burst_capacity`-call burst
    /// refilling at `rate_per_sec` calls per second.
    pub fn new(burst_capacity: u64, rate_per_sec: u64) -> Self {
        AdmissionController {
            burst_capacity,
            rate_per_sec,
            buckets: HashMap::new(),
            stats: HashMap::new(),
            admitted_total: Counter::new(),
            throttled_total: Counter::new(),
        }
    }

    /// Admits `calls` calls from `client` at `now_us`, charging one
    /// token per call (a batch of N costs N — batching amortizes
    /// signatures, not entitlement).
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::RateLimited`] when the client's bucket
    /// cannot cover the calls.
    pub fn admit(
        &mut self,
        client: Address,
        calls: u64,
        now_us: u64,
    ) -> Result<(), AdmissionError> {
        let bucket = self
            .buckets
            .entry(client)
            .or_insert_with(|| TokenBucket::new(self.burst_capacity, self.rate_per_sec, now_us));
        let stats = self.stats.entry(client).or_default();
        match bucket.try_take(calls, now_us) {
            Ok(()) => {
                stats.admitted += calls;
                self.admitted_total.add(calls);
                Ok(())
            }
            Err(retry_after_us) => {
                stats.throttled += calls;
                self.throttled_total.add(calls);
                Err(AdmissionError::RateLimited { retry_after_us })
            }
        }
    }

    /// Admission statistics for `client`.
    pub fn stats(&self, client: &Address) -> AdmissionStats {
        self.stats.get(client).copied().unwrap_or_default()
    }

    /// Live handle to the global admitted-calls counter, for registry
    /// adoption.
    pub fn admitted_counter(&self) -> Counter {
        self.admitted_total.clone()
    }

    /// Live handle to the global throttled-calls counter, for registry
    /// adoption.
    pub fn throttled_counter(&self) -> Counter {
        self.throttled_total.clone()
    }
}

/// Round-robin queues, one per client: each [`FairQueue::pop`] serves
/// the next client in rotation, so a deep backlog on one channel delays
/// other channels by at most one service each per round.
///
/// A client's entry lives exactly as long as it has backlog: popping a
/// queue's last item drops the queue from the rotation, and a later
/// [`FairQueue::push`] re-registers the client at the rotation's tail.
/// (The original implementation kept drained queues forever — unbounded
/// memory growth and O(total-clients-ever-seen) `pop` scans under churn
/// of one-shot clients.)
#[derive(Debug, Clone)]
pub struct FairQueue<T> {
    /// Per-client queues in rotation order; every queue is non-empty
    /// (emptied queues are removed on pop). `cursor` points at the next
    /// client to serve.
    queues: Vec<(Address, VecDeque<T>)>,
    cursor: usize,
    len: usize,
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FairQueue<T> {
    /// An empty queue set.
    pub fn new() -> Self {
        FairQueue {
            queues: Vec::new(),
            cursor: 0,
            len: 0,
        }
    }

    /// Total queued items across all clients.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of clients currently holding backlog — the rotation's
    /// size, and the upper bound on how many services any one client
    /// waits between its turns.
    pub fn active_clients(&self) -> usize {
        self.queues.len()
    }

    /// Queued items for one client.
    pub fn backlog(&self, client: &Address) -> usize {
        self.queues
            .iter()
            .find(|(c, _)| c == client)
            .map(|(_, q)| q.len())
            .unwrap_or(0)
    }

    /// Enqueues an item for `client`, registering the client at the end
    /// of the rotation when it has no backlog.
    pub fn push(&mut self, client: Address, item: T) {
        self.len += 1;
        match self.queues.iter_mut().find(|(c, _)| *c == client) {
            Some((_, queue)) => queue.push_back(item),
            None => {
                // Insert at the rotation's tail: every client that
                // already has backlog is served once before the
                // newcomer, exactly as if it had always been last.
                let at = self.cursor.min(self.queues.len());
                self.queues.insert(at, (client, VecDeque::from([item])));
                self.cursor = at + 1;
            }
        }
    }

    /// Dequeues the next item round-robin across clients with backlog.
    /// O(1) scan: every registered queue is non-empty by invariant.
    pub fn pop(&mut self) -> Option<(Address, T)> {
        if self.len == 0 {
            return None;
        }
        if self.cursor >= self.queues.len() {
            self.cursor = 0;
        }
        let (client, queue) = self.queues.get_mut(self.cursor)?;
        let client = *client;
        let Some(item) = queue.pop_front() else {
            // Queues in rotation are non-empty by invariant; an empty
            // one has nothing to serve, so it leaves the rotation.
            self.queues.remove(self.cursor);
            return None;
        };
        self.len -= 1;
        if queue.is_empty() {
            // Drop the drained queue; the element after it shifts into
            // `cursor`, which is exactly the next client in rotation.
            self.queues.remove(self.cursor);
        } else {
            self.cursor += 1;
        }
        Some((client, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(n: u64) -> Address {
        Address::from_low_u64_be(n)
    }

    #[test]
    fn bucket_burst_then_rate() {
        let mut bucket = TokenBucket::new(10, 5, 0);
        assert!(bucket.try_take(10, 0).is_ok());
        let retry = bucket.try_take(1, 0).unwrap_err();
        assert_eq!(retry, 200_000, "one token at 5/s is 200ms away");
        // After one second, exactly 5 tokens refilled.
        assert_eq!(bucket.available(1_000_000), 5);
        assert!(bucket.try_take(5, 1_000_000).is_ok());
        assert!(bucket.try_take(1, 1_000_000).is_err());
        // Refill caps at capacity.
        assert_eq!(bucket.available(100_000_000), 10);
    }

    #[test]
    fn oversized_and_zero_rate_requests() {
        let mut bucket = TokenBucket::new(4, 0, 0);
        assert!(bucket.try_take(4, 0).is_ok());
        assert_eq!(bucket.try_take(1, 0).unwrap_err(), u64::MAX);
        let mut bucket = TokenBucket::new(4, 10, 0);
        assert_eq!(bucket.try_take(5, 0).unwrap_err(), u64::MAX);
    }

    #[test]
    fn controller_isolates_clients() {
        let mut controller = AdmissionController::new(3, 1);
        assert!(controller.admit(client(1), 3, 0).is_ok());
        assert!(matches!(
            controller.admit(client(1), 1, 0),
            Err(AdmissionError::RateLimited { .. })
        ));
        // Client 2's bucket is untouched by client 1's exhaustion.
        assert!(controller.admit(client(2), 3, 0).is_ok());
        assert_eq!(
            controller.stats(&client(1)),
            AdmissionStats {
                admitted: 3,
                throttled: 1
            }
        );
    }

    #[test]
    fn fair_queue_round_robins() {
        let mut queue = FairQueue::new();
        // Client 1 floods 100 items before client 2 enqueues 3.
        for i in 0..100 {
            queue.push(client(1), i);
        }
        for i in 0..3 {
            queue.push(client(2), 100 + i);
        }
        assert_eq!(queue.len(), 103);
        assert_eq!(queue.backlog(&client(1)), 100);
        // Client 2's three items are all served within the first 6 pops.
        let first_six: Vec<Address> = (0..6).map(|_| queue.pop().unwrap().0).collect();
        assert_eq!(
            first_six.iter().filter(|c| **c == client(2)).count(),
            3,
            "round-robin must interleave the small queue"
        );
        // Drain preserves per-client FIFO order.
        let mut last = None;
        while let Some((c, item)) = queue.pop() {
            assert_eq!(c, client(1));
            if let Some(previous) = last {
                assert!(item > previous);
            }
            last = Some(item);
        }
        assert!(queue.is_empty());
    }
}

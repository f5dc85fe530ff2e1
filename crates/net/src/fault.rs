//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultPlane`] turns the perfectly reliable [`crate::Network`]
//! transport into one that drops messages, delays them, corrupts
//! payload bytes, crashes providers, and partitions provider subsets —
//! the boring failures a production deployment sees far more often
//! than provable fraud. Every decision is drawn from a splitmix64
//! stream seeded by the schedule's `seed` and indexed by a monotone
//! **step counter** (one step per injected exchange attempt), so a run
//! is fully replayable from `(seed, step)`: no wall clock, no global
//! RNG, byte-identical schedules across same-seed runs.
//!
//! Faults are *transport-level*: a corrupted response is flipped
//! ([`parp_core::Exchange::corrupt`]) **without** re-signing, so the
//! client's §V-D signature check classifies it (as
//! [`parp_core::InvalidReason::ResponseSignatureInvalid`]) instead of
//! accepting it — distinct from [`parp_core::Misbehavior`], which models
//! a lying provider that signs what it sends.

use parp_telemetry::{Counter, Telemetry};

/// The splitmix64 mixer: a full-period, statistically solid 64-bit
/// permutation (Steele et al.), used everywhere the simulator needs a
/// cheap deterministic stream. Public so resilience machinery layered
/// above the network (backoff jitter) can share the generator.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One provider crash window: the node at `provider_index` refuses
/// connections for every injection step in `from_step..until_step`,
/// then comes back (the restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Simulation index of the crashed node ([`crate::NodeId`] `.0`).
    pub provider_index: usize,
    /// First step the node is down (inclusive).
    pub from_step: u64,
    /// First step the node is back up (exclusive end).
    pub until_step: u64,
}

/// One network partition window: every listed provider is unreachable
/// (requests hang until the caller's deadline) for steps in
/// `from_step..until_step`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// Simulation indices of the partitioned nodes.
    pub provider_indices: Vec<usize>,
    /// First step the partition holds (inclusive).
    pub from_step: u64,
    /// First step connectivity is restored (exclusive end).
    pub until_step: u64,
}

/// A corruption burst: during `from_step..until_step` the corruption
/// probability is raised to `corrupt_ppm` (replacing the base rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionBurst {
    /// First step of the burst (inclusive).
    pub from_step: u64,
    /// First step past the burst (exclusive end).
    pub until_step: u64,
    /// Corruption probability during the burst, parts per million.
    pub corrupt_ppm: u32,
}

/// Per-provider overrides of the global fault rates — how a scenario
/// makes exactly one provider flaky while the rest stay clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderFaultRates {
    /// Simulation index of the targeted node.
    pub provider_index: usize,
    /// Message-drop probability for this provider (ppm).
    pub drop_ppm: u32,
    /// Payload-corruption probability for this provider (ppm).
    pub corrupt_ppm: u32,
    /// Added-delay probability for this provider (ppm).
    pub delay_ppm: u32,
}

/// A seeded, replayable fault schedule.
///
/// All probabilities are in parts per million (`1_000_000` = always).
/// Rate-driven faults are drawn independently per step with priority
/// drop > corrupt > delay; window-driven faults (crashes, partitions)
/// take precedence over all rates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the splitmix64 decision stream.
    pub seed: u64,
    /// Global message-drop probability (ppm).
    pub drop_ppm: u32,
    /// Global payload-corruption probability (ppm).
    pub corrupt_ppm: u32,
    /// Global added-delay probability (ppm).
    pub delay_ppm: u32,
    /// Added delay for an ordinary delayed message (µs).
    pub delay_base_us: u64,
    /// Added delay for a delay *spike* (µs); one in eight delayed
    /// messages spikes.
    pub delay_spike_us: u64,
    /// Provider crash + restart windows.
    pub crashes: Vec<CrashWindow>,
    /// Network partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Corruption bursts layered over the base corruption rate.
    pub bursts: Vec<CorruptionBurst>,
    /// Per-provider rate overrides (first matching entry wins).
    pub overrides: Vec<ProviderFaultRates>,
}

impl Default for FaultConfig {
    /// A schedule that injects nothing (all rates zero, no windows).
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_ppm: 0,
            corrupt_ppm: 0,
            delay_ppm: 0,
            delay_base_us: 2_000,
            delay_spike_us: 40_000,
            crashes: Vec::new(),
            partitions: Vec::new(),
            bursts: Vec::new(),
            overrides: Vec::new(),
        }
    }
}

/// What the plane decided to do to one exchange attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// Deliver the exchange untouched.
    None,
    /// The provider's process is down: the connection is refused
    /// immediately ([`crate::SimError::Crashed`]).
    Crashed,
    /// The provider is partitioned away: the request hangs until the
    /// caller's deadline burns ([`crate::SimError::Timeout`]).
    Partitioned,
    /// The message is lost in flight; the caller's deadline burns.
    Drop,
    /// The response payload is corrupted in flight (one byte flipped,
    /// signature left alone — caught by the §V-D signature check).
    Corrupt {
        /// Deterministic byte-position selector for the flip.
        nudge: u64,
    },
    /// The response is delivered late by `added_us` microseconds (a
    /// deadline overrun converts this into a timeout downstream).
    Delay {
        /// Extra one-way delay injected (µs).
        added_us: u64,
    },
}

/// Live counters for every fault the plane injected, adoptable by a
/// telemetry registry (`parp_net_fault_*_total`). `timeouts` counts
/// deadline burns the *network* observed, whatever fault caused them.
#[derive(Debug, Clone, Default)]
pub struct FaultCounters {
    /// Messages dropped.
    pub drops: Counter,
    /// Responses corrupted.
    pub corruptions: Counter,
    /// Responses delayed.
    pub delays: Counter,
    /// Connections refused by a crashed provider.
    pub crashes: Counter,
    /// Requests swallowed by a partition.
    pub partitions: Counter,
    /// Exchanges that burned the caller's deadline.
    pub timeouts: Counter,
}

/// The installed fault plane: a [`FaultConfig`] plus the monotone step
/// counter its decision stream is indexed by.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    config: FaultConfig,
    step: u64,
    counters: FaultCounters,
}

impl FaultPlane {
    /// Wraps a schedule with the step counter at zero.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlane {
            config,
            step: 0,
            counters: FaultCounters::default(),
        }
    }

    /// The schedule this plane replays.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Exchange attempts decided so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The live injection counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Registers the injection counters with `telemetry`'s registry.
    pub fn register(&self, telemetry: &Telemetry) {
        let r = &telemetry.registry;
        r.adopt_counter("parp_net_fault_drops_total", &[], &self.counters.drops);
        r.adopt_counter(
            "parp_net_fault_corruptions_total",
            &[],
            &self.counters.corruptions,
        );
        r.adopt_counter("parp_net_fault_delays_total", &[], &self.counters.delays);
        r.adopt_counter("parp_net_fault_crashes_total", &[], &self.counters.crashes);
        r.adopt_counter(
            "parp_net_fault_partitions_total",
            &[],
            &self.counters.partitions,
        );
        r.adopt_counter("parp_net_call_timeouts_total", &[], &self.counters.timeouts);
    }

    /// Counts one deadline burn (called by the network, not by
    /// [`FaultPlane::decide`] — delays only become timeouts once the
    /// caller's deadline is known).
    pub(crate) fn note_timeout(&self) {
        self.counters.timeouts.inc();
    }

    /// Draws the fault (if any) for the next exchange attempt against
    /// the node at `provider_index`, advancing the step counter.
    /// Deterministic: the decision depends only on `(seed, step,
    /// provider_index)` and the configured windows.
    pub fn decide(&mut self, provider_index: usize) -> FaultEffect {
        let step = self.step;
        self.step += 1;
        // Window-driven faults outrank every probabilistic one.
        if self.config.crashes.iter().any(|w| {
            w.provider_index == provider_index && step >= w.from_step && step < w.until_step
        }) {
            self.counters.crashes.inc();
            return FaultEffect::Crashed;
        }
        if self.config.partitions.iter().any(|w| {
            step >= w.from_step
                && step < w.until_step
                && w.provider_indices.contains(&provider_index)
        }) {
            self.counters.partitions.inc();
            return FaultEffect::Partitioned;
        }
        let rates = self
            .config
            .overrides
            .iter()
            .find(|o| o.provider_index == provider_index);
        let drop_ppm = rates.map(|r| r.drop_ppm).unwrap_or(self.config.drop_ppm);
        let mut corrupt_ppm = rates
            .map(|r| r.corrupt_ppm)
            .unwrap_or(self.config.corrupt_ppm);
        let delay_ppm = rates.map(|r| r.delay_ppm).unwrap_or(self.config.delay_ppm);
        if let Some(burst) = self
            .config
            .bursts
            .iter()
            .find(|b| step >= b.from_step && step < b.until_step)
        {
            corrupt_ppm = burst.corrupt_ppm;
        }
        // Independent draws per fault class, all from (seed, step,
        // provider): changing one rate never reshuffles the other
        // classes' decisions.
        let base =
            splitmix64(self.config.seed ^ splitmix64(step).wrapping_add(provider_index as u64));
        let roll = |salt: u64| splitmix64(base ^ salt) % 1_000_000;
        if roll(0x1) < drop_ppm as u64 {
            self.counters.drops.inc();
            return FaultEffect::Drop;
        }
        if roll(0x2) < corrupt_ppm as u64 {
            self.counters.corruptions.inc();
            return FaultEffect::Corrupt {
                nudge: splitmix64(base ^ 0x3),
            };
        }
        if roll(0x4) < delay_ppm as u64 {
            self.counters.delays.inc();
            let spike = splitmix64(base ^ 0x5).is_multiple_of(8);
            let added_us = if spike {
                self.config.delay_spike_us
            } else {
                self.config.delay_base_us
            };
            return FaultEffect::Delay { added_us };
        }
        FaultEffect::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_config(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_ppm: 100_000,
            corrupt_ppm: 50_000,
            delay_ppm: 200_000,
            crashes: vec![CrashWindow {
                provider_index: 1,
                from_step: 10,
                until_step: 20,
            }],
            partitions: vec![PartitionWindow {
                provider_indices: vec![2, 3],
                from_step: 15,
                until_step: 30,
            }],
            bursts: vec![CorruptionBurst {
                from_step: 40,
                until_step: 60,
                corrupt_ppm: 900_000,
            }],
            ..FaultConfig::default()
        }
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let mut a = FaultPlane::new(chaotic_config(7));
        let mut b = FaultPlane::new(chaotic_config(7));
        let decisions_a: Vec<FaultEffect> = (0..200).map(|i| a.decide(i % 4)).collect();
        let decisions_b: Vec<FaultEffect> = (0..200).map(|i| b.decide(i % 4)).collect();
        assert_eq!(decisions_a, decisions_b);
        assert_eq!(a.step(), 200);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlane::new(chaotic_config(7));
        let mut b = FaultPlane::new(chaotic_config(8));
        let decisions_a: Vec<FaultEffect> = (0..200).map(|i| a.decide(i % 4)).collect();
        let decisions_b: Vec<FaultEffect> = (0..200).map(|i| b.decide(i % 4)).collect();
        assert_ne!(decisions_a, decisions_b);
    }

    #[test]
    fn windows_fire_exactly_in_range() {
        let config = chaotic_config(1);
        let mut plane = FaultPlane::new(FaultConfig {
            drop_ppm: 0,
            corrupt_ppm: 0,
            delay_ppm: 0,
            bursts: Vec::new(),
            ..config
        });
        for step in 0..40u64 {
            // One decision per step against provider 1 first, then read
            // what provider 2 would have seen by rebuilding a plane at
            // that step (windows are step-indexed, not provider-paired).
            let effect = plane.decide(1);
            let expected = if (10..20).contains(&step) {
                FaultEffect::Crashed
            } else {
                FaultEffect::None
            };
            assert_eq!(effect, expected, "step {step}");
        }
        let mut partitioned = FaultPlane::new(FaultConfig {
            drop_ppm: 0,
            corrupt_ppm: 0,
            delay_ppm: 0,
            bursts: Vec::new(),
            ..chaotic_config(1)
        });
        for step in 0..40u64 {
            let effect = partitioned.decide(2);
            let expected = if (15..30).contains(&step) {
                FaultEffect::Partitioned
            } else {
                FaultEffect::None
            };
            assert_eq!(effect, expected, "step {step}");
        }
    }

    #[test]
    fn burst_raises_corruption_rate() {
        let mut plane = FaultPlane::new(FaultConfig {
            seed: 3,
            bursts: vec![CorruptionBurst {
                from_step: 0,
                until_step: 1_000,
                corrupt_ppm: 1_000_000,
            }],
            ..FaultConfig::default()
        });
        for _ in 0..50 {
            assert!(matches!(plane.decide(0), FaultEffect::Corrupt { .. }));
        }
        assert_eq!(plane.counters().corruptions.get(), 50);
    }

    #[test]
    fn overrides_target_one_provider() {
        let mut plane = FaultPlane::new(FaultConfig {
            seed: 9,
            overrides: vec![ProviderFaultRates {
                provider_index: 0,
                drop_ppm: 1_000_000,
                corrupt_ppm: 0,
                delay_ppm: 0,
            }],
            ..FaultConfig::default()
        });
        for i in 0..20 {
            let effect = plane.decide(i % 2);
            if i % 2 == 0 {
                assert_eq!(effect, FaultEffect::Drop);
            } else {
                assert_eq!(effect, FaultEffect::None);
            }
        }
    }

    #[test]
    fn rates_hit_within_tolerance() {
        let mut plane = FaultPlane::new(FaultConfig {
            seed: 42,
            drop_ppm: 100_000, // 10%
            ..FaultConfig::default()
        });
        let drops = (0..10_000)
            .filter(|_| plane.decide(0) == FaultEffect::Drop)
            .count();
        // 10% ± 1.5 points over 10k draws.
        assert!((850..=1_150).contains(&drops), "drops = {drops}");
    }
}

//! Pluggable provider-selection strategies over the directory and the
//! reputation book.

use crate::directory::ProviderInfo;
use crate::reputation::ReputationBook;
use parp_primitives::Address;

/// How the gateway picks the provider for the next exchange.
///
/// All strategies are deterministic given the same candidate set and
/// book — the simulations and tests depend on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Lowest advertised price per call (ties broken by address). The
    /// economically rational default — and the policy the marketplace
    /// scenario stresses, because the cheapest provider is exactly the
    /// one a fraudster would impersonate to attract traffic.
    Cheapest,
    /// Lowest latency EWMA. Untried providers have EWMA 0 and are
    /// explored first; once measured, traffic settles on the fastest.
    Fastest,
    /// Highest reputation score (ties broken by price, then address).
    #[default]
    ReputationWeighted,
    /// Rotate over the candidates in address order — the profiling
    /// countermeasure of "Time Tells All": no single provider observes
    /// the client's whole request stream.
    RoundRobin,
}

impl SelectionPolicy {
    /// Picks one provider out of `candidates` (already filtered to the
    /// eligible set). `cursor` is the round-robin rotation state, owned
    /// by the caller and advanced only by [`SelectionPolicy::RoundRobin`].
    pub fn select(
        &self,
        candidates: &[&ProviderInfo],
        book: &ReputationBook,
        cursor: &mut usize,
    ) -> Option<Address> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            SelectionPolicy::Cheapest => candidates
                .iter()
                .min_by_key(|p| (p.price_per_call, p.address))
                .map(|p| p.address),
            SelectionPolicy::Fastest => candidates
                .iter()
                .min_by_key(|p| (book.get(&p.address).latency_ewma_us, p.address))
                .map(|p| p.address),
            SelectionPolicy::ReputationWeighted => candidates
                .iter()
                .max_by(|a, b| {
                    let (sa, sb) = (book.score(&a.address), book.score(&b.address));
                    sa.total_cmp(&sb)
                        // Prefer cheaper, then lower address, on equal
                        // score; max_by keeps the *last* maximal element,
                        // so order the comparison accordingly.
                        .then_with(|| b.price_per_call.cmp(&a.price_per_call))
                        .then_with(|| b.address.cmp(&a.address))
                })
                .map(|p| p.address),
            SelectionPolicy::RoundRobin => {
                let pick = candidates[*cursor % candidates.len()].address;
                *cursor = cursor.wrapping_add(1);
                Some(pick)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_net::NodeId;
    use parp_primitives::U256;

    fn provider(n: u64, price: u64) -> ProviderInfo {
        ProviderInfo {
            address: Address::from_low_u64_be(n),
            node_id: NodeId(n as usize),
            deposit: U256::from(1u64) << 60,
            price_per_call: U256::from(price),
            slash_count: 0,
        }
    }

    #[test]
    fn policies_pick_as_named() {
        let providers = [provider(1, 30), provider(2, 10), provider(3, 20)];
        let candidates: Vec<&ProviderInfo> = providers.iter().collect();
        let mut book = ReputationBook::new();
        // Provider 3 is measured fast and reliable; provider 2 flaky.
        for _ in 0..5 {
            book.entry(Address::from_low_u64_be(3)).record_valid(50);
        }
        book.entry(Address::from_low_u64_be(2)).record_valid(5_000);
        book.entry(Address::from_low_u64_be(2)).record_refused();
        book.entry(Address::from_low_u64_be(2)).record_refused();
        book.entry(Address::from_low_u64_be(1)).record_valid(9_000);
        let mut cursor = 0;

        assert_eq!(
            SelectionPolicy::Cheapest.select(&candidates, &book, &mut cursor),
            Some(Address::from_low_u64_be(2))
        );
        assert_eq!(
            SelectionPolicy::Fastest.select(&candidates, &book, &mut cursor),
            Some(Address::from_low_u64_be(3))
        );
        assert_eq!(
            SelectionPolicy::ReputationWeighted.select(&candidates, &book, &mut cursor),
            Some(Address::from_low_u64_be(3))
        );
        // Round-robin cycles all three.
        let mut seen = Vec::new();
        for _ in 0..3 {
            seen.push(
                SelectionPolicy::RoundRobin
                    .select(&candidates, &book, &mut cursor)
                    .unwrap(),
            );
        }
        seen.sort();
        assert_eq!(
            seen,
            vec![
                Address::from_low_u64_be(1),
                Address::from_low_u64_be(2),
                Address::from_low_u64_be(3)
            ]
        );
        assert_eq!(
            SelectionPolicy::Cheapest.select(&[], &book, &mut cursor),
            None
        );
    }
}

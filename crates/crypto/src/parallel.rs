//! Scoped-thread fan-out for independent crypto work.
//!
//! Some PARP verification sites run several **independent** ECDSA
//! operations: a gateway cross-checks `k` quorum responses, a batch
//! verifier judges N items. These helpers spread that work across
//! `std::thread::scope` workers: they live exactly as long as the call
//! and nothing persists.
//!
//! **A spawn is not free.** On the 2-vCPU reference VM one scoped
//! spawn-and-join is 12–40 µs back to back in a tight loop and 28–250 µs
//! inside an exchange, where the worker wakes on a cold core; a signature
//! recovery is 65–85 µs over distinct digests. The serve path used to
//! [`par_join`] its two envelope recoveries and the ledger read 186 µs
//! for 2 × 45 µs of work — slower than the loop it replaced, on every
//! workload — so it now runs them back to back. Only work well above the spawn cost belongs here:
//! a whole batch of recoveries ([`recover_addresses_parallel`]), a whole
//! served leg or §V-D classification with its proof check per quorum
//! leg. The calling thread always takes a share itself, so a fan-out
//! over `n` workers pays `n − 1` spawns; on a single-core host
//! everything runs inline.

use crate::ecdsa::{recover_address, Signature, SignatureError};
use parp_primitives::{Address, H256};

/// Worker-thread budget: available parallelism, capped so a wide quorum
/// cannot oversubscribe the host.
fn thread_budget() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Runs two independent closures, concurrently when a second core is
/// available, inline otherwise. Worth it only when each closure runs for
/// several hundred microseconds (see the module docs).
pub fn par_join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if thread_budget() < 2 {
        return (fa(), fb());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(fa);
        let b = fb();
        (handle.join().expect("par_join worker panicked"), b)
    })
}

/// Maps `f` over `items`, fanning out across scoped workers — never more
/// than the host has cores, the calling thread among them — when there is
/// more than one of each. Results come back in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread_budget().min(items.len());
    if workers < 2 {
        return items.iter().map(f).collect();
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    // Interleaved assignment (worker w takes items w, w+workers, …):
    // balanced without measuring per-item cost.
    let share = |w: usize| -> Vec<(usize, R)> {
        let indexed = items.iter().enumerate().skip(w).step_by(workers);
        indexed.map(|(i, item)| (i, f(item))).collect()
    };
    // The calling thread is worker 0: one spawn fewer, and no core
    // idles waiting for the others.
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let share = &share;
        let handles: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || share(w)))
            .collect();
        let own = share(0);
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"));
        std::iter::once(own).chain(joined).collect()
    });
    for chunk in chunks {
        for (i, r) in chunk {
            results[i] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every index assigned to exactly one worker"))
        .collect()
}

/// Recovers the signing addresses of many independent `(digest,
/// signature)` pairs, in input order, across scoped workers — the batch
/// analogue of [`recover_address`] used by the batch-verification and
/// quorum paths.
pub fn recover_addresses_parallel(
    items: &[(H256, Signature)],
) -> Vec<Result<Address, SignatureError>> {
    par_map(items, |(digest, signature)| {
        recover_address(digest, signature)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak::keccak256;
    use crate::{sign, SecretKey};

    #[test]
    fn par_join_runs_both() {
        let (a, b) = par_join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(
            par_map(&items, |x| x * 3),
            items.iter().map(|x| x * 3).collect::<Vec<_>>()
        );
        assert!(par_map(&items[..0], |x| x * 3).is_empty());
    }

    #[test]
    fn batch_recovery_matches_sequential() {
        let pairs: Vec<(H256, Signature)> = (0..24u8)
            .map(|i| {
                let key = SecretKey::from_seed(&[i]);
                let digest = keccak256(&[i, i]);
                (digest, sign(&key, &digest))
            })
            .collect();
        let parallel = recover_addresses_parallel(&pairs);
        for (i, result) in parallel.iter().enumerate() {
            let key = SecretKey::from_seed(&[i as u8]);
            assert_eq!(result.as_ref().ok(), Some(&key.address()));
        }
    }
}

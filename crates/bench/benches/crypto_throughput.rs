//! The crypto hot-path bench: what the fixed-base tables, GLV + wNAF
//! double multiplication, safegcd inversion and parallel verification
//! bought, measured **against the retained pre-optimization loop**
//! (`parp_crypto::baseline`) compiled into this same binary.
//!
//! Five sections:
//!
//! 1. **Correctness pin** — on fixed vectors, the optimized path must
//!    produce byte-identical signatures and identical recovered
//!    addresses to the retained baseline (hard assert).
//! 2. **Single-op throughput** — signs/sec and recovers/sec, optimized
//!    vs baseline, single-threaded.
//! 3. **Varied-input cost** — sign, recover and the known-signer check
//!    (`PreparedKey::signed`) over 1,024 *distinct* digests, one pass
//!    each: what an exchange pays in situ, where every digest is new and
//!    the branch predictor has seen none of it. Section 2's loops revisit
//!    120 inputs and read ~35 % lower. Beside them, what a reconnect pays
//!    to get that check: `PreparedKey::new` over 1,024 distinct keys.
//!    And the two inversions every signature operation pays, field
//!    (`Z⁻¹ mod p`) and scalar (`k⁻¹`/`s⁻¹ mod n`), over the same
//!    digests read as residues.
//! 4. **Batch recovery** — recovers/sec over an independent batch via
//!    the scoped-worker fan-out (`recover_addresses_parallel`); the
//!    speedup over the sequential baseline loop combines the algorithmic
//!    win with whatever cores the host has.
//! 5. **Quorum wall-clock** — end-to-end gateway quorum reads at k = 3
//!    vs single verified reads, wall time, exercising the parallel leg
//!    fan-out in `parp-net`/`parp-gateway`.
//!
//! Emits `BENCH_crypto.json` at the workspace root (a CI artifact
//! alongside `BENCH_batch.json` and `BENCH_gateway.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use parp_crypto::{
    baseline, keccak256, recover_address, recover_addresses_parallel, sign, FieldElement,
    PreparedKey, PublicKey, Scalar, SecretKey, Signature,
};
use parp_gateway::{Gateway, GatewayConfig, SelectionPolicy};
use parp_net::Network;
use parp_primitives::{Address, H256, U256};
use std::hint::black_box;
use std::time::Instant;

/// Single-op measurement rounds.
const OPS: usize = 120;
/// Distinct digests in the varied-input section.
const VARIED: usize = 1024;
/// Batch-recovery size (a k=3 quorum burst of 64-item batches is ~192
/// envelope recoveries; 128 is in that regime).
const BATCH: usize = 128;
/// Quorum fan-out width under test.
const QUORUM: usize = 3;
/// End-to-end reads per shape in the quorum section.
const READS: usize = 12;

fn fixtures(n: usize) -> (SecretKey, Vec<(H256, Signature)>) {
    let key = SecretKey::from_seed(b"crypto-bench-key");
    let pairs = (0..n)
        .map(|i| {
            let digest = keccak256(&(i as u64).to_be_bytes());
            (digest, sign(&key, &digest))
        })
        .collect();
    (key, pairs)
}

fn ops_per_sec(n: usize, elapsed_us: u64) -> f64 {
    n as f64 / (elapsed_us.max(1) as f64 / 1e6)
}

/// Section 1: the optimized path must be indistinguishable from the
/// retained loop on the wire.
fn assert_byte_identical(key: &SecretKey, pairs: &[(H256, Signature)]) {
    for (digest, signature) in pairs {
        let reference = baseline::sign_reference(key, digest);
        assert_eq!(
            signature.to_bytes(),
            reference.to_bytes(),
            "optimized signature diverged from the pre-optimization loop"
        );
        assert_eq!(
            recover_address(digest, signature).ok(),
            baseline::recover_address_reference(digest, signature),
            "optimized recovery diverged from the pre-optimization loop"
        );
    }
}

struct Numbers {
    sign_new_us: f64,
    sign_ref_us: f64,
    recover_new_us: f64,
    recover_ref_us: f64,
    varied: Varied,
    batch_seq_us: u64,
    batch_par_us: u64,
    quorum_single_wall_us: u64,
    quorum_wall_us: u64,
    quorum_single_sim_us: u64,
    quorum_sim_us: u64,
}

fn measure(key: &SecretKey, pairs: &[(H256, Signature)]) -> Numbers {
    let digests: Vec<H256> = pairs.iter().map(|(d, _)| *d).collect();
    let expected = key.address();

    let started = Instant::now();
    for d in digests.iter().take(OPS) {
        black_box(sign(key, d));
    }
    let sign_new_us = started.elapsed().as_micros() as f64 / OPS as f64;

    let started = Instant::now();
    for d in digests.iter().take(OPS) {
        black_box(baseline::sign_reference(key, d));
    }
    let sign_ref_us = started.elapsed().as_micros() as f64 / OPS as f64;

    let started = Instant::now();
    for (d, s) in pairs.iter().take(OPS) {
        assert_eq!(recover_address(d, s).unwrap(), expected);
    }
    let recover_new_us = started.elapsed().as_micros() as f64 / OPS as f64;

    let started = Instant::now();
    for (d, s) in pairs.iter().take(OPS) {
        assert_eq!(baseline::recover_address_reference(d, s), Some(expected));
    }
    let recover_ref_us = started.elapsed().as_micros() as f64 / OPS as f64;

    let varied = measure_varied(key);

    // Batch recovery: the sequential *baseline* loop is the pre-PR
    // shape (one by one, old algorithm); the optimized path fans the
    // batch across scoped workers.
    let started = Instant::now();
    for (d, s) in pairs.iter() {
        assert_eq!(baseline::recover_address_reference(d, s), Some(expected));
    }
    let batch_seq_us = started.elapsed().as_micros() as u64;

    let started = Instant::now();
    let recovered = recover_addresses_parallel(pairs);
    let batch_par_us = started.elapsed().as_micros() as u64;
    assert!(recovered.iter().all(|r| r.as_ref().ok() == Some(&expected)));

    let (quorum_single_wall_us, quorum_wall_us, quorum_single_sim_us, quorum_sim_us) =
        quorum_overhead();

    Numbers {
        sign_new_us,
        sign_ref_us,
        recover_new_us,
        recover_ref_us,
        varied,
        batch_seq_us,
        batch_par_us,
        quorum_single_wall_us,
        quorum_wall_us,
        quorum_single_sim_us,
        quorum_sim_us,
    }
}

/// Section 3's per-operation costs, µs.
#[derive(Clone, Copy)]
struct Varied {
    sign_varied_us: f64,
    recover_varied_us: f64,
    known_signer_verify_us: f64,
    prepared_key_build_us: f64,
    field_invert_us: f64,
    scalar_invert_us: f64,
}

/// Section 3: one pass over `VARIED` distinct digests per operation, so
/// no input is seen twice by the operation being timed. An inversion
/// pass takes ~1.5 ms, short enough for one preemption to double it, so
/// the inversions keep the best of five passes.
fn measure_varied(key: &SecretKey) -> Varied {
    let digests: Vec<H256> = (0..VARIED)
        .map(|i| keccak256(&[b"varied", &(i as u64).to_be_bytes()[..]].concat()))
        .collect();
    let expected = key.address();
    let per_op = |started: Instant| started.elapsed().as_nanos() as f64 / 1e3 / VARIED as f64;

    let started = Instant::now();
    let signatures: Vec<Signature> = digests.iter().map(|d| sign(key, d)).collect();
    let sign_varied_us = per_op(started);

    let started = Instant::now();
    for (d, s) in digests.iter().zip(&signatures) {
        assert_eq!(recover_address(d, s).ok(), Some(expected));
    }
    let recover_varied_us = per_op(started);

    let prepared = PreparedKey::new(key.public_key());
    let started = Instant::now();
    for (d, s) in digests.iter().zip(&signatures) {
        assert!(prepared.signed(d, s));
    }
    let known_signer_verify_us = per_op(started);

    let publics: Vec<PublicKey> = (0..VARIED)
        .map(|i| SecretKey::from_seed(&(i as u64).to_be_bytes()).public_key())
        .collect();
    let started = Instant::now();
    for public in &publics {
        black_box(PreparedKey::new(*public));
    }
    let prepared_key_build_us = per_op(started);

    let fields: Vec<FieldElement> = digests
        .iter()
        .map(|d| FieldElement::from_be_bytes_reduced(&d.into_inner()))
        .collect();
    let scalars: Vec<Scalar> = digests
        .iter()
        .map(|d| Scalar::from_be_bytes_reduced(&d.into_inner()))
        .collect();
    let best_of_five = |pass: &dyn Fn()| {
        (0..5)
            .map(|_| {
                let started = Instant::now();
                pass();
                per_op(started)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let field_invert_us = best_of_five(&|| {
        for x in &fields {
            black_box(x.invert());
        }
    });
    let scalar_invert_us = best_of_five(&|| {
        for x in &scalars {
            black_box(x.invert());
        }
    });
    Varied {
        sign_varied_us,
        recover_varied_us,
        known_signer_verify_us,
        prepared_key_build_us,
        field_invert_us,
        scalar_invert_us,
    }
}

/// A network of honest providers with a connected gateway (mirrors the
/// `gateway_failover` fixture).
fn gateway_fixture(n: usize) -> (Network, Gateway, Vec<Address>) {
    let mut net = Network::with_latency(parp_net::LatencyModel::default());
    for i in 0..n {
        net.spawn_node(
            format!("cb-node-{i}").as_bytes(),
            U256::from(10 * (i as u64 + 1)),
        );
    }
    let targets: Vec<Address> = (0..8)
        .map(|i| Address::from_low_u64_be(0xC0DE + i))
        .collect();
    net.fund_many(&targets);
    let client = net.spawn_client(b"cb-client", U256::from(10u64));
    let gateway = Gateway::new(
        client,
        GatewayConfig {
            policy: SelectionPolicy::RoundRobin,
            ..GatewayConfig::default()
        },
    );
    (net, gateway, targets)
}

/// Wall + simulated time of `READS` single reads and `READS` quorum
/// reads at k = 3, fresh gateways each (so channel setup amortizes
/// identically).
fn quorum_overhead() -> (u64, u64, u64, u64) {
    let (mut net, mut gateway, targets) = gateway_fixture(QUORUM);
    // Warm channels + caches so both shapes measure steady state.
    for target in targets.iter().take(QUORUM) {
        gateway
            .call(
                &mut net,
                parp_contracts::RpcCall::GetBalance { address: *target },
            )
            .expect("warm read");
    }
    let sim_start = net.now_us();
    let wall = Instant::now();
    for i in 0..READS {
        let call = parp_contracts::RpcCall::GetBalance {
            address: targets[i % targets.len()],
        };
        black_box(gateway.call(&mut net, call).expect("single read"));
    }
    let single_wall_us = wall.elapsed().as_micros() as u64;
    let single_sim_us = net.now_us() - sim_start;

    let (mut net, mut gateway, targets) = gateway_fixture(QUORUM);
    gateway
        .quorum_call(
            &mut net,
            parp_contracts::RpcCall::GetBalance {
                address: targets[0],
            },
            QUORUM,
        )
        .expect("warm quorum");
    let sim_start = net.now_us();
    let wall = Instant::now();
    for i in 0..READS {
        let call = parp_contracts::RpcCall::GetBalance {
            address: targets[i % targets.len()],
        };
        let outcome = gateway
            .quorum_call(&mut net, call, QUORUM)
            .expect("quorum read");
        assert!(outcome.agreed, "honest quorum must agree");
        black_box(outcome);
    }
    let quorum_wall_us = wall.elapsed().as_micros() as u64;
    let quorum_sim_us = net.now_us() - sim_start;
    (single_wall_us, quorum_wall_us, single_sim_us, quorum_sim_us)
}

fn emit_artifact(n: &Numbers) {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let signs_per_sec = 1e6 / n.sign_new_us;
    let signs_per_sec_ref = 1e6 / n.sign_ref_us;
    let recovers_per_sec = 1e6 / n.recover_new_us;
    let recovers_per_sec_ref = 1e6 / n.recover_ref_us;
    let sign_speedup = n.sign_ref_us / n.sign_new_us;
    let recover_alg_speedup = n.recover_ref_us / n.recover_new_us;
    let batch_recovers_per_sec = ops_per_sec(BATCH, n.batch_par_us);
    let batch_recovers_per_sec_ref = ops_per_sec(BATCH, n.batch_seq_us);
    let recover_throughput_speedup = n.batch_seq_us as f64 / n.batch_par_us.max(1) as f64;
    let Varied {
        sign_varied_us,
        recover_varied_us,
        known_signer_verify_us,
        prepared_key_build_us,
        field_invert_us,
        scalar_invert_us,
    } = n.varied;
    let quorum_wall_overhead = n.quorum_wall_us as f64 / n.quorum_single_wall_us.max(1) as f64;
    let quorum_sim_overhead = n.quorum_sim_us as f64 / n.quorum_single_sim_us.max(1) as f64;
    let json = format!(
        "{{\"bench\":\"crypto_throughput\",\"cores\":{cores},\
         \"signs_per_sec\":{signs_per_sec:.0},\"signs_per_sec_prepr\":{signs_per_sec_ref:.0},\
         \"sign_speedup\":{sign_speedup:.2},\
         \"recovers_per_sec\":{recovers_per_sec:.0},\"recovers_per_sec_prepr\":{recovers_per_sec_ref:.0},\
         \"recover_alg_speedup\":{recover_alg_speedup:.2},\
         \"varied_digests\":{VARIED},\"sign_varied_us\":{sign_varied_us:.1},\
         \"recover_varied_us\":{recover_varied_us:.1},\
         \"known_signer_verify_us\":{known_signer_verify_us:.1},\
         \"prepared_key_build_us\":{prepared_key_build_us:.1},\
         \"field_invert_us\":{field_invert_us:.2},\"scalar_invert_us\":{scalar_invert_us:.2},\
         \"batch_recovers_per_sec\":{batch_recovers_per_sec:.0},\
         \"batch_recovers_per_sec_prepr\":{batch_recovers_per_sec_ref:.0},\
         \"recover_throughput_speedup\":{recover_throughput_speedup:.2},\
         \"quorum_k\":{QUORUM},\"quorum_wall_overhead\":{quorum_wall_overhead:.3},\
         \"quorum_sim_overhead\":{quorum_sim_overhead:.3}}}\n"
    );
    println!("BENCH_crypto.json: {json}");
    println!(
        "sign: {:.1} µs vs pre-PR {:.1} µs ({sign_speedup:.1}×) | recover: {:.1} µs vs {:.1} µs \
         ({recover_alg_speedup:.1}× alg, {recover_throughput_speedup:.1}× batch throughput on \
         {cores} core(s))",
        n.sign_new_us, n.sign_ref_us, n.recover_new_us, n.recover_ref_us,
    );
    println!(
        "over {VARIED} distinct digests: sign {sign_varied_us:.1} µs | recover \
         {recover_varied_us:.1} µs | known-signer verify {known_signer_verify_us:.1} µs | \
         prepare a key {prepared_key_build_us:.1} µs | invert mod p {field_invert_us:.2} µs, \
         mod n {scalar_invert_us:.2} µs"
    );
    println!(
        "quorum k={QUORUM}: {quorum_wall_overhead:.2}× wall overhead vs single reads \
         ({quorum_sim_overhead:.2}× simulated)"
    );

    // Hard gates, set conservatively below the measured wins so VM
    // noise cannot flake CI: the real numbers live in the JSON.
    assert!(
        sign_speedup >= 3.0,
        "sign must beat the pre-PR loop by ≥3× (measured {sign_speedup:.2}×)"
    );
    assert!(
        recover_alg_speedup >= 2.0,
        "recover must beat the pre-PR loop by ≥2× single-threaded (measured {recover_alg_speedup:.2}×)"
    );
    // Ratios within one run, so the host's speed cancels: the check
    // walks 22 doublings where a recovery walks ~130 and takes a square
    // root (measured ~0.45 of one), and a reconnect must not pay more to
    // prepare a key than it just paid to recover it (measured ~0.5).
    assert!(
        known_signer_verify_us <= 0.65 * recover_varied_us,
        "known-signer verify ({known_signer_verify_us:.1} µs) must cost ≤ 0.65 of a recovery \
         ({recover_varied_us:.1} µs) on the same {VARIED} digests"
    );
    assert!(
        prepared_key_build_us <= recover_varied_us,
        "preparing a key ({prepared_key_build_us:.1} µs) must cost no more than a recovery \
         ({recover_varied_us:.1} µs)"
    );
    // An exchange pays an inversion mod n and one mod p for each of its
    // three signatures and three known-signer checks: a safegcd inverse
    // measured ~0.055 of a check, the binary extended GCD before it ~0.15.
    for (modulus, invert_us) in [("p", field_invert_us), ("n", scalar_invert_us)] {
        assert!(
            invert_us <= 0.10 * known_signer_verify_us,
            "an inversion mod {modulus} ({invert_us:.2} µs) must cost ≤ 0.10 of a known-signer \
             check ({known_signer_verify_us:.1} µs)"
        );
    }
    // Parallel-throughput floors scale with the cores actually present:
    // the full targets only bind once the fan-out has k cores to spread
    // over (GitHub's runners have 4). A 2-core host can overlap at most
    // two of three legs, so it gets intermediate gates; a 1-core host
    // cannot overlap at all and is gated on the algorithmic win alone.
    let throughput_floor = match cores {
        1 => 2.0,
        2 | 3 => 2.5,
        _ => 4.0,
    };
    assert!(
        recover_throughput_speedup >= throughput_floor,
        "batch recovery throughput {recover_throughput_speedup:.2}× below the {throughput_floor}× floor for {cores} core(s)"
    );
    // The ratio's denominator is one ~200 µs single read. On 2–3 cores a
    // quorum read is two rounds of legs plus two scoped fan-outs whose
    // worker wakes cost 100–250 µs each on a virtualised host — they did
    // not get cheaper when the known-signer check did, so the ratio that
    // read 2.4–3.9 over a ~250 µs read reads 3.1–4.5 now (EXPERIMENTS.md,
    // "No doubling chain for a known peer"); the ceiling there only
    // catches a fan-out that got slower than that.
    let overhead_ceiling = match cores {
        1 => 3.5,
        2 | 3 => 5.0,
        _ => 2.0,
    };
    assert!(
        quorum_wall_overhead < overhead_ceiling,
        "quorum wall overhead {quorum_wall_overhead:.2}× above the {overhead_ceiling}× ceiling for {cores} core(s)"
    );
    // Written last: an artifact on disk comes from a run that passed
    // every gate above.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json");
    std::fs::write(path, &json).expect("write BENCH_crypto.json");
    println!("wrote BENCH_crypto.json");
}

fn bench_crypto_ops(c: &mut Criterion) {
    let (key, pairs) = fixtures(BATCH);
    let mut group = c.benchmark_group("crypto_throughput");
    group.sample_size(10);
    let digest = pairs[0].0;
    let signature = pairs[0].1;
    group.bench_function("sign", |b| b.iter(|| black_box(sign(&key, &digest))));
    group.bench_function("sign_prepr", |b| {
        b.iter(|| black_box(baseline::sign_reference(&key, &digest)))
    });
    group.bench_function("recover", |b| {
        b.iter(|| black_box(recover_address(&digest, &signature).unwrap()))
    });
    group.bench_function("recover_prepr", |b| {
        b.iter(|| black_box(baseline::recover_address_reference(&digest, &signature).unwrap()))
    });
    group.bench_function("recover_batch_128_parallel", |b| {
        b.iter(|| black_box(recover_addresses_parallel(&pairs)))
    });
    group.finish();
}

fn run_all(c: &mut Criterion) {
    let (key, pairs) = fixtures(BATCH);
    assert_byte_identical(&key, &pairs);
    let numbers = measure(&key, &pairs);
    emit_artifact(&numbers);
    bench_crypto_ops(c);
}

criterion_group!(benches, run_all);
criterion_main!(benches);

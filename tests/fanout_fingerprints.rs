//! Pinned dispatch fingerprints of the whole stack, six safety levels ×
//! three group sizes, captured at commit `0a6f941` — when every receiver
//! of a multicast still had a queue record of its own. A multicast is now
//! one fan-out record per run of same-instant receivers; the fingerprint
//! hashes `(time, target)` per dispatch, so equality here says that no
//! delivery moved, appeared, vanished or changed places.

use groupsafe::core::{Load, SafetyLevel, System};
use groupsafe::sim::SimDuration;

fn fingerprint(level: SafetyLevel, n: u32, seed: u64) -> u64 {
    System::builder()
        .servers(n)
        .clients_per_server(2)
        .safety(level)
        .load(Load::open_tps(25.0))
        .warmup(SimDuration::from_secs(1))
        .measure(SimDuration::from_secs(8))
        .drain(SimDuration::from_secs(2))
        .seed(seed)
        .build()
        .expect("a valid configuration")
        .execute()
        .fingerprint
}

#[test]
fn fingerprints_match_the_per_receiver_kernel() {
    for (level, n, seed, pinned) in PINNED {
        assert_eq!(
            fingerprint(level, n, seed),
            pinned,
            "{level:?}, {n} servers, seed {seed}"
        );
    }
}

const PINNED: [(SafetyLevel, u32, u64, u64); 18] = [
    (SafetyLevel::ZeroSafe, 3, 7, 0xf9c9a0dfd6cdba40),
    (SafetyLevel::OneSafe, 3, 7, 0x02be7835e4e5f184),
    (SafetyLevel::GroupSafe, 3, 7, 0x0bee9d9d8a1eb8d6),
    (SafetyLevel::GroupOneSafe, 3, 7, 0x076b466b0ee85e46),
    (SafetyLevel::TwoSafe, 3, 7, 0x02a2d2b763896259),
    (SafetyLevel::VerySafe, 3, 7, 0x1180a2ecc2136265),
    (SafetyLevel::ZeroSafe, 5, 1234, 0xc4f4ad504d9e42c1),
    (SafetyLevel::OneSafe, 5, 1234, 0xfb216e868cc1a535),
    (SafetyLevel::GroupSafe, 5, 1234, 0x68d4d8581abc88c3),
    (SafetyLevel::GroupOneSafe, 5, 1234, 0x703a647e4d6a97a5),
    (SafetyLevel::TwoSafe, 5, 1234, 0x385dc447da48e0c0),
    (SafetyLevel::VerySafe, 5, 1234, 0xc7aabe905df21855),
    (SafetyLevel::ZeroSafe, 9, 42, 0x1a01629abf289011),
    (SafetyLevel::OneSafe, 9, 42, 0x47c47d67cdc5f5aa),
    (SafetyLevel::GroupSafe, 9, 42, 0xabafaa218cc0b1f7),
    (SafetyLevel::GroupOneSafe, 9, 42, 0x8b2c0d9e7f3864a0),
    (SafetyLevel::TwoSafe, 9, 42, 0xb7218a14b744e5cf),
    (SafetyLevel::VerySafe, 9, 42, 0x004b155f092215a2),
];

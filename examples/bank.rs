//! A small banking scenario on a custom workload: accounts are items;
//! transfers are update transactions. Shows how the database state
//! machine keeps every replica's books identical, and how certification
//! turns a conflicting concurrent transfer into an abort + retry instead
//! of a lost update — with the whole system wired by the fluent builder
//! and a custom operation generator.
//!
//! Run with: `cargo run --release --example bank`

use groupsafe::core::{Load, OpGenerator, SafetyLevel, System};
use groupsafe::db::{DbConfig, ItemId, Operation};
use groupsafe::sim::SimDuration;
use rand::Rng;

const ACCOUNTS: u32 = 200;
const OPENING_BALANCE: i64 = 1_000;

/// Every transaction moves a random amount between two random accounts:
/// read both balances, write both back. (Values are absolute balances —
/// the certification layer guarantees the read balances are still current
/// at commit time, so the arithmetic is safe.)
fn transfer_generator() -> OpGenerator {
    Box::new(move |rng| {
        let from = ItemId(rng.random_range(0..ACCOUNTS));
        let mut to = ItemId(rng.random_range(0..ACCOUNTS));
        while to == from {
            to = ItemId(rng.random_range(0..ACCOUNTS));
        }
        let amount: i64 = rng.random_range(1..50);
        vec![
            Operation::Read(from),
            Operation::Read(to),
            Operation::Write(from, OPENING_BALANCE - amount),
            Operation::Write(to, OPENING_BALANCE + amount),
        ]
        .into()
    })
}

fn main() {
    let report = System::builder()
        .servers(3)
        .clients_per_server(4)
        .safety(SafetyLevel::GroupSafe)
        .db(DbConfig {
            n_items: ACCOUNTS,
            ..DbConfig::default()
        })
        .generator(|_| transfer_generator())
        .load(Load::open_interarrival(SimDuration::from_millis(200)))
        .measure(SimDuration::from_secs(20))
        .drain(SimDuration::from_secs(2))
        .seed(99)
        .build()
        .expect("a valid configuration")
        .execute();

    println!("bank demo: {ACCOUNTS} accounts, 12 tellers, 3 replicas, 20 s:");
    println!("  transfers committed : {}", report.acked);
    println!(
        "  conflicting attempts: {} (aborted by certification, retried by the teller)",
        report.aborts
    );
    println!(
        "  distinct ledgers    : {} (1 = every branch agrees)",
        report.distinct_states
    );
    assert!(report.acked > 50);
    assert_eq!(
        report.distinct_states, 1,
        "the books must balance on every replica"
    );
    // With certification there are no lost updates — conflicts abort.
    assert_eq!(
        report.lost_updates, 0,
        "the state machine must not lose updates"
    );
    println!("\nno lost updates: certification aborted every conflicting transfer.");
}

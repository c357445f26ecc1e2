//! Shared fixtures for the integration tests.
#![allow(dead_code)] // each test binary uses a different subset

pub mod instances;
pub mod stream;

use bcdb_chain::bitcoin_catalog;
use bcdb_core::BlockchainDb;
use bcdb_storage::{tuple, RelationId, Tuple};

/// 1 bitcoin in satoshis.
pub const BTC: i64 = 100_000_000;

/// Converts a (small) BTC amount to satoshis exactly.
pub fn btc(x: f64) -> i64 {
    (x * BTC as f64).round() as i64
}

fn txout(txid: &str, ser: i64, pk: &str, amount: i64) -> Tuple {
    tuple![txid, ser, pk, amount]
}

fn txin(prev: &str, pser: i64, pk: &str, amount: i64, new: &str, sig: &str) -> Tuple {
    tuple![prev, pser, pk, amount, new, sig]
}

/// Builds the paper's Figure 2 blockchain database exactly: the simplified
/// Bitcoin schema and constraints of Example 1, the current state, and the
/// five pending transactions T1..T5.
pub fn figure2() -> (BlockchainDb, RelationId, RelationId) {
    let (catalog, constraints) = bitcoin_catalog();
    let out = catalog.resolve("TxOut").unwrap();
    let inp = catalog.resolve("TxIn").unwrap();
    let mut db = BlockchainDb::new(catalog, constraints);

    for t in [
        txout("1", 1, "U1Pk", btc(1.0)),
        txout("2", 1, "U1Pk", btc(1.0)),
        txout("2", 2, "U2Pk", btc(4.0)),
        txout("3", 1, "U3Pk", btc(1.0)),
        txout("3", 2, "U4Pk", btc(0.5)),
        txout("3", 3, "U1Pk", btc(0.5)),
    ] {
        db.insert_current(out, t).unwrap();
    }
    for t in [
        txin("1", 1, "U1Pk", btc(1.0), "3", "U1Sig"),
        txin("2", 1, "U1Pk", btc(1.0), "3", "U1Sig"),
    ] {
        db.insert_current(inp, t).unwrap();
    }

    db.add_transaction(
        "T1",
        [
            (inp, txin("2", 2, "U2Pk", btc(4.0), "4", "U2Sig")),
            (out, txout("4", 1, "U5Pk", btc(1.0))),
            (out, txout("4", 2, "U2Pk", btc(3.0))),
        ],
    )
    .unwrap();
    db.add_transaction(
        "T2",
        [
            (inp, txin("4", 2, "U2Pk", btc(3.0), "5", "U2Sig")),
            (out, txout("5", 1, "U4Pk", btc(3.0))),
        ],
    )
    .unwrap();
    db.add_transaction(
        "T3",
        [
            (inp, txin("3", 3, "U1Pk", btc(0.5), "6", "U1Sig")),
            (out, txout("6", 1, "U4Pk", btc(0.5))),
        ],
    )
    .unwrap();
    db.add_transaction(
        "T4",
        [
            (inp, txin("6", 1, "U4Pk", btc(0.5), "7", "U4Sig")),
            (inp, txin("5", 1, "U4Pk", btc(3.0), "7", "U4Sig")),
            (out, txout("7", 1, "U7Pk", btc(2.5))),
            (out, txout("7", 2, "U8Pk", btc(1.0))),
        ],
    )
    .unwrap();
    db.add_transaction(
        "T5",
        [
            (inp, txin("2", 2, "U2Pk", btc(4.0), "8", "U2Sig")),
            (out, txout("8", 1, "U7Pk", btc(4.0))),
        ],
    )
    .unwrap();
    (db, out, inp)
}

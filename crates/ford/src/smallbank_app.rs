//! SmallBank on the FORD transaction engine.

use std::rc::Rc;

use smart::SmartCoro;
use smart_rnic::{MemoryBlade, RemoteAddr};
use smart_workloads::smallbank::SmallBankTxn;

use crate::dtx::{DtxDb, DtxError, DtxStats, RecordId};

const SAVINGS: usize = 0;
const CHECKING: usize = 1;

fn enc(v: i64) -> Vec<u8> {
    v.to_le_bytes().to_vec()
}

fn dec(payload: &[u8]) -> i64 {
    i64::from_le_bytes(payload[0..8].try_into().expect("8-byte balance"))
}

/// The SmallBank database: savings + checking tables over the blades.
pub struct SmallBank {
    db: Rc<DtxDb>,
    accounts: u64,
}

impl std::fmt::Debug for SmallBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmallBank")
            .field("accounts", &self.accounts)
            .finish()
    }
}

impl SmallBank {
    /// Creates and loads the bank with `initial` cents in each of the two
    /// balances of every account.
    pub fn create(blades: &[Rc<MemoryBlade>], accounts: u64, initial: i64) -> Rc<Self> {
        let db = DtxDb::create(
            blades,
            &[("savings", accounts, 8), ("checking", accounts, 8)],
        );
        for a in 0..accounts {
            db.load_record(
                RecordId {
                    table: SAVINGS,
                    key: a,
                },
                &enc(initial),
            );
            db.load_record(
                RecordId {
                    table: CHECKING,
                    key: a,
                },
                &enc(initial),
            );
        }
        Rc::new(SmallBank { db, accounts })
    }

    /// The underlying transaction engine.
    pub fn db(&self) -> &Rc<DtxDb> {
        &self.db
    }

    /// Commit/abort statistics.
    pub fn stats(&self) -> &DtxStats {
        self.db.stats()
    }

    /// Number of accounts.
    pub fn accounts(&self) -> u64 {
        self.accounts
    }

    /// Executes one transaction attempt.
    ///
    /// # Errors
    ///
    /// Propagates the engine's abort reasons; the caller retries.
    pub async fn execute(
        &self,
        coro: &SmartCoro,
        log: RemoteAddr,
        txn: &SmallBankTxn,
    ) -> Result<(), DtxError> {
        let _op = coro.op_scope_named("dtx_txn").await;
        let mut t = self.db.begin(coro, log);
        match *txn {
            SmallBankTxn::Amalgamate { from, to } => {
                let sv = RecordId {
                    table: SAVINGS,
                    key: from,
                };
                let cf = RecordId {
                    table: CHECKING,
                    key: from,
                };
                let ct = RecordId {
                    table: CHECKING,
                    key: to,
                };
                let vals = t.fetch(&[sv, cf, ct]).await?;
                let total = dec(&vals[0]) + dec(&vals[1]);
                t.stage(sv, enc(0));
                t.stage(cf, enc(0));
                t.stage(ct, enc(dec(&vals[2]) + total));
            }
            SmallBankTxn::Balance { account } => {
                let sv = RecordId {
                    table: SAVINGS,
                    key: account,
                };
                let ck = RecordId {
                    table: CHECKING,
                    key: account,
                };
                t.fetch(&[sv, ck]).await?;
            }
            SmallBankTxn::DepositChecking { account, amount } => {
                let ck = RecordId {
                    table: CHECKING,
                    key: account,
                };
                let vals = t.fetch(&[ck]).await?;
                t.stage(ck, enc(dec(&vals[0]) + amount));
            }
            SmallBankTxn::SendPayment { from, to, amount } => {
                let cf = RecordId {
                    table: CHECKING,
                    key: from,
                };
                let ct = RecordId {
                    table: CHECKING,
                    key: to,
                };
                let vals = t.fetch(&[cf, ct]).await?;
                let bal = dec(&vals[0]);
                if bal >= amount {
                    t.stage(cf, enc(bal - amount));
                    t.stage(ct, enc(dec(&vals[1]) + amount));
                }
                // Insufficient funds: commits as a read-only no-op.
            }
            SmallBankTxn::TransactSavings { account, amount } => {
                let sv = RecordId {
                    table: SAVINGS,
                    key: account,
                };
                let vals = t.fetch(&[sv]).await?;
                let new = dec(&vals[0]) + amount;
                if new >= 0 {
                    t.stage(sv, enc(new));
                }
            }
            SmallBankTxn::WriteCheck { account, amount } => {
                let sv = RecordId {
                    table: SAVINGS,
                    key: account,
                };
                let ck = RecordId {
                    table: CHECKING,
                    key: account,
                };
                let vals = t.fetch(&[sv, ck]).await?;
                let total = dec(&vals[0]) + dec(&vals[1]);
                let penalty = if total < amount { 1 } else { 0 };
                t.stage(ck, enc(dec(&vals[1]) - amount - penalty));
            }
        }
        t.commit().await
    }

    /// `smart-check` conservation invariant: at quiescence the bank-wide
    /// sum must equal `expected_total` and no record lock may remain held.
    /// Panics inside [`Self::total_money`] (a leaked lock) are converted
    /// into findings so schedule exploration can report them instead of
    /// aborting.
    pub fn conservation_violations(&self, expected_total: i64) -> Vec<String> {
        let total =
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.total_money())) {
                Ok(total) => total,
                Err(e) => {
                    let msg = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "balance scan panicked".to_string());
                    return vec![format!("bank state unreadable at rest: {msg}")];
                }
            };
        if total == expected_total {
            Vec::new()
        } else {
            vec![format!(
                "total money {total} != expected {expected_total} at quiescence"
            )]
        }
    }

    /// Host-side sum of every balance (invariant checking).
    pub fn total_money(&self) -> i64 {
        let mut sum = 0i64;
        for table in [SAVINGS, CHECKING] {
            for a in 0..self.accounts {
                let (lock, _v, payload) = self.db.read_record_direct(RecordId { table, key: a });
                assert_eq!(lock, 0, "no lock may remain held at rest");
                sum += dec(&payload);
            }
        }
        sum
    }
}

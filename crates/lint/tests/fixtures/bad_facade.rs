//! Direct `std::sync` use in a file the model checker requires to go
//! through the `dla_sync` facade.  The corpus scans this content under the
//! health ledger's workspace path to pin the facade list.

use std::sync::Mutex;

pub struct FixtureLedger {
    table: Mutex<u64>,
}

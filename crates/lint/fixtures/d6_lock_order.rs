//! Seeded D6 fixture: a lock acquired while it is held, in one function
//! and across a call.

use scalewall_sim::sync::RwLock;

struct Catalog {
    tables: RwLock<u32>,
}

impl Catalog {
    /// Nested same-lock acquire: `write` then `read` while still held —
    /// self-deadlock on the non-reentrant shim locks.
    fn nested(&self) {
        let w = self.tables.write();
        let r = self.tables.read();
        let _ = (w, r);
    }

    /// The same re-entry through a call.
    fn held_across_call(&self) {
        let w = self.tables.write();
        self.count();
        let _ = w;
    }

    fn count(&self) -> u32 {
        *self.tables.read()
    }
}

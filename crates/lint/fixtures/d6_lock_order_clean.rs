//! Clean pair for the D6 fixture: guards dropped before re-acquiring,
//! directly and before a call that acquires again.

use scalewall_sim::sync::RwLock;

struct Catalog {
    tables: RwLock<u32>,
}

impl Catalog {
    fn sequential(&self) {
        let w = self.tables.write();
        drop(w);
        let r = self.tables.read();
        let _ = r;
    }

    fn dropped_before_call(&self, recount: bool) {
        let w = self.tables.write();
        drop(w);
        if recount {
            self.count();
        }
    }

    fn count(&self) -> u32 {
        *self.tables.read()
    }
}

//! Cluster-wide table metadata.
//!
//! The catalog holds what every node and proxy must agree on: each
//! table's schema, its *current* partition count (dynamic, §IV-B), its
//! row→partition mapping, and the shard-mapping function. It also
//! maintains the inverted index shard → partitions, which `addShard`
//! implementations use to discover "all table partitions that map to the
//! shard being migrated" (§IV-E) and to run the collision veto.

use std::collections::BTreeMap;
use std::sync::Arc;

use scalewall_sim::hash::{fnv1a_word, FNV_OFFSET};
use scalewall_sim::sync::RwLock;

use crate::error::{CubrickError, CubrickResult};
use crate::schema::Schema;
use crate::sharding::{fnv1a, ShardMapping, PARTITION_SEP};
use crate::value::{Row, Value};

/// How ingested rows are assigned to table partitions: "according to some
/// deterministic function or randomly" (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowMapping {
    /// Hash of all dimension values (deterministic, co-locates identical
    /// keys).
    Hash,
    /// Uniform random (best skew properties for append-only workloads).
    Random,
}

/// Default partition count for new tables: "a good starting point is to
/// use 8 partitions for every newly created table" (§IV-B).
pub const DEFAULT_PARTITIONS: u32 = 8;

/// One table's registration.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub name: Arc<str>,
    pub schema: Arc<Schema>,
    pub partitions: u32,
    pub row_mapping: RowMapping,
    pub shard_mapping: ShardMapping,
}

impl TableDef {
    /// Shard for one of this table's partitions.
    pub fn shard_of(&self, partition: u32, max_shards: u64) -> u64 {
        self.shard_mapping
            .shard_of(&self.name, partition, max_shards)
    }

    /// The partition a row belongs to.
    ///
    /// `entropy` feeds the `Random` mapping (callers pass an RNG draw so
    /// the catalog itself stays deterministic and stateless).
    pub fn partition_of_row(&self, row: &Row, entropy: u64) -> u32 {
        match self.row_mapping {
            RowMapping::Random => (entropy % self.partitions as u64) as u32,
            RowMapping::Hash => {
                let mut h = FNV_OFFSET;
                for v in &row.dims {
                    let piece = match v {
                        Value::Int(x) => fnv1a(&x.to_le_bytes()),
                        Value::Str(s) => fnv1a(s.as_bytes()),
                        Value::Double(d) => fnv1a(&d.to_bits().to_le_bytes()),
                        Value::Null => 0,
                    };
                    h = fnv1a_word(h, piece);
                }
                (h % self.partitions as u64) as u32
            }
        }
    }

    /// `rows` split by partition (index = partition), row order kept.
    /// `entropy` is drawn once per row, in row order, whatever the
    /// mapping: the draw order every caller's replay depends on.
    pub fn route_rows<'a>(
        &self,
        rows: &'a [Row],
        mut entropy: impl FnMut() -> u64,
    ) -> Vec<Vec<&'a Row>> {
        let mut routed = vec![Vec::new(); self.partitions as usize];
        for row in rows {
            routed[self.partition_of_row(row, entropy()) as usize].push(row);
        }
        routed
    }
}

/// The metadata store.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<Arc<str>, TableDef>,
    max_shards: u64,
    /// Inverted index: shard → (table, partition) pairs mapped to it.
    shard_index: BTreeMap<u64, Vec<(Arc<str>, u32)>>,
    /// Bumped by every write to `shard_index` ([`Self::generation`]).
    generation: u64,
}

impl Catalog {
    /// `max_shards` is the SM key-space size shared by all tables
    /// ("between 100k and 1M total shards", §IV-A).
    pub fn new(max_shards: u64) -> Self {
        assert!(max_shards > 0);
        Catalog {
            tables: BTreeMap::new(),
            max_shards,
            shard_index: BTreeMap::new(),
            generation: 0,
        }
    }

    pub fn max_shards(&self) -> u64 {
        self.max_shards
    }

    /// Moves whenever the shard index does (a table created, dropped or
    /// re-partitioned): equal generations mean every
    /// [`partitions_of_shard`](Self::partitions_of_shard) answers as it did.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Register a table. Rejects duplicate names and names containing the
    /// reserved `#` separator.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Arc<Schema>,
        partitions: u32,
        row_mapping: RowMapping,
        shard_mapping: ShardMapping,
    ) -> CubrickResult<TableDef> {
        if name.is_empty() || name.contains(PARTITION_SEP) {
            return Err(CubrickError::Internal {
                detail: format!("invalid table name {name:?} ('#' is reserved)"),
            });
        }
        if partitions == 0 || partitions as u64 > self.max_shards {
            return Err(CubrickError::Internal {
                detail: format!(
                    "partition count {partitions} outside [1, {}]",
                    self.max_shards
                ),
            });
        }
        let name: Arc<str> = Arc::from(name);
        if self.tables.contains_key(&name) {
            return Err(CubrickError::TableExists {
                table: name.to_string(),
            });
        }
        let def = TableDef {
            name: name.clone(),
            schema,
            partitions,
            row_mapping,
            shard_mapping,
        };
        self.index_table(&def);
        self.tables.insert(name, def.clone());
        Ok(def)
    }

    fn index_table(&mut self, def: &TableDef) {
        self.generation += 1;
        for p in 0..def.partitions {
            let shard = def.shard_of(p, self.max_shards);
            self.shard_index
                .entry(shard)
                .or_default()
                .push((def.name.clone(), p));
        }
    }

    fn unindex_table(&mut self, def: &TableDef) {
        self.generation += 1;
        for p in 0..def.partitions {
            let shard = def.shard_of(p, self.max_shards);
            if let Some(entries) = self.shard_index.get_mut(&shard) {
                entries.retain(|(t, pp)| !(t == &def.name && *pp == p));
                if entries.is_empty() {
                    self.shard_index.remove(&shard);
                }
            }
        }
    }

    pub fn drop_table(&mut self, name: &str) -> CubrickResult<TableDef> {
        let def = self
            .tables
            .remove(name)
            .ok_or_else(|| CubrickError::NoSuchTable {
                table: name.to_string(),
            })?;
        self.unindex_table(&def);
        Ok(def)
    }

    pub fn get(&self, name: &str) -> CubrickResult<&TableDef> {
        self.tables
            .get(name)
            .ok_or_else(|| CubrickError::NoSuchTable {
                table: name.to_string(),
            })
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Change a table's partition count (re-partition, §IV-B). The data
    /// shuffle is performed by [`crate::repartition`]; this only swaps the
    /// metadata and re-indexes shards. Returns the old definition.
    pub fn set_partitions(&mut self, name: &str, partitions: u32) -> CubrickResult<TableDef> {
        if partitions == 0 || partitions as u64 > self.max_shards {
            return Err(CubrickError::Internal {
                detail: format!(
                    "partition count {partitions} outside [1, {}]",
                    self.max_shards
                ),
            });
        }
        let old = self.get(name)?.clone();
        self.unindex_table(&old);
        let new = TableDef {
            partitions,
            ..old.clone()
        };
        self.index_table(&new);
        self.tables.insert(new.name.clone(), new);
        Ok(old)
    }

    /// All `(table, partition)` pairs mapped to a shard. Empty for
    /// unoccupied shards.
    pub fn partitions_of_shard(&self, shard: u64) -> &[(Arc<str>, u32)] {
        self.shard_index
            .get(&shard)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The distinct shards a table occupies.
    pub fn shards_of_table(&self, name: &str) -> CubrickResult<Vec<u64>> {
        let def = self.get(name)?;
        Ok(def
            .shard_mapping
            .shards_of_table(&def.name, def.partitions, self.max_shards))
    }
}

/// The catalog as shared by nodes, proxies and drivers.
pub type SharedCatalog = Arc<RwLock<Catalog>>;

/// Convenience constructor for a shared catalog.
pub fn shared_catalog(max_shards: u64) -> SharedCatalog {
    Arc::new(RwLock::new(Catalog::new(max_shards)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    fn schema() -> Arc<Schema> {
        Arc::new(
            SchemaBuilder::new()
                .int_dim("a", 0, 10, 1)
                .metric("m")
                .build()
                .unwrap(),
        )
    }

    fn catalog() -> Catalog {
        Catalog::new(100_000)
    }

    #[test]
    fn create_get_drop() {
        let mut c = catalog();
        c.create_table("t", schema(), 8, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("t").unwrap().partitions, 8);
        assert!(matches!(c.get("x"), Err(CubrickError::NoSuchTable { .. })));
        assert!(matches!(
            c.create_table("t", schema(), 8, RowMapping::Hash, ShardMapping::Monotonic),
            Err(CubrickError::TableExists { .. })
        ));
        c.drop_table("t").unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn rejects_reserved_names_and_bad_counts() {
        let mut c = catalog();
        assert!(c
            .create_table(
                "a#b",
                schema(),
                8,
                RowMapping::Hash,
                ShardMapping::Monotonic
            )
            .is_err());
        assert!(c
            .create_table("", schema(), 8, RowMapping::Hash, ShardMapping::Monotonic)
            .is_err());
        assert!(c
            .create_table("t", schema(), 0, RowMapping::Hash, ShardMapping::Monotonic)
            .is_err());
        let mut small = Catalog::new(4);
        assert!(small
            .create_table("t", schema(), 5, RowMapping::Hash, ShardMapping::Monotonic)
            .is_err());
    }

    #[test]
    fn shard_index_tracks_tables() {
        let mut c = catalog();
        let def = c
            .create_table("t", schema(), 4, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        let shards = c.shards_of_table("t").unwrap();
        assert_eq!(shards.len(), 4);
        for (p, &s) in shards.iter().enumerate() {
            let entries = c.partitions_of_shard(s);
            assert!(entries.contains(&(def.name.clone(), p as u32)));
        }
        c.drop_table("t").unwrap();
        for s in shards {
            assert!(c.partitions_of_shard(s).is_empty());
        }
    }

    #[test]
    fn repartition_reindexes() {
        let mut c = catalog();
        c.create_table("t", schema(), 8, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        let before = c.shards_of_table("t").unwrap();
        let old = c.set_partitions("t", 16).unwrap();
        assert_eq!(old.partitions, 8);
        let after = c.shards_of_table("t").unwrap();
        assert_eq!(after.len(), 16);
        // Monotonic mapping keeps the same base: prefix unchanged.
        assert_eq!(&after[..8], &before[..]);
        // Old-only shards were unindexed, new ones indexed.
        for &s in &after {
            assert!(!c.partitions_of_shard(s).is_empty());
        }
    }

    #[test]
    fn hash_row_mapping_is_deterministic_and_spread() {
        let mut c = catalog();
        let def = c
            .create_table("t", schema(), 8, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        let row = Row::new(vec![Value::Int(5)], vec![1.0]);
        assert_eq!(
            def.partition_of_row(&row, 0),
            def.partition_of_row(&row, 99)
        );
        // Different keys spread over partitions.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10 {
            let row = Row::new(vec![Value::Int(i)], vec![1.0]);
            seen.insert(def.partition_of_row(&row, 0));
        }
        assert!(
            seen.len() >= 4,
            "10 keys landed in {} partitions",
            seen.len()
        );
    }

    #[test]
    fn random_row_mapping_uses_entropy() {
        let mut c = catalog();
        let def = c
            .create_table(
                "t",
                schema(),
                8,
                RowMapping::Random,
                ShardMapping::Monotonic,
            )
            .unwrap();
        let row = Row::new(vec![Value::Int(5)], vec![1.0]);
        assert_eq!(def.partition_of_row(&row, 3), 3);
        assert_eq!(def.partition_of_row(&row, 11), 3);
        assert_eq!(def.partition_of_row(&row, 12), 4);
    }

    #[test]
    fn cross_table_partition_collisions_visible_in_index() {
        // Tiny shard space forces different tables onto shared shards.
        let mut c = Catalog::new(4);
        c.create_table("a", schema(), 4, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        c.create_table("b", schema(), 4, RowMapping::Hash, ShardMapping::Monotonic)
            .unwrap();
        let mut shared = 0;
        for s in 0..4 {
            let tables: std::collections::HashSet<&str> = c
                .partitions_of_shard(s)
                .iter()
                .map(|(t, _)| t.as_ref())
                .collect();
            if tables.len() > 1 {
                shared += 1;
            }
        }
        assert_eq!(shared, 4, "both tables occupy all 4 shards");
    }
}

//! Allocation budget of a wide group-by: a partial is a handful of flat
//! buffers, each sized once, so scanning and merging eight times the
//! groups costs no more allocator requests at all, let alone an object
//! per group. A representation change that brings per-group allocations
//! or `Vec` doublings back fails here, not in a benchmark a few PRs
//! later.
//!
//! Its own test binary, because the counter is the process's
//! `#[global_allocator]` (std only; the one `unsafe impl` the workspace
//! has, under the `expect` below), and one `#[test]`, so nothing else
//! allocates while it counts.

#![expect(unsafe_code, reason = "a counting `#[global_allocator]` is an `unsafe impl GlobalAlloc` by definition")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use scalewall::cubrick::query::{execute_partition, parse_query, PartialResult};
use scalewall::cubrick::schema::SchemaBuilder;
use scalewall::cubrick::store::PartitionData;
use scalewall::cubrick::value::{Row, Value};

/// `System`, counting every request for a new or a larger block.
struct Counting;

static REQUESTS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns; the counter is a relaxed atomic that
// publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, under `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PARTITIONS: usize = 4;
const ROWS_PER_GROUP: usize = 6;

/// `PARTITIONS` loaded partitions, every one holding every entity.
fn partitions(entities: usize) -> Vec<PartitionData> {
    let schema = Arc::new(
        SchemaBuilder::new()
            .int_dim("ds", 0, 365, 15)
            .str_dim("entity", 10_000, 500)
            .metric("clicks")
            .metric("cost")
            .build()
            .unwrap(),
    );
    (0..PARTITIONS)
        .map(|p| {
            let mut partition = PartitionData::new(schema.clone());
            for i in 0..entities * ROWS_PER_GROUP {
                let entity = format!("e{}", (i * 7 + p) % entities);
                let dims = vec![Value::Int((i % 365) as i64), Value::Str(entity)];
                partition
                    .ingest(&Row::new(dims, vec![i as f64, 0.5]))
                    .unwrap();
            }
            partition
        })
        .collect()
}

/// Allocator requests of one warm `group by entity`: a scan of every
/// partition and the merge of their partials (no `finalize`: output rows
/// are three objects a group by their public shape).
fn requests(partitions: &mut [PartitionData], entities: usize) -> usize {
    let query = parse_query("select sum(clicks), avg(cost) from t group by entity").unwrap();
    let scan = |partitions: &mut [PartitionData]| -> Vec<PartialResult> {
        let each = partitions.iter_mut();
        each.map(|p| execute_partition(p, &query, PARTITIONS as u32).unwrap())
            .collect()
    };
    // Once unmeasured: the dictionary's rank tables are built on first use.
    drop(scan(partitions));

    let before = REQUESTS.load(Ordering::Relaxed);
    let merged = PartialResult::merge_all(scan(partitions)).unwrap().unwrap();
    let after = REQUESTS.load(Ordering::Relaxed);
    assert_eq!(merged.groups().len(), entities);
    assert_eq!(
        merged.rows_scanned as usize,
        PARTITIONS * entities * ROWS_PER_GROUP
    );
    after - before
}

#[test]
fn group_by_allocations_do_not_scale_with_groups() {
    let narrow = requests(&mut partitions(250), 250);
    let wide = requests(&mut partitions(2_000), 2_000);
    println!("allocator requests: {narrow} at 250 groups a partition, {wide} at 2000");
    // Every buffer that grows with the groups is sized before it fills:
    // the scan's accumulator columns to the key domain, the present-key
    // list to the rows scanned, the partial's key columns (string bytes
    // included) and state arena to the groups found, and the merge's to
    // its largest input. 83 requests at both sizes when this was written.
    assert!(
        wide <= narrow,
        "{wide} requests at 2000 groups against {narrow} at 250"
    );
    // And nowhere near one per group, let alone the three per group per
    // partition of a map of decoded keys.
    assert!(wide < 2_000 / 4, "{wide} requests for 2000 groups");
}

//! Allocation budget of storage: a hot brick is two flat buffers whatever
//! the schema's width, and a dictionary keeps its strings in one arena.
//! So loading the same rows costs the same allocator requests under one
//! metric as under eight, and encoding sixteen times the strings costs a
//! few buffer doublings more, not a block per string; so does replicating
//! a slice that adds them to a second partition. A representation change
//! that brings a `Vec` per column or a `String` per entry back fails here,
//! not in a benchmark a few PRs later.
//!
//! Its own test binary, because the counter is the process's
//! `#[global_allocator]` (std only; an `unsafe impl`, under the `expect`
//! below), and one `#[test]`, so nothing else allocates while it counts.

#![expect(unsafe_code, reason = "a counting `#[global_allocator]` is an `unsafe impl GlobalAlloc` by definition")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use scalewall::cubrick::dictionary::Dictionary;
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

/// Allocator requests of `f`.
fn requests(f: impl FnOnce()) -> usize {
    let before = REQUESTS.load(Ordering::Relaxed);
    f();
    REQUESTS.load(Ordering::Relaxed) - before
}

/// Requests of ingesting 5,000 rows over two integer dimensions (a few
/// rows a brick) into a partition whose schema has `metrics` metrics.
fn load_requests(metrics: usize) -> usize {
    let mut schema = SchemaBuilder::new()
        .int_dim("ds", 0, 365, 15)
        .int_dim("app", 0, 1_000, 50);
    for m in 0..metrics {
        schema = schema.metric(&format!("m{m}"));
    }
    let mut partition = PartitionData::new(Arc::new(schema.build().unwrap()));
    let rows: Vec<Row> = (0..5_000)
        .map(|i| {
            let dims = vec![Value::Int(i % 365), Value::Int(i * 7 % 1_000)];
            Row::new(dims, vec![i as f64; metrics])
        })
        .collect();
    let refs: Vec<&Row> = rows.iter().collect();
    requests(|| partition.ingest_batch(&refs).unwrap())
}

/// Requests of encoding `n` distinct strings of one length.
fn encode_requests(n: usize) -> usize {
    let strings: Vec<String> = (0..n).map(|i| format!("s{i:05}")).collect();
    let mut dict = Dictionary::new(20_000);
    requests(|| {
        for s in &strings {
            dict.encode("entity", s).unwrap();
        }
    })
}

/// Requests of replicating a slice whose `n` rows each add a new string:
/// encoding it in one partition, then adopting its strings and appending
/// it in a second. The strings share one range, so each partition stores
/// the slice in one brick.
fn replicate_requests(n: usize) -> usize {
    let schema = SchemaBuilder::new()
        .str_dim("entity", 20_000, 20_000)
        .metric("m")
        .build()
        .unwrap();
    let mut encoder = PartitionData::new(Arc::new(schema));
    let mut replica = PartitionData::new(encoder.schema().clone());
    let rows: Vec<Row> = (0..n)
        .map(|i| Row::new(vec![Value::Str(format!("s{i:05}"))], vec![1.0]))
        .collect();
    let refs: Vec<&Row> = rows.iter().collect();
    requests(|| {
        let (batch, refused) = encoder.encode_batch(&refs);
        refused.unwrap();
        encoder.append_batch(&batch, &refs).unwrap();
        replica.adopt_strings(&batch).unwrap();
        replica.append_batch(&batch, &refs).unwrap();
    })
}

#[test]
fn storage_allocations_do_not_scale_with_width_or_strings() {
    let narrow = load_requests(1);
    let wide = load_requests(8);
    println!("allocator requests: {narrow} loading one metric, {wide} loading eight");
    // A brick's columns share one buffer per kind, so each growth of a
    // brick is two requests however many metrics there are.
    assert_eq!(wide, narrow, "eight metrics against one");

    let few = encode_requests(1_000);
    let many = encode_requests(16_000);
    println!("allocator requests: {few} encoding 1,000 strings, {many} encoding 16,000");
    // Three buffers that double (arena, end offsets, index): sixteen times
    // the strings is four more doublings of each, nothing per string.
    assert!(many <= few + 3 * 5, "{many} requests for 16,000 strings, {few} for 1,000");
    assert!(few < 1_000 / 10, "{few} requests for 1,000 strings");

    let few = replicate_requests(1_000);
    let many = replicate_requests(16_000);
    println!("allocator requests: {few} replicating 1,000 new strings, {many} replicating 16,000");
    // The batch carries the strings whole and the replica appends them in
    // one copy: the buffers that double are the encoding dictionary's
    // three and each brick's two, four more doublings of each.
    assert!(many <= few + 7 * 5, "{many} requests for 16,000 strings, {few} for 1,000");
    assert!(few < 1_000 / 10, "{few} requests for 1,000 strings");
}

//! Seeded D7 fixture: every panic-surface shape the audit flags —
//! unwrap, expect, the panic macro family, and literal indexing.

fn unwrap_and_expect(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect("present");
    a + b
}

fn panic_family(n: u32) -> u32 {
    match n {
        0 => panic!("boom"),
        1 => unreachable!(),
        2 => todo!(),
        _ => n,
    }
}

fn literal_index(v: &[u32]) -> u32 {
    v[0]
}

/// The array exemption is by declared type: a slice behind a local of
/// unstated type is as unbounded as the parameter it came from.
fn literal_index_into_untyped_local(v: &[u32]) -> u32 {
    let window = v;
    window[0]
}

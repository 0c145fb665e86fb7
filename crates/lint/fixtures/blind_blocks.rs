//! Blind-shape fixture: code the expression grammar of the v2 parser lost
//! (`pin_*`: a `!=` in a block head ended the condition early and the block
//! was read as a struct literal; a path pattern hid a `let … else` arm;
//! macro arguments had no index rule) beside shapes it always read
//! (`control_*`). A trailing `expect:` comment names the one rule that must
//! fire on its line; `tests/fixtures.rs` holds the file to its markers,
//! nothing more and nothing less.

use scalewall_sim::sync::Mutex;

enum E {
    A(u32),
    B,
}

fn pin_ne_in_if_head(a: u32, b: u32, x: &[u32]) {
    if a != b {
        x[0]; // expect: D7
    }
}

fn pin_ne_in_match_head(a: u32, b: u32, x: &[u32]) {
    match a != b {
        true => {
            x[0]; // expect: D7
        }
        false => {}
    }
}

fn pin_ne_in_closure(v: &[u32], o: u32) -> u32 {
    v.iter().filter(|&h| *h != o).collect::<Vec<_>>()[0] // expect: D7
}

fn pin_ne_head_over_tuple_let(g: (u32, u32), w: (u32, u32)) -> u32 {
    if g != w {
        let (a, b) = g;
        [a, b][0] // expect: D7
    }
}

fn pin_let_else_with_path_pattern(e: E, x: &[u32]) -> u32 {
    let E::A(n) = e else {
        x[0]; // expect: D7
        return 0;
    };
    n
}

fn pin_index_in_macro_arguments(a: &[u32]) {
    assert!(a[0] == 1); // expect: D7
}

/// Panics on an empty slice; the v2 parser flagged it and so must this.
fn pin_open_range_from_literal(v: &[u32]) -> &[u32] {
    &v[1..] // expect: D7
}

struct Locks {
    m: Mutex<u8>,
}

impl Locks {
    fn pin_ne_head_over_nested_acquire(&self, a: u32, b: u32) {
        if a != b {
            let g = self.m.lock();
            let h = self.m.lock(); // expect: D6
            let _ = (g, h);
        }
    }
}

// ---------------------------------------------------------------- controls

fn control_let_else_simple_pattern(e: Option<u32>, x: &[u32]) -> u32 {
    let Some(n) = e else {
        x[0]; // expect: D7
        return 0;
    };
    n
}

fn control_match_guard_arms(e: E, x: &[u32]) -> u32 {
    match e {
        E::A(n) if n > 2 => x[0], // expect: D7
        E::A(n) if n != 1 => {
            x[1] // expect: D7
        }
        _ => 0,
    }
}

fn control_while_let(mut it: std::vec::IntoIter<Vec<u32>>) {
    while let Some(x) = it.next() {
        x[0]; // expect: D7
    }
}

fn control_closures(v: &[Vec<u32>]) -> u32 {
    let block = |x: &Vec<u32>| {
        x[0] // expect: D7
    };
    let typed = |x: &Vec<u32>| -> u32 { x[0] }; // expect: D7
    v.iter().map(block).sum::<u32>() + v.iter().map(typed).sum::<u32>()
}

fn control_casts_and_shifts_in_heads(a: u32, b: u64, x: &[u32]) {
    if a as u64 > b {
        x[0]; // expect: D7
    }
    if a << 2 > a {
        x[0]; // expect: D7
    }
}

fn control_labelled_loops(x: &[u32]) {
    'outer: loop {
        'inner: for _ in 0..2 {
            x[0]; // expect: D7
            break 'inner;
        }
        break 'outer;
    }
}

fn control_nested_fn(x: &[u32]) -> u32 {
    fn inner(y: &[u32]) -> u32 {
        y[0] // expect: D7
    }
    inner(x)
}

fn control_impl_fn_param(f: impl Fn(u32) -> u32, x: &[u32]) -> u32 {
    f(x[0]) // expect: D7
}

fn control_where_clause<T>(t: &[T]) -> T
where
    T: Clone + PartialOrd<T>,
{
    t[0].clone() // expect: D7
}

fn control_question_mark_then_closure(x: Option<Option<u32>>) -> Option<u32> {
    x?.map(|v| {
        [v][0] // expect: D7
    })
}

impl Locks {
    /// A block-like statement ends at its brace: the `let` after it still
    /// binds a guard, so the second acquire nests.
    fn control_guard_bound_after_a_block(&self, c: bool) {
        if c {}
        let g = self.m.lock();
        let h = self.m.lock(); // expect: D6
        let _ = (g, h);
    }
}

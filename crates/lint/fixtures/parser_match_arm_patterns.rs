//! Parser-coverage fixture: valid code whose shape once made the parser
//! lose count of a brace, after which the rest of the file was neither
//! parsed nor token-scanned (`PartitionData::encode_dims` hid ten
//! functions of `cubrick/src/store.rs` this way). Clean under every
//! rule; the tests hold it to the coverage invariant and plant a canary
//! in every function.

enum Kind {
    Int { min: i64, max: i64 },
    Str { max_cardinality: u32 },
}

enum Val {
    Int(i64),
    Str(String),
}

struct Refused {
    position: usize,
    expected: &'static str,
}

struct Encoder {
    kinds: Vec<Kind>,
    seen: Vec<String>,
}

impl Encoder {
    /// A block-bodied arm followed by an arm whose pattern opens with `(`
    /// (not a call of the block) and holds `Path { .. }` (not a
    /// struct-update base).
    fn encode(&mut self, vals: &[Val]) -> Result<Vec<u32>, Refused> {
        let mut out = Vec::new();
        for (position, (v, kind)) in vals.iter().zip(&self.kinds).enumerate() {
            let ord = match (v, kind) {
                (Val::Int(x), Kind::Int { min, .. }) => (*x - *min) as u32,
                (Val::Str(s), Kind::Str { .. }) => {
                    self.seen.push(s.clone());
                    self.seen.len() as u32
                }
                (_, Kind::Int { .. }) => {
                    return Err(Refused {
                        position,
                        expected: "int",
                    })
                }
                (_, Kind::Str { .. }) => {
                    return Err(Refused {
                        position,
                        expected: "string",
                    })
                }
            };
            out.push(ord);
        }
        Ok(out)
    }

    fn after_the_match(&self) -> usize {
        self.seen.len()
    }
}

/// A block-like statement followed by a parenthesised one.
fn statement_then_parens(flag: bool, pair: (u32, u32)) -> u32 {
    if flag {
        return 0;
    }
    (pair.0, pair.1).1
}

/// `match` in statement position followed by an array expression.
fn statement_then_brackets(kind: &Kind) -> u32 {
    match kind {
        Kind::Int { .. } => {}
        Kind::Str { .. } => {}
    }
    [1, 2, 3].len() as u32
}

fn after_everything() -> u32 {
    7
}

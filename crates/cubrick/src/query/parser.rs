//! The textual query dialect.
//!
//! A small SQL subset covering the OLAP shape Cubrick serves:
//!
//! ```text
//! SELECT sum(clicks), count(*)
//! FROM   ad_events
//! WHERE  country = 'US' AND ds BETWEEN 20 AND 40 AND app IN ('a', 'b')
//! GROUP BY country, ds
//! ORDER BY sum(clicks) DESC
//! LIMIT 10
//! ```
//!
//! Hand-rolled tokenizer + recursive descent; keywords are
//! case-insensitive, identifiers are case-sensitive.

use crate::error::{CubrickError, CubrickResult};
use crate::query::agg::{AggFunc, AggSpec};
use crate::query::expr::{PredOp, Predicate};
use crate::query::{OrderBy, OrderTarget, Query};
use crate::value::Value;

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Star,
    Eq,
}

struct Tokenizer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(src: &'a str) -> Self {
        Tokenizer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, detail: impl Into<String>) -> CubrickError {
        CubrickError::Parse {
            detail: detail.into(),
            position: self.pos,
        }
    }

    fn tokenize(mut self) -> CubrickResult<Vec<(Token, usize)>> {
        let mut out = Vec::new();
        while self.pos < self.bytes.len() {
            let start = self.pos;
            let c = self.bytes[self.pos];
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => {
                    self.pos += 1;
                }
                b'(' => {
                    out.push((Token::LParen, start));
                    self.pos += 1;
                }
                b')' => {
                    out.push((Token::RParen, start));
                    self.pos += 1;
                }
                b',' => {
                    out.push((Token::Comma, start));
                    self.pos += 1;
                }
                b'*' => {
                    out.push((Token::Star, start));
                    self.pos += 1;
                }
                b'=' => {
                    out.push((Token::Eq, start));
                    self.pos += 1;
                }
                b'\'' => {
                    self.pos += 1;
                    let str_start = self.pos;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\'' {
                        self.pos += 1;
                    }
                    if self.pos >= self.bytes.len() {
                        return Err(self.error("unterminated string literal"));
                    }
                    out.push((Token::Str(self.src[str_start..self.pos].to_string()), start));
                    self.pos += 1; // closing quote
                }
                b'0'..=b'9' | b'-' | b'+' => {
                    self.pos += 1;
                    let mut is_float = false;
                    while self.pos < self.bytes.len() {
                        match self.bytes[self.pos] {
                            b'0'..=b'9' => self.pos += 1,
                            b'.' if !is_float => {
                                is_float = true;
                                self.pos += 1;
                            }
                            _ => break,
                        }
                    }
                    let text = &self.src[start..self.pos];
                    let token = if is_float {
                        Token::Float(
                            text.parse()
                                .map_err(|_| self.error(format!("bad number {text:?}")))?,
                        )
                    } else {
                        Token::Int(
                            text.parse()
                                .map_err(|_| self.error(format!("bad number {text:?}")))?,
                        )
                    };
                    out.push((token, start));
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    while self.pos < self.bytes.len()
                        && matches!(self.bytes[self.pos], b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_')
                    {
                        self.pos += 1;
                    }
                    out.push((Token::Ident(self.src[start..self.pos].to_string()), start));
                }
                other => {
                    return Err(self.error(format!("unexpected character {:?}", other as char)))
                }
            }
        }
        Ok(out)
    }
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
}

impl Parser {
    fn error(&self, detail: impl Into<String>) -> CubrickError {
        let position = self
            .tokens
            .get(self.pos)
            .map(|&(_, p)| p)
            .unwrap_or(usize::MAX);
        CubrickError::Parse {
            detail: detail.into(),
            position,
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> CubrickResult<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.error("unexpected end of query"))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, expected: &Token, what: &str) -> CubrickResult<()> {
        let t = self.next()?;
        if &t == expected {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {t:?}")))
        }
    }

    /// Consume a keyword (case-insensitive ident) or fail.
    fn keyword(&mut self, kw: &str) -> CubrickResult<()> {
        match self.next()? {
            Token::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.error(format!("expected {kw}, found {other:?}"))),
        }
    }

    /// Check whether the next token is the given keyword (without
    /// consuming on mismatch).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self, what: &str) -> CubrickResult<String> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    fn literal(&mut self) -> CubrickResult<Value> {
        match self.next()? {
            Token::Int(v) => Ok(Value::Int(v)),
            Token::Float(v) => Ok(Value::Double(v)),
            Token::Str(s) => Ok(Value::Str(s)),
            other => Err(self.error(format!("expected literal, found {other:?}"))),
        }
    }

    fn agg(&mut self) -> CubrickResult<AggSpec> {
        let name = self.ident("aggregate function")?;
        let func = match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "avg" => AggFunc::Avg,
            other => return Err(self.error(format!("unknown aggregate {other:?}"))),
        };
        self.eat(&Token::LParen, "'('")?;
        let spec = match self.peek() {
            Some(Token::Star) => {
                self.next()?;
                if func != AggFunc::Count {
                    return Err(self.error(format!("{}(*) is not supported", func.name())));
                }
                AggSpec::count_star()
            }
            _ => {
                let metric = self.ident("metric name")?;
                AggSpec {
                    func,
                    metric: Some(metric),
                }
            }
        };
        self.eat(&Token::RParen, "')'")?;
        Ok(spec)
    }

    fn predicate(&mut self) -> CubrickResult<Predicate> {
        let dim = self.ident("dimension name")?;
        match self.next()? {
            Token::Eq => Ok(Predicate {
                dim,
                op: PredOp::Eq(self.literal()?),
            }),
            Token::Ident(kw) if kw.eq_ignore_ascii_case("in") => {
                self.eat(&Token::LParen, "'('")?;
                let mut values = vec![self.literal()?];
                while self.peek() == Some(&Token::Comma) {
                    self.next()?;
                    values.push(self.literal()?);
                }
                self.eat(&Token::RParen, "')'")?;
                Ok(Predicate {
                    dim,
                    op: PredOp::In(values),
                })
            }
            Token::Ident(kw) if kw.eq_ignore_ascii_case("between") => {
                let lo = match self.literal()? {
                    Value::Int(v) => v,
                    _ => return Err(self.error("BETWEEN bounds must be integers")),
                };
                self.keyword("and")?;
                let hi = match self.literal()? {
                    Value::Int(v) => v,
                    _ => return Err(self.error("BETWEEN bounds must be integers")),
                };
                Ok(Predicate {
                    dim,
                    op: PredOp::Between(lo, hi),
                })
            }
            other => Err(self.error(format!("expected '=', IN or BETWEEN, found {other:?}"))),
        }
    }

    fn query(&mut self) -> CubrickResult<Query> {
        self.keyword("select")?;
        let mut aggs = vec![self.agg()?];
        while self.peek() == Some(&Token::Comma) {
            self.next()?;
            aggs.push(self.agg()?);
        }
        self.keyword("from")?;
        let table = self.ident("table name")?;

        let mut predicates = Vec::new();
        if self.at_keyword("where") {
            self.next()?;
            predicates.push(self.predicate()?);
            while self.at_keyword("and") {
                self.next()?;
                predicates.push(self.predicate()?);
            }
        }

        let mut group_by = Vec::new();
        if self.at_keyword("group") {
            self.next()?;
            self.keyword("by")?;
            group_by.push(self.ident("dimension name")?);
            while self.peek() == Some(&Token::Comma) {
                self.next()?;
                group_by.push(self.ident("dimension name")?);
            }
        }

        let mut order_by = None;
        if self.at_keyword("order") {
            self.next()?;
            self.keyword("by")?;
            // Target: either an aggregate call matching one in the SELECT
            // list, or a group-by dimension name.
            let target = if let Some(Token::Ident(name)) = self.peek() {
                let lowered = name.to_ascii_lowercase();
                let is_agg = matches!(lowered.as_str(), "count" | "sum" | "min" | "max" | "avg")
                    && self.tokens.get(self.pos + 1).map(|(t, _)| t) == Some(&Token::LParen);
                if is_agg {
                    let spec = self.agg()?;
                    let idx = aggs.iter().position(|a| *a == spec).ok_or_else(|| {
                        self.error(format!(
                            "ORDER BY {} must appear in the SELECT list",
                            spec.label()
                        ))
                    })?;
                    OrderTarget::Agg(idx)
                } else {
                    let dim = self.ident("order-by column")?;
                    let idx = group_by.iter().position(|g| *g == dim).ok_or_else(|| {
                        self.error(format!("ORDER BY {dim:?} must be a GROUP BY column"))
                    })?;
                    OrderTarget::Dim(idx)
                }
            } else {
                return Err(self.error("expected ORDER BY target"));
            };
            let descending = if self.at_keyword("desc") {
                self.next()?;
                true
            } else {
                if self.at_keyword("asc") {
                    self.next()?;
                }
                false
            };
            order_by = Some(OrderBy { target, descending });
        }

        let mut limit = None;
        if self.at_keyword("limit") {
            self.next()?;
            match self.next()? {
                Token::Int(n) if n >= 0 => limit = Some(n as usize),
                other => return Err(self.error(format!("LIMIT expects a count, found {other:?}"))),
            }
        }

        if self.pos != self.tokens.len() {
            return Err(self.error("trailing tokens after query"));
        }
        Ok(Query {
            table,
            aggs,
            predicates,
            group_by,
            order_by,
            limit,
        })
    }
}

/// Parse query text into a [`Query`].
pub fn parse_query(text: &str) -> CubrickResult<Query> {
    let tokens = Tokenizer::new(text).tokenize()?;
    Parser { tokens, pos: 0 }.query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_query() {
        let q = parse_query("SELECT count(*) FROM t").unwrap();
        assert_eq!(q, Query::count_star("t"));
    }

    #[test]
    fn order_by_and_limit() {
        let q = parse_query(
            "select sum(clicks), count(*) from t group by app              order by sum(clicks) desc limit 10",
        )
        .unwrap();
        assert_eq!(
            q.order_by,
            Some(OrderBy {
                target: OrderTarget::Agg(0),
                descending: true
            })
        );
        assert_eq!(q.limit, Some(10));

        let q = parse_query("select count(*) from t group by app order by app asc").unwrap();
        assert_eq!(
            q.order_by,
            Some(OrderBy {
                target: OrderTarget::Dim(0),
                descending: false
            })
        );
        assert_eq!(q.limit, None);

        // Default direction is ascending.
        let q = parse_query("select count(*) from t group by app order by count(*)").unwrap();
        assert!(!q.order_by.unwrap().descending);

        // LIMIT without ORDER BY is allowed (caps the deterministic order).
        let q = parse_query("select count(*) from t limit 5").unwrap();
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn order_by_errors() {
        for bad in [
            "select count(*) from t order by sum(x)", // not in SELECT
            "select count(*) from t group by a order by b", // not grouped
            "select count(*) from t order by",        // missing target
            "select count(*) from t limit 'x'",       // bad limit
            "select count(*) from t limit -3",        // negative limit
        ] {
            let err = parse_query(bad).unwrap_err();
            assert!(
                matches!(err, CubrickError::Parse { .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn full_query() {
        let q = parse_query(
            "select sum(clicks), avg(cost), count(*) from ad_events \
             where country = 'US' and ds between 20 and 40 and app in ('a','b') \
             group by country, ds",
        )
        .unwrap();
        assert_eq!(q.table, "ad_events");
        assert_eq!(q.aggs.len(), 3);
        assert_eq!(q.aggs[0], AggSpec::new(AggFunc::Sum, "clicks"));
        assert_eq!(q.aggs[2], AggSpec::count_star());
        assert_eq!(q.predicates.len(), 3);
        assert_eq!(q.predicates[0], Predicate::eq("country", "US"));
        assert_eq!(q.predicates[1], Predicate::between("ds", 20, 40));
        assert_eq!(
            q.predicates[2],
            Predicate::is_in("app", vec![Value::Str("a".into()), Value::Str("b".into())])
        );
        assert_eq!(q.group_by, vec!["country", "ds"]);
    }

    #[test]
    fn keywords_case_insensitive_idents_not() {
        let q = parse_query("SeLeCt CoUnT(*) FrOm MyTable WHERE Dim = 1").unwrap();
        assert_eq!(q.table, "MyTable");
        assert_eq!(q.predicates[0].dim, "Dim");
    }

    #[test]
    fn numeric_literals() {
        let q = parse_query("select count(*) from t where a = -5 and b = 2.5").unwrap();
        assert_eq!(q.predicates[0].op, PredOp::Eq(Value::Int(-5)));
        assert_eq!(q.predicates[1].op, PredOp::Eq(Value::Double(2.5)));
    }

    #[test]
    fn error_cases() {
        for bad in [
            "",
            "select",
            "select frobnicate(x) from t",
            "select sum(*) from t",
            "select count(*) from t where",
            "select count(*) from t where a >< 3",
            "select count(*) from t where s = 'unterminated",
            "select count(*) from t group by",
            "select count(*) from t trailing",
            "select count(*) from t where a between 'x' and 3",
            "select count(*) from t where a in ()",
            "select count(*) @ t",
        ] {
            let err = parse_query(bad).unwrap_err();
            assert!(
                matches!(err, CubrickError::Parse { .. }),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn error_position_points_at_problem() {
        let err = parse_query("select count(*) from t junk").unwrap_err();
        match err {
            CubrickError::Parse { position, .. } => assert_eq!(position, 23),
            other => panic!("{other:?}"),
        }
    }
}

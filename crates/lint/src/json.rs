//! `scalewall-lint/v2` JSON report: a hand-written renderer and a strict
//! validator over the workspace codec (`scalewall_sim::json`), so
//! `scripts/verify.sh` can machine-check lint output.
//!
//! Schema (all keys required, no extras checked beyond these):
//!
//! ```json
//! {
//!   "schema": "scalewall-lint/v2",
//!   "files_scanned": 123,
//!   "violations": [ {"path": "...", "line": 7, "rule": "D5", "message": "..."} ],
//!   "pragmas":    [ {"path": "...", "line": 9, "rules": ["D2"], "reason": "...", "suppressed": 1} ],
//!   "summary":    { "violations": 0, "suppressed": 4, "pragmas": 4 }
//! }
//! ```
//!
//! The summary counts are redundant on purpose: the validator cross-checks
//! them against the arrays, so a truncated or hand-edited report fails
//! loudly instead of green-lighting a gate.

use scalewall_sim::json::{escape_into, parse, Json};

use crate::{RuleId, WorkspaceReport};

pub const SCHEMA: &str = "scalewall-lint/v2";

// ------------------------------------------------------------- writer

/// Render a workspace report as a `scalewall-lint/v2` document.
pub fn to_json(report: &WorkspaceReport) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("{\n  \"schema\": \"");
    s.push_str(SCHEMA);
    s.push_str("\",\n  \"files_scanned\": ");
    s.push_str(&report.files_scanned.to_string());
    s.push_str(",\n  \"violations\": [");
    let mut first = true;
    for f in &report.files {
        for v in &f.violations {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str("\n    {\"path\": ");
            escape_into(&f.path, &mut s);
            s.push_str(", \"line\": ");
            s.push_str(&v.line.to_string());
            s.push_str(", \"rule\": ");
            escape_into(&v.rule.to_string(), &mut s);
            s.push_str(", \"message\": ");
            escape_into(&v.message, &mut s);
            s.push('}');
        }
    }
    if !first {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"pragmas\": [");
    let mut first = true;
    for f in &report.files {
        for p in &f.pragmas {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str("\n    {\"path\": ");
            escape_into(&f.path, &mut s);
            s.push_str(", \"line\": ");
            s.push_str(&p.line.to_string());
            s.push_str(", \"rules\": [");
            for (i, r) in p.rules.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                escape_into(&r.to_string(), &mut s);
            }
            s.push_str("], \"reason\": ");
            escape_into(&p.reason, &mut s);
            s.push_str(", \"suppressed\": ");
            s.push_str(&p.suppressed.to_string());
            s.push('}');
        }
    }
    if !first {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"summary\": {\"violations\": ");
    s.push_str(&report.violation_count().to_string());
    s.push_str(", \"suppressed\": ");
    s.push_str(&report.suppressed_count().to_string());
    s.push_str(", \"pragmas\": ");
    let pragma_count: usize = report.files.iter().map(|f| f.pragmas.len()).sum();
    s.push_str(&pragma_count.to_string());
    s.push_str("}\n}\n");
    s
}

// ---------------------------------------------------------- validator

fn count_field(obj: &Json, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing key {key:?}"))?
        .as_count()
        .ok_or_else(|| format!("{ctx}: {key:?} must be a non-negative integer"))
}

fn str_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing key {key:?}"))?
        .as_str()
        .ok_or_else(|| format!("{ctx}: {key:?} must be a string"))
}

fn arr_field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a [Json], String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing key {key:?}"))?
        .as_arr()
        .ok_or_else(|| format!("{ctx}: {key:?} must be an array"))
}

/// Validate a `scalewall-lint/v2` document: schema tag, every required
/// key with the right type, rule names that parse, and summary counts
/// that match the arrays. Returns the `(violations, pragmas)` counts on
/// success so callers can gate without re-parsing.
pub fn validate(text: &str) -> Result<(u64, u64), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("top level must be an object".to_string());
    }
    let schema = str_field(&doc, "schema", "report")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    count_field(&doc, "files_scanned", "report")?;

    let violations = arr_field(&doc, "violations", "report")?;
    for (i, v) in violations.iter().enumerate() {
        let ctx = format!("violations[{i}]");
        str_field(v, "path", &ctx)?;
        count_field(v, "line", &ctx)?;
        str_field(v, "message", &ctx)?;
        let rule = str_field(v, "rule", &ctx)?;
        if RuleId::parse(rule).is_none() && rule != "pragma" {
            return Err(format!("{ctx}: unknown rule {rule:?}"));
        }
    }

    let pragmas = arr_field(&doc, "pragmas", "report")?;
    let mut suppressed_total = 0u64;
    for (i, p) in pragmas.iter().enumerate() {
        let ctx = format!("pragmas[{i}]");
        str_field(p, "path", &ctx)?;
        count_field(p, "line", &ctx)?;
        str_field(p, "reason", &ctx)?;
        suppressed_total += count_field(p, "suppressed", &ctx)?;
        let rules = arr_field(p, "rules", &ctx)?;
        if rules.is_empty() {
            return Err(format!("{ctx}: empty rules list"));
        }
        for r in rules {
            let name = r.as_str().ok_or_else(|| format!("{ctx}: rules entries must be strings"))?;
            if RuleId::parse(name).is_none() {
                return Err(format!("{ctx}: unknown rule {name:?}"));
            }
        }
    }

    let summary = doc.get("summary").ok_or("report: missing key \"summary\"")?;
    let s_viol = count_field(summary, "violations", "summary")?;
    let s_supp = count_field(summary, "suppressed", "summary")?;
    let s_prag = count_field(summary, "pragmas", "summary")?;
    if s_viol != violations.len() as u64 {
        return Err(format!(
            "summary.violations is {s_viol} but the violations array has {} entries",
            violations.len()
        ));
    }
    if s_prag != pragmas.len() as u64 {
        return Err(format!(
            "summary.pragmas is {s_prag} but the pragmas array has {} entries",
            pragmas.len()
        ));
    }
    if s_supp != suppressed_total {
        return Err(format!(
            "summary.suppressed is {s_supp} but pragma entries total {suppressed_total}"
        ));
    }
    Ok((s_viol, s_prag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileReport, PragmaUse, Violation};

    fn sample() -> WorkspaceReport {
        WorkspaceReport {
            files_scanned: 3,
            files: vec![FileReport {
                path: "crates/x/src/lib.rs".to_string(),
                violations: vec![Violation {
                    rule: RuleId::D5,
                    line: 12,
                    message: "fork label \"x\" reused\nacross lines".to_string(),
                }],
                pragmas: vec![PragmaUse {
                    line: 4,
                    rules: vec![RuleId::D2, RuleId::D1],
                    reason: "point lookups only".to_string(),
                    suppressed: 2,
                }],
                unscanned: None,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn roundtrip_validates() {
        let text = to_json(&sample());
        let (v, p) = validate(&text).expect("sample must validate");
        assert_eq!((v, p), (1, 1));
    }

    #[test]
    fn empty_report_validates() {
        let text = to_json(&WorkspaceReport { files_scanned: 57, ..Default::default() });
        assert_eq!(validate(&text), Ok((0, 0)));
    }

    #[test]
    fn escapes_are_lossless() {
        let mut r = sample();
        r.files[0].violations[0].message = "quote \" slash \\ tab \t ctrl \u{1} done".to_string();
        let text = to_json(&r);
        assert!(validate(&text).is_ok(), "{text}");
        // The parser must round-trip the escaped message.
        let doc = parse(&text).unwrap();
        let msg = doc.get("violations").unwrap().as_arr().unwrap()[0]
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert_eq!(msg, r.files[0].violations[0].message);
    }

    #[test]
    fn wrong_schema_rejected() {
        let text = to_json(&sample()).replace("scalewall-lint/v2", "scalewall-lint/v1");
        assert!(validate(&text).unwrap_err().contains("schema"));
    }

    #[test]
    fn mismatched_summary_rejected() {
        let text = to_json(&sample()).replace("\"violations\": 1", "\"violations\": 0");
        assert!(validate(&text).unwrap_err().contains("summary.violations"));
    }

    #[test]
    fn unknown_rule_rejected() {
        let text = to_json(&sample()).replace("\"rule\": \"D5\"", "\"rule\": \"D9\"");
        assert!(validate(&text).unwrap_err().contains("unknown rule"));
    }

    #[test]
    fn truncated_document_rejected() {
        let text = to_json(&sample());
        assert!(validate(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn missing_key_rejected() {
        let text = to_json(&WorkspaceReport::default()).replace("\"pragmas\": [],", "");
        assert!(validate(&text).unwrap_err().contains("pragmas"));
    }
}

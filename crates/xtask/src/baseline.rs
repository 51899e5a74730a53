//! The ratchet baseline: a checked-in inventory of tolerated findings for
//! the ratcheted rules (`panic-surface`, `truncating-cast`).
//!
//! The baseline maps `(rule, path)` to a finding count. When simlint runs
//! with `--baseline`, findings from ratcheted rules are compared against
//! it: up to the recorded count per file is tolerated (`baselined`),
//! anything beyond is `new` and fails the lint. A recorded count higher
//! than what the code actually produces *also* fails — the entry is stale
//! and must be shrunk in the same change, so the inventory can only move
//! toward zero. Deny-severity rules never consult the baseline.
//!
//! The file format is JSON, one entry per line, sorted by (rule, path), so
//! diffs of `results/simlint_baseline.json` read as "this file got better
//! / worse at this rule". Regenerate with `--update-baseline` after
//! deliberately shrinking the surface; it refuses to write any count above
//! the one it would overwrite (see [`Baseline::raised_over`]), so raising a
//! count takes a hand edit of the JSON that shows in the diff.

use std::collections::BTreeMap;
use std::path::Path;

use crate::rules::{rule_severity, BaselineStatus, Severity, Violation};

/// Parsed baseline: `(rule, path) -> tolerated finding count`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Tolerated counts, keyed by (rule id, workspace-relative path).
    pub entries: BTreeMap<(String, String), usize>,
}

/// A baseline entry whose recorded count no longer matches reality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleEntry {
    /// Rule id of the stale entry.
    pub rule: String,
    /// File the entry covers.
    pub path: String,
    /// Count recorded in the baseline.
    pub recorded: usize,
    /// Count the code actually produces now.
    pub actual: usize,
}

/// A count a proposed baseline would raise above the current one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaisedEntry {
    /// Rule id of the entry.
    pub rule: String,
    /// File the entry covers.
    pub path: String,
    /// Count the current baseline tolerates (0 when it has no entry).
    pub current: usize,
    /// Count the proposed baseline would record.
    pub proposed: usize,
}

impl Baseline {
    /// Entries of `self` (a proposed baseline) that record more findings
    /// than `current` tolerates for the same (rule, path); a missing entry
    /// tolerates none. The ratchet only shrinks, so `--update-baseline`
    /// writes nothing while this is non-empty.
    pub fn raised_over(&self, current: &Baseline) -> Vec<RaisedEntry> {
        self.entries
            .iter()
            .filter_map(|((rule, path), &proposed)| {
                let tolerated = current
                    .entries
                    .get(&(rule.clone(), path.clone()))
                    .copied()
                    .unwrap_or(0);
                (proposed > tolerated).then(|| RaisedEntry {
                    rule: rule.clone(),
                    path: path.clone(),
                    current: tolerated,
                    proposed,
                })
            })
            .collect()
    }

    /// Serialize to the checked-in format: schema header plus one sorted
    /// entry per line. Byte-stable for identical content.
    pub fn to_json(&self) -> String {
        let mut s = String::from(
            "{\n  \"schema_version\": 1,\n  \"tool\": \"simlint-baseline\",\n  \"entries\": [\n",
        );
        let n = self.entries.len();
        for (i, ((rule, path), count)) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"count\": {}}}{}\n",
                esc(rule),
                esc(path),
                count,
                if i + 1 < n { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse the format written by [`Baseline::to_json`]. Tolerant of
    /// whitespace but not of structural drift: every `"rule"` key must
    /// come with `"path"` and `"count"` on the same entry line.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut b = Baseline::default();
        for (lineno, line) in text.lines().enumerate() {
            if !line.contains("\"rule\"") {
                continue;
            }
            let rule = field_str(line, "rule")
                .ok_or_else(|| format!("baseline line {}: missing \"rule\"", lineno + 1))?;
            let path = field_str(line, "path")
                .ok_or_else(|| format!("baseline line {}: missing \"path\"", lineno + 1))?;
            let count = field_num(line, "count")
                .ok_or_else(|| format!("baseline line {}: missing \"count\"", lineno + 1))?;
            if b.entries
                .insert((rule.clone(), path.clone()), count)
                .is_some()
            {
                return Err(format!(
                    "baseline line {}: duplicate entry for ({rule}, {path})",
                    lineno + 1
                ));
            }
        }
        Ok(b)
    }

    /// Load from disk.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        Baseline::parse(&text)
    }

    /// Build a baseline that pins exactly the ratcheted findings in
    /// `violations` (deny findings are never baselined).
    pub fn from_findings(violations: &[Violation]) -> Baseline {
        let mut b = Baseline::default();
        for v in violations {
            if rule_severity(v.rule) == Severity::Ratchet {
                *b.entries
                    .entry((v.rule.to_string(), v.file.clone()))
                    .or_insert(0) += 1;
            }
        }
        b
    }
}

/// Compare findings against the baseline. Marks each ratcheted finding
/// `Baselined` (within budget, counted per (rule, file) in report order)
/// or `New` (over budget); deny findings stay `New`. Returns the stale
/// entries: baseline records that now overcount, which must be shrunk.
pub fn apply(violations: &mut [Violation], baseline: &Baseline) -> Vec<StaleEntry> {
    let mut used: BTreeMap<(String, String), usize> = BTreeMap::new();
    for v in violations.iter_mut() {
        if rule_severity(v.rule) != Severity::Ratchet {
            continue;
        }
        let key = (v.rule.to_string(), v.file.clone());
        let budget = baseline.entries.get(&key).copied().unwrap_or(0);
        let seen = used.entry(key).or_insert(0);
        *seen += 1;
        v.status = if *seen <= budget {
            BaselineStatus::Baselined
        } else {
            BaselineStatus::New
        };
    }
    baseline
        .entries
        .iter()
        .filter_map(|((rule, path), &recorded)| {
            let actual = used
                .get(&(rule.clone(), path.clone()))
                .copied()
                .unwrap_or(0);
            (actual < recorded).then(|| StaleEntry {
                rule: rule.clone(),
                path: path.clone(),
                recorded,
                actual,
            })
        })
        .collect()
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Extract `"key": "value"` from a single-entry line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\""))?;
    let rest = &line[at + key.len() + 2..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

/// Extract `"key": 123` from a single-entry line.
fn field_num(line: &str, key: &str) -> Option<usize> {
    let at = line.find(&format!("\"{key}\""))?;
    let rest = &line[at + key.len() + 2..];
    let colon = rest.find(':')?;
    let digits: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, file: &str, line: usize) -> Violation {
        Violation {
            rule,
            file: file.to_string(),
            line,
            col: 0,
            end_col: 0,
            message: String::new(),
            status: BaselineStatus::New,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut b = Baseline::default();
        b.entries.insert(
            ("panic-surface".into(), "crates/netsim/src/sim.rs".into()),
            3,
        );
        b.entries.insert(
            (
                "truncating-cast".into(),
                "crates/core/src/scenario.rs".into(),
            ),
            7,
        );
        let parsed = Baseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        // Byte-stable: serialize → parse → serialize is the identity.
        assert_eq!(parsed.to_json(), b.to_json());
    }

    #[test]
    fn parse_rejects_duplicates_and_malformed_entries() {
        let dup = "{\"entries\": [\n\
                   {\"rule\": \"r\", \"path\": \"p\", \"count\": 1},\n\
                   {\"rule\": \"r\", \"path\": \"p\", \"count\": 2}\n]}";
        assert!(Baseline::parse(dup).is_err());
        assert!(Baseline::parse("{\"rule\": \"r\"}").is_err());
        assert!(Baseline::parse("{}").unwrap().entries.is_empty());
    }

    #[test]
    fn within_budget_findings_are_baselined() {
        let mut vs = vec![
            v("panic-surface", "a.rs", 1),
            v("panic-surface", "a.rs", 2),
            v("wall-clock", "a.rs", 3),
        ];
        let b = Baseline::from_findings(&vs);
        assert_eq!(
            b.entries.get(&("panic-surface".into(), "a.rs".into())),
            Some(&2)
        );
        // Deny rules never enter the baseline.
        assert!(!b.entries.keys().any(|(r, _)| r == "wall-clock"));
        let stale = apply(&mut vs, &b);
        assert!(stale.is_empty());
        assert_eq!(vs[0].status, BaselineStatus::Baselined);
        assert_eq!(vs[1].status, BaselineStatus::Baselined);
        // Deny findings stay new regardless of the baseline.
        assert_eq!(vs[2].status, BaselineStatus::New);
    }

    #[test]
    fn over_budget_findings_are_new() {
        let mut b = Baseline::default();
        b.entries.insert(("panic-surface".into(), "a.rs".into()), 1);
        let mut vs = vec![v("panic-surface", "a.rs", 1), v("panic-surface", "a.rs", 2)];
        let stale = apply(&mut vs, &b);
        assert!(stale.is_empty());
        assert_eq!(vs[0].status, BaselineStatus::Baselined);
        assert_eq!(vs[1].status, BaselineStatus::New);
    }

    #[test]
    fn raised_counts_are_detected_and_shrinks_are_not() {
        let mut current = Baseline::default();
        current
            .entries
            .insert(("panic-surface".into(), "a.rs".into()), 3);
        current
            .entries
            .insert(("truncating-cast".into(), "b.rs".into()), 1);
        let mut next = current.clone();
        assert!(next.raised_over(&current).is_empty());
        // Shrinking and dropping entries is what the ratchet is for.
        next.entries
            .insert(("panic-surface".into(), "a.rs".into()), 2);
        next.entries
            .remove(&("truncating-cast".into(), "b.rs".into()));
        assert!(next.raised_over(&current).is_empty());
        // Raising an entry, or adding one the current baseline lacks, is not.
        next.entries
            .insert(("panic-surface".into(), "a.rs".into()), 4);
        next.entries
            .insert(("panic-surface".into(), "new.rs".into()), 1);
        let raised = next.raised_over(&current);
        assert_eq!(raised.len(), 2);
        assert_eq!((raised[0].current, raised[0].proposed), (3, 4));
        assert_eq!(
            (
                raised[1].path.as_str(),
                raised[1].current,
                raised[1].proposed
            ),
            ("new.rs", 0, 1)
        );
    }

    #[test]
    fn stale_entries_are_reported() {
        let mut b = Baseline::default();
        b.entries.insert(("panic-surface".into(), "a.rs".into()), 3);
        b.entries
            .insert(("truncating-cast".into(), "gone.rs".into()), 2);
        let mut vs = vec![v("panic-surface", "a.rs", 1)];
        let stale = apply(&mut vs, &b);
        assert_eq!(stale.len(), 2);
        assert_eq!((stale[0].recorded, stale[0].actual), (3, 1));
        assert_eq!((stale[1].recorded, stale[1].actual), (2, 0));
    }
}

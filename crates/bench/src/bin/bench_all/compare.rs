//! `--compare OLD.json NEW.json`: per (workload, bounded metric) the old
//! and new value, their ratio, the bound and a verdict.

use crate::json::{self, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The reps of one side spread (first to third quartile) wider than
    /// the bound, or the metric is missing on one side: the files cannot
    /// tell.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a row of a results file (all `None` when
/// the other file has no such row).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sample {
    pub value: Option<f64>,
    pub q1: Option<f64>,
    pub q3: Option<f64>,
}

/// `bound_kind` is `"rel"` (share of the old value) or `"abs"`.
pub fn verdict(
    old: Sample,
    new: Sample,
    lower_is_better: bool,
    bound_kind: &str,
    bound: f64,
) -> Verdict {
    let (Some(o), Some(n)) = (old.value, new.value) else {
        return Verdict::Unresolved;
    };
    let allowed = if bound_kind == "abs" {
        bound
    } else {
        bound * o.abs()
    };
    let spread = |s: Sample| match (s.q1, s.q3) {
        (Some(q1), Some(q3)) => q3 - q1,
        _ => 0.0,
    };
    if spread(old) > allowed || spread(new) > allowed {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better { n - o } else { o - n };
    if worse_by > allowed {
        Verdict::Regressed
    } else if worse_by < -allowed {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn rows(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .get("rows")
        .ok_or_else(|| format!("{path}: no \"rows\""))?
        .as_arr()
        .to_vec())
}

fn sample(row: &Value) -> Sample {
    let field = |k: &str| row.get(k).and_then(Value::as_f64);
    Sample {
        value: field("value"),
        q1: field("q1"),
        q3: field("q3"),
    }
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(old_path: &str, new_path: &str) -> Result<bool, String> {
    let old_rows = rows(old_path)?;
    let new_rows = rows(new_path)?;
    let id = |row: &Value| -> Option<(String, String)> {
        Some((
            row.get("workload")?.as_str()?.to_string(),
            row.get("metric")?.as_str()?.to_string(),
        ))
    };
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>16} {:>10}  verdict",
        "workload", "metric", "old", "new", "new/old", "bound"
    );
    let mut counts = [0usize; 4];
    for old_row in &old_rows {
        let (Some(kind), Some(bound)) = (
            old_row.get("bound_kind").and_then(Value::as_str),
            old_row.get("bound").and_then(Value::as_f64),
        ) else {
            continue; // unbounded per-layer metric
        };
        let Some((workload, metric)) = id(old_row) else {
            continue;
        };
        let new_row = new_rows
            .iter()
            .find(|r| id(r).is_some_and(|(w, m)| w == workload && m == metric));
        let old = sample(old_row);
        let new = new_row.map(sample).unwrap_or_default();
        if old.value.is_none() && new.value.is_none() {
            continue; // does not apply to this workload
        }
        let lower = old_row.get("better").and_then(Value::as_str) != Some("higher");
        let v = verdict(old, new, lower, kind, bound);
        counts[v as usize] += 1;
        let ratio = match (old.value, new.value) {
            (Some(o), Some(n)) if o != 0.0 => format!("{:.4} of {:.4}", n / o, o),
            _ => "-".to_string(),
        };
        println!(
            "{workload:<18} {metric:<24} {:>14} {:>14} {ratio:>16} {:>10}  {}",
            json::num(old.value),
            json::num(new.value),
            if kind == "abs" {
                format!("+{bound}")
            } else {
                format!("{:.0}%", bound * 100.0)
            },
            v.name()
        );
    }
    println!(
        "# {} improved, {} unchanged, {} regressed, {} unresolved",
        counts[Verdict::Improved as usize],
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Regressed as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Sample {
        Sample {
            value: Some(value),
            q1: Some(q1),
            q3: Some(q3),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let flat = |v: f64| s(v, v, v);
        // Lower is better, 10 % bound.
        assert_eq!(
            verdict(flat(100.0), flat(105.0), true, "rel", 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(flat(100.0), flat(111.0), true, "rel", 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(flat(100.0), flat(80.0), true, "rel", 0.1),
            Verdict::Improved
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(flat(100.0), flat(80.0), false, "rel", 0.1),
            Verdict::Regressed
        );
        // Reps wider than the bound cannot tell.
        assert_eq!(
            verdict(s(100.0, 100.0, 120.0), flat(100.0), true, "rel", 0.1),
            Verdict::Unresolved
        );
        // Absolute bound of zero: equal is unchanged, any rise regresses.
        assert_eq!(
            verdict(flat(0.0), flat(0.0), true, "abs", 0.0),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(flat(0.0), flat(1.0), true, "abs", 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(flat(1.0), Sample::default(), true, "rel", 0.1),
            Verdict::Unresolved
        );
    }
}

//! Record values.
//!
//! A stored record is a [`Row`]: a small ordered map from attribute name to
//! [`Value`]. Commutative updates (§3.4 of the paper) apply integer deltas
//! to individual attributes; physical updates replace the whole row.
//!
//! Rows are copied far more often than they are built — into every
//! snapshot a Phase2a carries, every demarcation base, every replica at
//! load — and most hold a handful of attributes, so a row is one sorted
//! vector with shared attribute names: a clone is one allocation and a
//! reference count per attribute, where a tree map paid a node sized for
//! eleven entries plus a string per name.

use std::fmt;
use std::sync::Arc;

/// A single attribute value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Absent / SQL NULL.
    Null,
    /// 64-bit signed integer (the only type commutative deltas apply to).
    Int(i64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// Returns the integer payload, or `None` for non-integers.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, or `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

/// A record body: attribute name → value.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct Row {
    /// Sorted by attribute name, names unique.
    attrs: Vec<(Arc<str>, Value)>,
}

impl Row {
    /// Creates an empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style attribute insertion.
    ///
    /// # Examples
    ///
    /// ```
    /// use mdcc_common::value::Row;
    /// let row = Row::new().with("stock", 10).with("title", "widget");
    /// assert_eq!(row.get_int("stock"), Some(10));
    /// ```
    pub fn with(mut self, attr: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(attr, value);
        self
    }

    /// Where `attr` is (`Ok`) or belongs (`Err`) in the sorted vector.
    fn position(&self, attr: &str) -> Result<usize, usize> {
        self.attrs.binary_search_by(|(name, _)| (**name).cmp(attr))
    }

    /// Sets an attribute, returning the previous value if any.
    pub fn set(&mut self, attr: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        let (attr, value) = (attr.into(), value.into());
        match self.position(&attr) {
            Ok(at) => Some(std::mem::replace(&mut self.attrs[at].1, value)),
            Err(at) => {
                self.attrs.insert(at, (attr.into(), value));
                None
            }
        }
    }

    /// Reads an attribute.
    pub fn get(&self, attr: &str) -> Option<&Value> {
        self.position(attr).ok().map(|at| &self.attrs[at].1)
    }

    /// Reads an integer attribute, `None` if absent or non-integer.
    pub fn get_int(&self, attr: &str) -> Option<i64> {
        self.get(attr).and_then(Value::as_int)
    }

    /// Reads a string attribute, `None` if absent or non-string.
    pub fn get_str(&self, attr: &str) -> Option<&str> {
        self.get(attr).and_then(Value::as_str)
    }

    /// Adds `delta` to an integer attribute, treating a missing attribute
    /// as zero. Returns the new value.
    ///
    /// This is the execution step of a commutative option: by the time it
    /// runs, the acceptors have already validated the constraint, so the
    /// addition itself is unconditional.
    pub fn apply_delta(&mut self, attr: &str, delta: i64) -> i64 {
        match self.position(attr) {
            Ok(at) => {
                let new = self.attrs[at].1.as_int().unwrap_or(0) + delta;
                self.attrs[at].1 = Value::Int(new);
                new
            }
            Err(at) => {
                self.attrs.insert(at, (attr.into(), Value::Int(delta)));
                delta
            }
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the row has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates attributes in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|(k, v)| (&**k, v))
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, Value)> for Row {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut row = Row::new();
        for (attr, value) in iter {
            row.set(attr, value);
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_getters() {
        let row = Row::new().with("stock", 4).with("name", "bolt");
        assert_eq!(row.get_int("stock"), Some(4));
        assert_eq!(row.get_str("name"), Some("bolt"));
        assert_eq!(row.get_int("name"), None, "type mismatch yields None");
        assert_eq!(row.get("missing"), None);
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn apply_delta_creates_missing_attributes() {
        let mut row = Row::new();
        assert_eq!(row.apply_delta("stock", -3), -3);
        assert_eq!(row.apply_delta("stock", 5), 2);
        assert_eq!(row.get_int("stock"), Some(2));
    }

    #[test]
    fn attributes_stay_sorted_and_unique_however_they_arrive() {
        let pairs = [("m", 1), ("a", 2), ("z", 3), ("m", 4), ("b", 5)];
        let row: Row = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Int(*v)))
            .collect();
        let names: Vec<&str> = row.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b", "m", "z"]);
        assert_eq!(row.get_int("m"), Some(4), "the later value wins");
        let built = Row::new()
            .with("z", 3)
            .with("b", 5)
            .with("m", 4)
            .with("a", 2);
        assert_eq!(row, built, "equality does not depend on insertion order");
        // A clone shares the names.
        let copy = row.clone();
        assert!(Arc::ptr_eq(&row.attrs[0].0, &copy.attrs[0].0));
    }

    #[test]
    fn set_returns_previous() {
        let mut row = Row::new().with("a", 1);
        assert_eq!(row.set("a", 2), Some(Value::Int(1)));
        assert_eq!(row.set("b", 3), None);
    }

    #[test]
    fn display_is_deterministic() {
        let row = Row::new().with("b", 2).with("a", 1);
        assert_eq!(row.to_string(), "{a: 1, b: 2}");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(7).as_int(), Some(7));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::Null.as_int(), None);
    }
}

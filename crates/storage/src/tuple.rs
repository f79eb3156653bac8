//! Tuples of constant values.

use ccpi_ir::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An immutable tuple of constants. Ordered lexicographically (by the total
/// order on [`Value`]), which gives relations a deterministic iteration
/// order. Clones share one allocation, so a relation's index entries and
/// its path-copied tree nodes cost a reference count per tuple, not a copy.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(values.into().into())
    }

    /// The empty (0-ary) tuple — the single possible tuple of `panic`.
    pub fn unit() -> Self {
        Tuple(Arc::new([]))
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Component accessor.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// Iterates over components.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }

    /// The components as a slice.
    pub fn as_slice(&self) -> &[Value] {
        &self.0
    }

    /// Approximate in-memory footprint in bytes, used by the distributed
    /// simulation to meter transfer volume.
    pub fn transfer_bytes(&self) -> usize {
        self.0
            .iter()
            .map(|v| match v {
                Value::Int(_) => 8,
                Value::Str(s) => s.as_str().len() + 8,
            })
            .sum::<usize>()
            + 8
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = crate::tuple!["jones", "shoe", 50];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::str("jones"));
        assert_eq!(t.get(2), Some(&Value::int(50)));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn unit_tuple() {
        let t = Tuple::unit();
        assert_eq!(t.arity(), 0);
        assert_eq!(t.to_string(), "()");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = crate::tuple![1, 2];
        let b = crate::tuple![1, 3];
        let c = crate::tuple![2, 0];
        assert!(a < b && b < c);
    }

    #[test]
    fn display() {
        assert_eq!(crate::tuple!["jones", 50].to_string(), "(jones,50)");
    }

    #[test]
    fn transfer_bytes_scale_with_content() {
        assert!(
            crate::tuple!["a-long-department-name", 1].transfer_bytes()
                > crate::tuple!["d", 1].transfer_bytes()
        );
    }
}

//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the small API subset it actually uses: an immutable,
//! cheaply cloneable byte buffer backed by a reference-counted allocation
//! with an offset/length view. Semantics match `bytes::Bytes` for the
//! operations provided (`Clone` is O(1) and shares storage; `slice` and
//! `advance` adjust the view without copying).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable region of memory.
///
/// Backed by `Arc<Vec<u8>>` so `From<Vec<u8>>` is zero-copy: the vector's
/// allocation is adopted as-is and only the refcount header is allocated.
/// The empty buffer has no backing store at all: `Bytes::new()`, an empty
/// `slice` and `From` of an empty vector allocate nothing and hold no
/// reference to anyone's storage.
///
/// The view is a pair of `u32` offsets (a buffer holds at most 4 GiB, far
/// above any frame or report the workspace builds), which keeps the struct
/// at 16 bytes with the `Option`'s null niche spent on "empty" — enums
/// wrapping a `Bytes`, the scheduler's event above all, stay the size they
/// were when the pointer was never null.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Option<Arc<Vec<u8>>>,
    start: u32,
    end: u32,
}

impl Bytes {
    /// Creates a new empty `Bytes`. Allocation-free.
    pub const fn new() -> Bytes {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// Creates `Bytes` from a static slice.
    ///
    /// Unlike the real crate this copies once into a shared allocation;
    /// every clone still shares that single allocation.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a new `Bytes`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a slice of self for the provided range, sharing storage.
    /// An empty range yields `Bytes::new()` rather than a view that pins
    /// the storage, like the real crate.
    ///
    /// Panics when the range is out of bounds, like the real crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(begin <= end, "range start must not be greater than end");
        assert!(end <= len, "range end out of bounds");
        if begin == end {
            return Bytes::new();
        }
        // `begin <= end <= len <= u32::MAX`: the casts cannot truncate.
        Bytes {
            data: self.data.clone(),
            start: self.start + begin as u32,
            end: self.start + end as u32,
        }
    }

    /// Advances the start of the view by `cnt` bytes.
    pub fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "cannot advance past the end of Bytes");
        self.start += cnt as u32;
    }

    /// Splits off and returns the first `at` bytes, leaving the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.advance(at);
        head
    }

    /// The view as a plain slice. `#[inline]`: parsers index a `Bytes` a
    /// header byte at a time through `Deref`, and without the hint each of
    /// those reads is a call into this crate.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(data) => &data[self.start as usize..self.end as usize],
            None => &[],
        }
    }

    /// Copies the view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl From<Vec<u8>> for Bytes {
    /// Zero-copy: adopts the vector's allocation without copying the bytes.
    fn from(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let end = u32::try_from(v.len()).expect("a Bytes holds at most 4 GiB");
        Bytes {
            data: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::from(b.into_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_and_slice_views() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(b, c);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn advance_moves_view() {
        let mut b = Bytes::from_static(b"hello world");
        b.advance(6);
        assert_eq!(&b[..], b"world");
    }

    #[test]
    fn split_to_divides() {
        let mut b = Bytes::from_static(b"headtail");
        let head = b.split_to(4);
        assert_eq!(&head[..], b"head");
        assert_eq!(&b[..], b"tail");
    }

    #[test]
    fn empty_views_hold_no_storage() {
        let b = Bytes::from(vec![1, 2, 3]);
        for empty in [
            Bytes::new(),
            Bytes::default(),
            b.slice(2..2),
            Bytes::from(vec![]),
        ] {
            assert!(empty.is_empty());
            assert!(empty.data.is_none());
            assert_eq!(empty, Bytes::new());
            assert_eq!(&empty.slice(..)[..], b"");
        }
        let mut tail = b.clone();
        tail.advance(3);
        assert!(tail.is_empty());
        assert_eq!(tail.split_to(0), Bytes::new());
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from_static(b"abc");
        let _ = b.slice(0..4);
    }
}

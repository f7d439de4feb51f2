//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to a crates registry, so the
//! workspace vendors the small API subset it actually uses, under the real
//! crate's names: [`Bytes`], an immutable, cheaply cloneable view of a
//! shared buffer; [`BytesMut`], the unique buffer a producer writes once
//! and then [`freeze`](BytesMut::freeze)s; and [`BufMut`], the writer trait
//! both it and `Vec<u8>` implement. Semantics match the real crate for the
//! operations provided (`Clone` is O(1) and shares storage; `slice` and
//! `advance` adjust the view without copying).
//!
//! A buffer is one heap block: a two-word header — the reference count and
//! the capacity — followed by the bytes. The count is a plain `Cell`, not
//! an atomic, because the simulator is single-threaded; `Bytes` and
//! `BytesMut` are therefore neither `Send` nor `Sync`, which the compiler
//! enforces through their raw pointer.

use std::alloc::{self, Layout};
use std::borrow::Borrow;
use std::cell::Cell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::{self, ManuallyDrop};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::ptr::{self, NonNull};
use std::slice;

/// The front of every buffer block; the block's bytes follow it.
struct Header {
    /// Live `Bytes` views of the block (1 while a `BytesMut` owns it).
    count: Cell<usize>,
    /// Bytes the block holds after the header.
    cap: usize,
}

const HEADER_LEN: usize = mem::size_of::<Header>();

fn block_layout(cap: usize) -> Layout {
    HEADER_LEN
        .checked_add(cap)
        .and_then(|size| Layout::from_size_align(size, mem::align_of::<Header>()).ok())
        .expect("buffer capacity overflows the address space")
}

/// A fresh block for `cap` bytes, counted once.
fn alloc_block(cap: usize) -> NonNull<Header> {
    let layout = block_layout(cap);
    // SAFETY: the layout is never zero-sized (it includes the header).
    let raw = unsafe { alloc::alloc(layout) }.cast::<Header>();
    let Some(block) = NonNull::new(raw) else {
        alloc::handle_alloc_error(layout)
    };
    // SAFETY: freshly allocated for a `Header` and the bytes behind it.
    unsafe {
        block.as_ptr().write(Header {
            count: Cell::new(1),
            cap,
        })
    };
    block
}

/// Grow a uniquely owned block to `cap` bytes, keeping its contents.
///
/// # Safety
/// `block` came from [`alloc_block`] or this function, and nothing else
/// points into it.
unsafe fn grow_block(block: NonNull<Header>, cap: usize) -> NonNull<Header> {
    let old = block_layout(block.as_ref().cap);
    let new = block_layout(cap);
    let raw = alloc::realloc(block.as_ptr().cast(), old, new.size()).cast::<Header>();
    let Some(block) = NonNull::new(raw) else {
        alloc::handle_alloc_error(new)
    };
    (*block.as_ptr()).cap = cap;
    block
}

/// Give a block back to the allocator.
///
/// # Safety
/// `block` is live and this was its last reference.
unsafe fn free_block(block: NonNull<Header>) {
    let layout = block_layout(block.as_ref().cap);
    alloc::dealloc(block.as_ptr().cast(), layout);
}

/// The first byte after a block's header.
///
/// # Safety
/// `block` is live.
unsafe fn block_bytes(block: NonNull<Header>) -> *mut u8 {
    block.as_ptr().cast::<u8>().add(HEADER_LEN)
}

/// A cheaply cloneable, contiguous, immutable region of memory.
///
/// Every non-empty `Bytes` points at one block holding its reference count
/// and the bytes; a clone increments the count, a drop decrements it and
/// the last one frees the block. The empty buffer has no block at all:
/// `Bytes::new()`, an empty `slice`, and an empty source of any `From`
/// allocate nothing and hold no reference to anyone's storage.
///
/// The view is a pair of `u32` offsets (a buffer holds at most 4 GiB, far
/// above any frame or report the workspace builds), which keeps the struct
/// at 16 bytes with the `Option`'s null niche spent on "empty" — enums
/// wrapping a `Bytes`, the scheduler's event above all, stay the size they
/// were when the pointer was never null.
#[derive(Default)]
pub struct Bytes {
    block: Option<NonNull<Header>>,
    start: u32,
    end: u32,
}

impl Bytes {
    /// Creates a new empty `Bytes`. Allocation-free.
    pub const fn new() -> Bytes {
        Bytes {
            block: None,
            start: 0,
            end: 0,
        }
    }

    /// Creates `Bytes` from a static slice.
    ///
    /// Unlike the real crate this copies once into a block of its own;
    /// every clone still shares that block.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a new `Bytes`: one allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        let mut buf = BytesMut::with_capacity(data.len());
        buf.extend_from_slice(data);
        buf.freeze()
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
        let mut view = self.clone();
        view.start = self.start + begin as u32;
        view.end = self.start + end as u32;
        view
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
        match self.block {
            // SAFETY: the block is live while `self` counts in it, and
            // `start..end` lies within the bytes its producer wrote.
            Some(block) => unsafe {
                slice::from_raw_parts(block_bytes(block).add(self.start as usize), self.len())
            },
            None => &[],
        }
    }

    /// Copies the view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Clone for Bytes {
    #[inline]
    fn clone(&self) -> Bytes {
        if let Some(block) = self.block {
            // SAFETY: the block is live while `self` counts in it.
            let count = unsafe { &block.as_ref().count };
            count.set(count.get() + 1);
        }
        Bytes {
            block: self.block,
            start: self.start,
            end: self.end,
        }
    }
}

impl Drop for Bytes {
    #[inline]
    fn drop(&mut self) {
        if let Some(block) = self.block {
            // SAFETY: the block is live while `self` counts in it; at zero
            // no other view is left to read it.
            unsafe {
                let count = &block.as_ref().count;
                match count.get() {
                    1 => free_block(block),
                    n => count.set(n - 1),
                }
            }
        }
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
    /// Copies the vector's bytes into one block (the vector is freed): a
    /// producer that can write into a [`BytesMut`] instead saves the copy.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
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
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Bytes {
        Bytes::copy_from_slice(&b)
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

/// A unique, growable buffer: a producer writes a packet into it once and
/// [`freeze`](BytesMut::freeze)s it into a [`Bytes`] that keeps the same
/// block — header, payload and the count in one allocation.
pub struct BytesMut {
    block: Option<NonNull<Header>>,
    len: usize,
}

impl BytesMut {
    /// An empty buffer with room for `capacity` bytes (no allocation for 0).
    #[inline]
    pub fn with_capacity(capacity: usize) -> BytesMut {
        let mut buf = BytesMut {
            block: None,
            len: 0,
        };
        buf.reserve(capacity);
        buf
    }

    /// Bytes the buffer holds before it has to grow.
    #[inline]
    pub fn capacity(&self) -> usize {
        // SAFETY: an owned block is live.
        self.block.map_or(0, |block| unsafe { block.as_ref().cap })
    }

    /// Make room for at least `additional` more bytes, at least doubling
    /// the capacity when the buffer has to grow.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        // `len <= capacity` always: the subtraction cannot wrap.
        if additional > self.capacity() - self.len {
            self.grow(additional);
        }
    }

    /// The allocating half of [`BytesMut::reserve`], kept out of line so
    /// that the check inlines into every serializer.
    #[cold]
    fn grow(&mut self, additional: usize) {
        let needed = self
            .len
            .checked_add(additional)
            .expect("buffer capacity overflows usize");
        let cap = needed.max(2 * self.capacity());
        self.block = Some(match self.block {
            // SAFETY: a `BytesMut`'s block is its own until `freeze`.
            Some(block) => unsafe { grow_block(block, cap) },
            None => alloc_block(cap),
        });
    }

    /// Append `extend`, growing the buffer if it is full.
    #[inline]
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.reserve(extend.len());
        if let Some(block) = self.block {
            // SAFETY: `reserve` made room for `extend` behind the written
            // bytes, and a borrowed `extend` cannot alias a unique block.
            unsafe {
                ptr::copy_nonoverlapping(
                    extend.as_ptr(),
                    block_bytes(block).add(self.len),
                    extend.len(),
                )
            };
        }
        self.len += extend.len();
    }

    /// Convert into an immutable [`Bytes`] over the same block, without
    /// copying. An empty buffer frees its block and yields `Bytes::new()`.
    #[inline]
    pub fn freeze(self) -> Bytes {
        let end = u32::try_from(self.len).expect("a Bytes holds at most 4 GiB");
        let this = ManuallyDrop::new(self);
        match this.block {
            Some(block) if end > 0 => Bytes {
                block: Some(block),
                start: 0,
                end,
            },
            Some(block) => {
                // SAFETY: the block was this buffer's alone.
                unsafe { free_block(block) };
                Bytes::new()
            }
            None => Bytes::new(),
        }
    }
}

impl Drop for BytesMut {
    fn drop(&mut self) {
        if let Some(block) = self.block {
            // SAFETY: the block was this buffer's alone.
            unsafe { free_block(block) };
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match self.block {
            // SAFETY: the first `len` bytes of the block are written.
            Some(block) => unsafe { slice::from_raw_parts(block_bytes(block), self.len) },
            None => &[],
        }
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        match self.block {
            // SAFETY: as for `deref`, and `&mut self` makes it unique.
            Some(block) => unsafe { slice::from_raw_parts_mut(block_bytes(block), self.len) },
            None => &mut [],
        }
    }
}

/// A buffer a serializer appends to — `Vec<u8>` or [`BytesMut`] — so one
/// `emit_into` writes wherever its caller keeps bytes.
pub trait BufMut {
    /// Append `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    #[inline]
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    fn put_u8(&mut self, n: u8) {
        self.push(n);
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
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
        assert_eq!(b.as_ptr(), c.as_ptr(), "a clone shares the block");
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
            BytesMut::with_capacity(8).freeze(),
        ] {
            assert!(empty.is_empty());
            assert!(empty.block.is_none());
            assert_eq!(empty, Bytes::new());
            assert_eq!(&empty.slice(..)[..], b"");
        }
        let mut tail = b.clone();
        tail.advance(3);
        assert!(tail.is_empty());
        assert_eq!(tail.split_to(0), Bytes::new());
    }

    #[test]
    fn a_frozen_buffer_keeps_its_block() {
        let mut buf = BytesMut::with_capacity(4);
        buf.put_u8(1);
        buf.put_slice(&[2, 3, 4, 5, 6]);
        buf[0] = 9;
        assert!(buf.capacity() >= 6);
        let at = buf.as_ptr();
        let b = buf.freeze();
        assert_eq!(b, [9, 2, 3, 4, 5, 6]);
        assert_eq!(b.as_ptr(), at);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from_static(b"abc");
        let _ = b.slice(0..4);
    }
}

//! A vector stored in fixed-size pages: a persistent two-level tree.
//!
//! A [`PagedVec`] is an `Arc`'d table of `Arc`'d pages. Cloning one is a
//! reference-count increment and shares everything; mutating an element
//! copies the page table (one pointer per page) the first time and the one
//! page that holds the element, and nothing else. That is what lets a
//! copy-on-write snapshot successor pay for the rows a batch touches instead
//! of for the whole column: an append copies the last page, a
//! `swap_remove` the removed element's page and the last one.
//!
//! The table is a slice inline in its `Arc` and a page an array inline in
//! its own, so an element is two pointers from the vector: reading one
//! loads the page's pointer from the table, then the element. A reader that
//! resolves the table once ([`PagedVec::table`], which `extent::Typed`
//! holds) pays exactly those two loads per element. An extent keeps one
//! `PagedVec` per attribute in the attribute's declared type (`extent.rs`):
//! an `Int` column's page is 128 raw `i64`s, 1 KiB, with no value tag and
//! no row block to chase.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Elements per page. Small enough that copying one page is noise next to
/// the rest of a write (128 values of a column are 1 KiB for an `Int` or
/// `Float` column, 2 KiB for a `Str` one's pointers), large enough that
/// the page table stays a few hundred pointers at 10⁵ elements. The
/// adjacency sides of a link table (`links.rs`) page their lists by the
/// same count.
pub(crate) const PAGE_BITS: usize = 7;
pub(crate) const PAGE_LEN: usize = 1 << PAGE_BITS;
pub(crate) const PAGE_MASK: usize = PAGE_LEN - 1;

/// The slots of the last page past `len` hold [`Blank::blank`].
pub(crate) type Page<T> = Arc<[T; PAGE_LEN]>;

/// What the unused slots of a last page hold.
pub(crate) trait Blank: Clone {
    fn blank() -> Self;
}

/// See the module docs. Unused slots always hold the blank value, so two
/// vectors with equal contents have equal pages and the derived `PartialEq`
/// compares contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PagedVec<T> {
    pages: Arc<[Page<T>]>,
    len: usize,
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        Self { pages: Arc::default(), len: 0 }
    }
}

impl<T> PagedVec<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        slot(&self.pages, self.len, i)
    }

    /// The page table: element `i` is `table[i >> PAGE_BITS][i & PAGE_MASK]`
    /// for `i < len()`.
    pub(crate) fn table(&self) -> &[Page<T>] {
        &self.pages
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.pages().flatten()
    }

    /// The elements page by page: each page's used slots, in order (every
    /// page is full but the last).
    pub(crate) fn pages(&self) -> impl Iterator<Item = &[T]> + Clone {
        used_pages(&self.pages, self.len)
    }

    /// The indices of the pages that are not the same allocation in `self`
    /// and `other` (diagnostics for the copy-on-write tests).
    pub(crate) fn unshared_pages<'a>(
        &'a self,
        other: &'a Self,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.pages.len().max(other.pages.len())).filter(move |&p| {
            !matches!((self.pages.get(p), other.pages.get(p)), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
        })
    }
}

impl<T: Blank> PagedVec<T> {
    #[cfg(test)]
    pub(crate) fn from_vec(items: Vec<T>) -> Self {
        let len = items.len();
        let mut items = items.into_iter();
        let pages = (0..len.div_ceil(PAGE_LEN))
            .map(|_| Arc::new(std::array::from_fn(|_| items.next().unwrap_or_else(T::blank))))
            .collect();
        Self { pages, len }
    }

    /// Every element mutably, in order. Copies each page a clone of this
    /// vector shares first, so it is for a vector still owned alone: a
    /// load's, before it is published.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let len = self.len;
        self.table_mut().iter_mut().map(Arc::make_mut).flat_map(|page| page.iter_mut()).take(len)
    }

    /// The page table, copied first if a clone of this vector shares it.
    fn table_mut(&mut self) -> &mut [Page<T>] {
        Arc::make_mut(&mut self.pages)
    }

    /// Mutable access to element `i`; copies its page if the page is shared.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i < self.len {
            self.table_mut()
                .get_mut(i >> PAGE_BITS)
                .map(|page| &mut Arc::make_mut(page)[i & PAGE_MASK])
        } else {
            None
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.len == self.pages.len() * PAGE_LEN {
            let blank = Arc::new(std::array::from_fn(|_| T::blank()));
            self.pages = self.pages.iter().cloned().chain([blank]).collect();
        }
        let at = self.len;
        self.len += 1;
        self[at] = item;
    }

    /// Removes and returns element `i`, moving the last element into its
    /// place; `None` (and no change) when `i` is out of range.
    pub(crate) fn swap_remove(&mut self, i: usize) -> Option<T> {
        if i >= self.len {
            return None;
        }
        let last = std::mem::replace(self.get_mut(self.len - 1)?, T::blank());
        self.len -= 1;
        let full_pages = self.len.div_ceil(PAGE_LEN);
        if full_pages < self.pages.len() {
            self.pages = self.pages[..full_pages].iter().cloned().collect();
        }
        Some(match self.get_mut(i) {
            Some(slot) => std::mem::replace(slot, last),
            None => last, // `i` was the last element
        })
    }
}

/// Element `i` of the first `len` elements of the pages `table`.
#[inline]
pub(crate) fn slot<T>(table: &[Page<T>], len: usize, i: usize) -> Option<&T> {
    if i < len {
        table.get(i >> PAGE_BITS).map(|page| &page[i & PAGE_MASK])
    } else {
        None
    }
}

/// The used slots of each page of `table`, which holds `len` elements.
pub(crate) fn used_pages<T>(table: &[Page<T>], len: usize) -> impl Iterator<Item = &[T]> + Clone {
    table.iter().enumerate().map(move |(p, page)| {
        let used = len.saturating_sub(p << PAGE_BITS).min(PAGE_LEN);
        &page[..used]
    })
}

/// The page holding `items`, at most [`PAGE_LEN`] of them and blank past
/// them, moved in with one allocation; `items` is left empty, with its
/// capacity, to fill the next page.
pub(crate) fn page_of<T: Blank>(items: &mut Vec<T>) -> Page<T> {
    debug_assert!(items.len() <= PAGE_LEN, "{} items for one page", items.len());
    items.resize_with(PAGE_LEN, T::blank);
    match Page::try_from(items.drain(..).collect::<Arc<[T]>>()) {
        Ok(page) => page,
        // Not reached: `items` held exactly `PAGE_LEN` elements.
        Err(slots) => {
            Arc::new(std::array::from_fn(|i| slots.get(i).cloned().unwrap_or_else(T::blank)))
        }
    }
}

impl<T> PagedVec<T> {
    /// The vector of the first `len` elements of `pages`, which hold
    /// `len.div_ceil(PAGE_LEN)` pages, blank past `len`.
    pub(crate) fn from_pages(pages: Vec<Page<T>>, len: usize) -> Self {
        debug_assert_eq!(pages.len(), len.div_ceil(PAGE_LEN), "pages for {len} elements");
        Self { pages: pages.into(), len }
    }
}

impl<T> Index<usize> for PagedVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of range for a PagedVec of {}", self.len);
        &self.pages[i >> PAGE_BITS][i & PAGE_MASK]
    }
}

impl<T: Blank> IndexMut<usize> for PagedVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of range for a PagedVec of {}", self.len);
        &mut Arc::make_mut(&mut self.table_mut()[i >> PAGE_BITS])[i & PAGE_MASK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Blank for usize {
        fn blank() -> Self {
            0
        }
    }

    fn numbers(n: usize) -> PagedVec<usize> {
        PagedVec::from_vec((0..n).collect())
    }

    #[test]
    fn from_vec_round_trips_across_page_boundaries() {
        for n in [0, 1, PAGE_LEN - 1, PAGE_LEN, PAGE_LEN + 1, 3 * PAGE_LEN + 5] {
            let v = numbers(n);
            assert_eq!(v.len(), n);
            assert_eq!(v.iter().copied().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            let sizes: Vec<usize> = v.pages().map(<[usize]>::len).collect();
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(sizes.iter().all(|&s| s > 0), "no empty page: {sizes:?}");
            assert_eq!(v.get(n), None);
            if n > 0 {
                assert_eq!(v.get(n - 1), Some(&(n - 1)));
                assert_eq!(v[n / 2], n / 2);
            }
        }
    }

    #[test]
    fn iter_mut_reaches_every_element_and_no_unused_slot() {
        for n in [0, 1, PAGE_LEN, PAGE_LEN + 1, 3 * PAGE_LEN + 5] {
            let mut v = numbers(n);
            v.iter_mut().for_each(|x| *x += 1);
            assert_eq!(v, PagedVec::from_vec((1..=n).collect()), "unused slots stay blank");
        }
    }

    #[test]
    fn push_and_swap_remove_behave_like_a_vec() {
        let mut paged = PagedVec::default();
        let mut plain = Vec::new();
        for i in 0..(2 * PAGE_LEN + 3) {
            paged.push(i);
            plain.push(i);
        }
        // Remove from the middle of a page, across a boundary, and the last
        // element of a page until whole pages disappear.
        for at in [5, PAGE_LEN, 0, 2 * PAGE_LEN - 1] {
            assert_eq!(paged.swap_remove(at), Some(plain.swap_remove(at)));
        }
        while let Some(&last) = plain.last() {
            assert_eq!(paged.swap_remove(plain.len() - 1), Some(last));
            plain.pop();
            assert_eq!(paged, PagedVec::from_vec(plain.clone()), "page boundaries stay canonical");
        }
        assert_eq!(paged.swap_remove(0), None);
        assert_eq!(paged, PagedVec::default());
    }

    #[test]
    fn mutation_copies_only_the_touched_page() {
        let base = numbers(3 * PAGE_LEN);
        let mut next = base.clone();
        assert_eq!(next.unshared_pages(&base).count(), 0);
        next[PAGE_LEN + 1] = 7;
        assert_eq!(next.unshared_pages(&base).collect::<Vec<_>>(), vec![1]);
        assert_eq!(base[PAGE_LEN + 1], PAGE_LEN + 1, "the source never sees the write");
        // A push onto a full last page adds a page and copies none.
        let mut grown = base.clone();
        grown.push(0);
        assert_eq!(grown.unshared_pages(&base).collect::<Vec<_>>(), vec![3]);
        *grown.get_mut(0).unwrap() = 9;
        assert_eq!(grown.unshared_pages(&base).collect::<Vec<_>>(), vec![0, 3]);
    }
}

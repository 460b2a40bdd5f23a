//! Heap files: an append-friendly collection of slotted pages per table,
//! with a free-space hint, a free-space index, and explicit page allocation
//! (the `allocate page` path of Figure 1 — taken only when no existing page
//! fits the record).

use std::collections::HashMap;

use crate::error::{StorageError, StorageResult};
use crate::page::SlottedPage;
use crate::rid::Rid;

/// Global page-id allocator shared by heaps and indexes so every page in
/// the database has a unique id (and therefore a unique data-block range).
#[derive(Debug, Default)]
pub struct PageAllocator {
    next: u64,
}

impl PageAllocator {
    /// Fresh allocator starting at page 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next page id.
    pub fn alloc(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Number of pages allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

/// Result of a heap insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapInsert {
    /// Where the record landed.
    pub rid: Rid,
    /// Whether a new page had to be allocated (drives the `allocate page`
    /// instrumentation).
    pub allocated_page: bool,
}

/// Free bytes a page needs to stop the insert hint (see
/// [`HeapFile::insert`]).
const HINT_OPEN_BYTES: usize = 64;

/// A max-tree over one value per page: answers "first page at index
/// `>= lo` whose value is `>= need`" in O(log pages).
#[derive(Debug, Default)]
struct MaxTree {
    /// Implicit binary tree: node `k` has children `2k` and `2k + 1`, and
    /// leaf `i` is node `leaves + i`. Node 0 is unused; leaves past the
    /// last page hold 0.
    nodes: Vec<u16>,
    /// Number of leaves, a power of two (0 while empty).
    leaves: usize,
}

impl MaxTree {
    /// Set leaf `i` (growing the tree as needed) and its ancestors.
    fn set(&mut self, i: usize, value: usize) {
        if i >= self.leaves {
            self.grow(i + 1);
        }
        let mut k = self.leaves + i;
        self.nodes[k] = u16::try_from(value).expect("page free space fits in u16");
        while k > 1 {
            k /= 2;
            let max = self.nodes[2 * k].max(self.nodes[2 * k + 1]);
            if self.nodes[k] == max {
                break;
            }
            self.nodes[k] = max;
        }
    }

    /// Rebuild with room for at least `n` leaves.
    fn grow(&mut self, n: usize) {
        let leaves = n.next_power_of_two().max(2 * self.leaves);
        let mut nodes = vec![0u16; 2 * leaves];
        if self.leaves > 0 {
            nodes[leaves..leaves + self.leaves].copy_from_slice(&self.nodes[self.leaves..]);
        }
        for k in (1..leaves).rev() {
            nodes[k] = nodes[2 * k].max(nodes[2 * k + 1]);
        }
        self.nodes = nodes;
        self.leaves = leaves;
    }

    /// The first leaf at index `>= lo` whose value is `>= need`.
    fn first_at_least(&self, lo: usize, need: usize) -> Option<usize> {
        self.descend(1, 0, self.leaves, lo, need)
    }

    fn descend(
        &self,
        k: usize,
        start: usize,
        width: usize,
        lo: usize,
        need: usize,
    ) -> Option<usize> {
        if width == 0 || start + width <= lo || usize::from(self.nodes[k]) < need {
            return None;
        }
        if width == 1 {
            return Some(start);
        }
        let half = width / 2;
        self.descend(2 * k, start, half, lo, need)
            .or_else(|| self.descend(2 * k + 1, start + half, half, lo, need))
    }
}

/// A table's record storage.
#[derive(Debug, Default)]
pub struct HeapFile {
    /// Pages in allocation order.
    pages: Vec<(u64, SlottedPage)>,
    /// page id -> index in `pages`.
    by_id: HashMap<u64, usize>,
    /// Where an insert starts looking for space. It follows a fixed rule
    /// (see [`HeapFile::insert`]) rather than tracking the first page with
    /// room: a full page of 100-byte rows keeps exactly 64 free bytes and
    /// stops the hint for good, so the hint alone cannot bound the search.
    /// `fit_index` finds the page; the hint only fixes where the search
    /// begins, and so which page a record lands on.
    free_hint: usize,
    /// Per page, the largest insertable record
    /// ([`SlottedPage::insert_capacity`]).
    fit_index: MaxTree,
    /// Per page, [`SlottedPage::total_free`], for advancing the hint.
    open_index: MaxTree,
}

impl HeapFile {
    /// An empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total live records.
    pub fn n_records(&self) -> usize {
        self.pages.iter().map(|(_, p)| p.n_records()).sum()
    }

    /// Insert a record into the first page at or after the hint that fits
    /// it, allocating a page if none does.
    ///
    /// The hint then skips the leading run of pages that neither fit the
    /// record nor have 64 bytes free, stopping at the page that took the
    /// record. Both steps are tree queries, so an insert costs
    /// O(log pages) whatever the hint does.
    pub fn insert(
        &mut self,
        alloc: &mut PageAllocator,
        record: &[u8],
    ) -> StorageResult<HeapInsert> {
        assert!(!record.is_empty(), "empty records are not representable");
        if record.len() > crate::page::PAGE_BYTES - 64 {
            return Err(StorageError::RecordTooLarge { size: record.len() });
        }
        let found = self.fit_index.first_at_least(self.free_hint, record.len());
        let open = self
            .open_index
            .first_at_least(self.free_hint, HINT_OPEN_BYTES)
            .unwrap_or(self.pages.len());
        self.free_hint = found.unwrap_or(self.pages.len()).min(open);
        if let Some(i) = found {
            let slot = self.pages[i].1.insert(record).expect("fit index checked");
            self.refresh(i);
            return Ok(HeapInsert {
                rid: Rid::new(self.pages[i].0, slot),
                allocated_page: false,
            });
        }
        // Allocate a fresh page.
        let pid = alloc.alloc();
        let mut page = SlottedPage::new();
        let slot = page
            .insert(record)
            .expect("fresh page fits any legal record");
        self.by_id.insert(pid, self.pages.len());
        self.pages.push((pid, page));
        self.refresh(self.pages.len() - 1);
        Ok(HeapInsert {
            rid: Rid::new(pid, slot),
            allocated_page: true,
        })
    }

    /// Re-index page `idx` after its free space changed.
    fn refresh(&mut self, idx: usize) {
        let page = &self.pages[idx].1;
        self.fit_index.set(idx, page.insert_capacity());
        self.open_index.set(idx, page.total_free());
    }

    /// Read a record.
    pub fn get(&self, rid: Rid) -> StorageResult<&[u8]> {
        self.page(rid.page)
            .and_then(|p| p.get(rid.slot))
            .ok_or(StorageError::InvalidRid(rid))
    }

    /// Byte offset of a record within its page (for address mapping).
    pub fn record_offset(&self, rid: Rid) -> StorageResult<usize> {
        self.page(rid.page)
            .and_then(|p| p.record_offset(rid.slot))
            .ok_or(StorageError::InvalidRid(rid))
    }

    /// Overwrite a record in place (may relocate within its page).
    pub fn update(&mut self, rid: Rid, record: &[u8]) -> StorageResult<()> {
        let idx = self.index_of(rid)?;
        let result = self.pages[idx]
            .1
            .update(rid.slot, record)
            .map_err(|_| StorageError::RecordTooLarge { size: record.len() });
        self.refresh(idx);
        result
    }

    /// Delete a record.
    pub fn delete(&mut self, rid: Rid) -> StorageResult<()> {
        let idx = self.index_of(rid)?;
        if self.pages[idx].1.delete(rid.slot) {
            self.refresh(idx);
            // Freed space: the hint may move back to reuse it.
            self.free_hint = self.free_hint.min(idx);
            Ok(())
        } else {
            Err(StorageError::InvalidRid(rid))
        }
    }

    /// Borrow a page by id.
    pub fn page(&self, page_id: u64) -> Option<&SlottedPage> {
        self.by_id.get(&page_id).map(|&i| &self.pages[i].1)
    }

    /// Set the LSN of the page holding `rid`. Pages are not lent out
    /// mutably: every change to free space goes through a method that
    /// re-indexes the page.
    pub fn set_page_lsn(&mut self, rid: Rid, lsn: u64) -> StorageResult<()> {
        let idx = self.index_of(rid)?;
        self.pages[idx].1.set_page_lsn(lsn);
        Ok(())
    }

    fn index_of(&self, rid: Rid) -> StorageResult<usize> {
        self.by_id
            .get(&rid.page)
            .copied()
            .ok_or(StorageError::InvalidRid(rid))
    }

    /// Iterate `(rid, record)` over all live records.
    pub fn iter(&self) -> impl Iterator<Item = (Rid, &[u8])> {
        self.pages
            .iter()
            .flat_map(|(pid, page)| page.iter().map(move |(slot, r)| (Rid::new(*pid, slot), r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let ins = h.insert(&mut alloc, b"record-1").unwrap();
        assert!(ins.allocated_page, "first insert allocates");
        assert_eq!(h.get(ins.rid).unwrap(), b"record-1");
        let ins2 = h.insert(&mut alloc, b"record-2").unwrap();
        assert!(!ins2.allocated_page, "second insert reuses the page");
        assert_eq!(h.n_pages(), 1);
        assert_eq!(h.n_records(), 2);
    }

    #[test]
    fn allocates_new_pages_as_needed() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let rec = [9u8; 2000];
        let mut allocations = 0;
        for _ in 0..20 {
            if h.insert(&mut alloc, &rec).unwrap().allocated_page {
                allocations += 1;
            }
        }
        // 8 KB page holds 4 x 2 KB records -> 5 pages for 20 records.
        assert_eq!(h.n_pages(), 5);
        assert_eq!(allocations, 5);
        assert_eq!(alloc.allocated(), 5);
    }

    #[test]
    fn update_and_delete() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let rid = h.insert(&mut alloc, b"before").unwrap().rid;
        h.update(rid, b"after!").unwrap();
        assert_eq!(h.get(rid).unwrap(), b"after!");
        h.delete(rid).unwrap();
        assert_eq!(h.get(rid), Err(StorageError::InvalidRid(rid)));
        assert_eq!(h.delete(rid), Err(StorageError::InvalidRid(rid)));
    }

    #[test]
    fn deleted_space_is_reused() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let rec = [1u8; 2000];
        let mut rids = Vec::new();
        for _ in 0..8 {
            rids.push(h.insert(&mut alloc, &rec).unwrap().rid);
        }
        let pages_before = h.n_pages();
        h.delete(rids[0]).unwrap();
        let ins = h.insert(&mut alloc, &rec).unwrap();
        assert!(!ins.allocated_page, "freed slot should be reused");
        assert_eq!(h.n_pages(), pages_before);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let huge = vec![0u8; 9000];
        assert!(matches!(
            h.insert(&mut alloc, &huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn iter_covers_all_records() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        for i in 0..100u8 {
            h.insert(&mut alloc, &[i; 300]).unwrap();
        }
        assert_eq!(h.iter().count(), 100);
        let mut seen: Vec<u8> = h.iter().map(|(_, r)| r[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn small_records_fill_the_tails_the_hint_stops_at() {
        // 78 rows of 100 bytes (plus 4-byte slots) leave exactly 64 free
        // bytes per page, so the hint never leaves page 0.
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        for _ in 0..78 * 5 {
            h.insert(&mut alloc, &[1u8; 100]).unwrap();
        }
        assert_eq!(h.n_pages(), 5);
        assert_eq!(h.free_hint, 0);
        // A 60-byte row fills page 0's tail; the next one skips the now
        // full page 0 and fills page 1's.
        for page in 0..2 {
            let ins = h.insert(&mut alloc, &[2u8; 60]).unwrap();
            assert_eq!(ins.rid.page, h.pages[page].0);
            assert!(!ins.allocated_page);
        }
        assert_eq!(h.free_hint, 1);
        // A 100-byte row fits nowhere and allocates.
        assert!(h.insert(&mut alloc, &[3u8; 100]).unwrap().allocated_page);
    }

    #[test]
    fn max_tree_finds_the_first_fit_at_or_after_lo() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut tree = MaxTree::default();
        let mut values: Vec<usize> = Vec::new();
        for round in 0..2000 {
            if values.is_empty() || rng.gen_range(0..3u32) == 0 {
                values.push(rng.gen_range(0..200));
                tree.set(values.len() - 1, *values.last().unwrap());
            } else {
                let i = rng.gen_range(0..values.len());
                values[i] = rng.gen_range(0..200);
                tree.set(i, values[i]);
            }
            let lo = rng.gen_range(0..=values.len());
            let need = rng.gen_range(1..220);
            let want = (lo..values.len()).find(|&i| values[i] >= need);
            assert_eq!(tree.first_at_least(lo, need), want, "round {round}");
        }
    }

    #[test]
    fn record_offset_within_page() {
        let mut alloc = PageAllocator::new();
        let mut h = HeapFile::new();
        let rid = h.insert(&mut alloc, b"xyz").unwrap().rid;
        let off = h.record_offset(rid).unwrap();
        assert!(off < crate::page::PAGE_BYTES);
    }
}

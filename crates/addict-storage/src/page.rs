//! Slotted pages: the 8 KB on-"disk" record container.
//!
//! Layout (offsets in bytes):
//!
//! ```text
//! 0..8      page LSN (u64 little endian)
//! 8..10     number of slots (u16)
//! 10..12    free_end: start of the record area (u16)
//! 12..16    reserved
//! 16..      slot array, 4 bytes per slot: record offset (u16), length (u16)
//! ...       free space
//! free_end..8192   record bytes, growing downward
//! ```
//!
//! A slot with length `0` is a tombstone and can be reused. Updates that fit
//! shrink in place; growing updates relocate within the page. When
//! fragmentation blocks an insert that total free space allows, the page
//! compacts itself.

/// Page size in bytes; must agree with `addict_trace::layout::PAGE_BYTES`
/// (checked by a test below) so data-block addresses line up.
pub const PAGE_BYTES: usize = 8192;

/// Page-local allocation failure: not enough space even after compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoSpace;

const HEADER_BYTES: usize = 16;
const SLOT_BYTES: usize = 4;

/// An 8 KB slotted page holding raw record bytes.
#[derive(Clone)]
pub struct SlottedPage {
    buf: Box<[u8]>,
    /// Bytes occupied by deleted/shrunk records, reclaimable by compaction.
    dead_bytes: usize,
    /// Number of tombstone slots (length `0`), so the common no-tombstone
    /// case answers [`SlottedPage::fits`] without walking the slot array.
    tombstones: usize,
}

impl std::fmt::Debug for SlottedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlottedPage")
            .field("n_slots", &self.n_slots())
            .field("records", &self.n_records())
            .field("contiguous_free", &self.contiguous_free())
            .finish()
    }
}

impl SlottedPage {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut page = SlottedPage {
            buf: vec![0u8; PAGE_BYTES].into_boxed_slice(),
            dead_bytes: 0,
            tombstones: 0,
        };
        page.set_free_end(PAGE_BYTES as u16);
        page
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// The page LSN (WAL coupling: set after every logged change).
    pub fn page_lsn(&self) -> u64 {
        u64::from_le_bytes(self.buf[0..8].try_into().expect("8 bytes"))
    }

    /// Set the page LSN.
    pub fn set_page_lsn(&mut self, lsn: u64) {
        self.buf[0..8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of slots (including tombstones).
    pub fn n_slots(&self) -> u16 {
        self.read_u16(8)
    }

    fn set_n_slots(&mut self, n: u16) {
        self.write_u16(8, n);
    }

    fn free_end(&self) -> usize {
        usize::from(self.read_u16(10))
    }

    fn set_free_end(&mut self, v: u16) {
        self.write_u16(10, v);
    }

    fn slot_at(&self, slot: u16) -> (usize, usize) {
        let base = HEADER_BYTES + usize::from(slot) * SLOT_BYTES;
        (
            usize::from(self.read_u16(base)),
            usize::from(self.read_u16(base + 2)),
        )
    }

    fn set_slot(&mut self, slot: u16, offset: usize, len: usize) {
        let base = HEADER_BYTES + usize::from(slot) * SLOT_BYTES;
        self.write_u16(base, offset as u16);
        self.write_u16(base + 2, len as u16);
    }

    /// End of the slot array / start of free space.
    fn free_start(&self) -> usize {
        HEADER_BYTES + usize::from(self.n_slots()) * SLOT_BYTES
    }

    /// Contiguous free bytes between the slot array and the record area.
    pub fn contiguous_free(&self) -> usize {
        self.free_end().saturating_sub(self.free_start())
    }

    /// Total reclaimable free bytes (contiguous + dead).
    pub fn total_free(&self) -> usize {
        self.contiguous_free() + self.dead_bytes
    }

    /// Number of live records.
    pub fn n_records(&self) -> usize {
        (0..self.n_slots())
            .filter(|&s| self.slot_at(s).1 > 0)
            .count()
    }

    /// Number of tombstone slots, reusable by the next insert.
    pub fn n_tombstones(&self) -> usize {
        self.tombstones
    }

    /// Slot-array bytes the next insert costs: none when it can reuse a
    /// tombstone.
    fn slot_cost(&self) -> usize {
        if self.tombstones > 0 {
            0
        } else {
            SLOT_BYTES
        }
    }

    /// The largest record `insert` accepts: `fits(len)` holds exactly for
    /// `1..=insert_capacity()`.
    pub(crate) fn insert_capacity(&self) -> usize {
        self.total_free().saturating_sub(self.slot_cost())
    }

    /// Would `insert` of `len` bytes succeed?
    pub fn fits(&self, len: usize) -> bool {
        self.total_free() >= len + self.slot_cost()
    }

    fn find_tombstone(&self) -> Option<u16> {
        if self.tombstones == 0 {
            return None;
        }
        (0..self.n_slots()).find(|&s| self.slot_at(s).1 == 0)
    }

    /// Insert a record; returns its slot.
    ///
    /// # Errors
    /// [`NoSpace`] if the record cannot fit even after compaction.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16, NoSpace> {
        assert!(!record.is_empty(), "empty records are not representable");
        assert!(
            record.len() <= PAGE_BYTES - HEADER_BYTES - SLOT_BYTES,
            "record exceeds page"
        );
        let reuse = self.find_tombstone();
        let slot_cost = if reuse.is_some() { 0 } else { SLOT_BYTES };
        if self.contiguous_free() < record.len() + slot_cost {
            if self.total_free() < record.len() + slot_cost {
                return Err(NoSpace);
            }
            self.compact();
            if self.contiguous_free() < record.len() + slot_cost {
                return Err(NoSpace);
            }
        }
        let slot = match reuse {
            Some(s) => {
                self.tombstones -= 1;
                s
            }
            None => {
                let s = self.n_slots();
                self.set_n_slots(s + 1);
                s
            }
        };
        let offset = self.free_end() - record.len();
        self.buf[offset..offset + record.len()].copy_from_slice(record);
        self.set_free_end(offset as u16);
        self.set_slot(slot, offset, record.len());
        Ok(slot)
    }

    /// Read a record's bytes.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.n_slots() {
            return None;
        }
        let (offset, len) = self.slot_at(slot);
        (len > 0).then(|| &self.buf[offset..offset + len])
    }

    /// Byte offset of a record within the page (for data-block address
    /// mapping), if live.
    pub fn record_offset(&self, slot: u16) -> Option<usize> {
        if slot >= self.n_slots() {
            return None;
        }
        let (offset, len) = self.slot_at(slot);
        (len > 0).then_some(offset)
    }

    /// Overwrite a record. Shrinks in place; grows by relocating within the
    /// page (compacting if needed).
    ///
    /// # Errors
    /// [`NoSpace`] if growth cannot be accommodated. The original record is
    /// left intact in that case.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Result<(), NoSpace> {
        assert!(!record.is_empty(), "empty records are not representable");
        if slot >= self.n_slots() || self.slot_at(slot).1 == 0 {
            return Err(NoSpace);
        }
        let (offset, len) = self.slot_at(slot);
        if record.len() <= len {
            // In place; tail bytes become dead.
            self.buf[offset..offset + record.len()].copy_from_slice(record);
            self.set_slot(slot, offset, record.len());
            self.dead_bytes += len - record.len();
            return Ok(());
        }
        // Relocate. Every byte not held by a live record is reclaimable, so
        // once the old copy is freed, compaction leaves `total_free() + len`
        // contiguous bytes: this check is the only way growth can fail.
        if self.total_free() + len < record.len() {
            return Err(NoSpace);
        }
        // Free the old copy first so compaction can reclaim it. The slot is
        // rewritten below, so it never counts as a tombstone.
        self.set_slot(slot, 0, 0);
        self.dead_bytes += len;
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        debug_assert!(self.contiguous_free() >= record.len());
        let new_offset = self.free_end() - record.len();
        self.buf[new_offset..new_offset + record.len()].copy_from_slice(record);
        self.set_free_end(new_offset as u16);
        self.set_slot(slot, new_offset, record.len());
        Ok(())
    }

    /// Delete a record; its slot becomes a tombstone. Returns whether the
    /// slot was live.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.n_slots() {
            return false;
        }
        let (_, len) = self.slot_at(slot);
        if len == 0 {
            return false;
        }
        self.set_slot(slot, 0, 0);
        self.dead_bytes += len;
        self.tombstones += 1;
        true
    }

    /// Squeeze out dead bytes, preserving slot ids.
    fn compact(&mut self) {
        let mut live: Vec<(u16, usize, usize)> = (0..self.n_slots())
            .filter_map(|s| {
                let (off, len) = self.slot_at(s);
                (len > 0).then_some((s, off, len))
            })
            .collect();
        // Pack from the end of the page downward, processing records from
        // highest offset first so moves never overlap incorrectly.
        live.sort_by_key(|&(_, off, _)| std::cmp::Reverse(off));
        let mut cursor = PAGE_BYTES;
        for (slot, off, len) in live {
            cursor -= len;
            self.buf.copy_within(off..off + len, cursor);
            self.set_slot(slot, cursor, len);
        }
        self.set_free_end(cursor as u16);
        self.dead_bytes = 0;
    }

    /// Iterate live records as `(slot, bytes)`.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.n_slots()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }
}

impl Default for SlottedPage {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_roundtrip() {
        let mut p = SlottedPage::new();
        let s1 = p.insert(b"hello").unwrap();
        let s2 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s1), Some(&b"hello"[..]));
        assert_eq!(p.get(s2), Some(&b"world!"[..]));
        assert_eq!(p.n_records(), 2);
    }

    #[test]
    fn delete_tombstones_and_reuses_slot() {
        let mut p = SlottedPage::new();
        let s1 = p.insert(b"aaaa").unwrap();
        let _s2 = p.insert(b"bbbb").unwrap();
        assert!(p.delete(s1));
        assert_eq!(p.get(s1), None);
        assert!(!p.delete(s1), "double delete is a no-op");
        let s3 = p.insert(b"cccc").unwrap();
        assert_eq!(s3, s1, "tombstone slot reused");
        assert_eq!(p.get(s3), Some(&b"cccc"[..]));
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"0123456789").unwrap();
        p.update(s, b"abc").unwrap();
        assert_eq!(p.get(s), Some(&b"abc"[..]));
        p.update(s, b"a-much-longer-record-body").unwrap();
        assert_eq!(p.get(s), Some(&b"a-much-longer-record-body"[..]));
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let mut p = SlottedPage::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        assert!(
            n >= 70,
            "8 KB page should hold at least 70 x 104-byte entries, got {n}"
        );
        assert_eq!(p.insert(&rec), Err(NoSpace));
        // Deleting one makes room for exactly one more.
        assert!(p.delete(0));
        p.insert(&rec).unwrap();
        assert_eq!(p.insert(&rec), Err(NoSpace));
    }

    #[test]
    fn compaction_reclaims_fragmentation() {
        let mut p = SlottedPage::new();
        let small = [1u8; 64];
        let mut slots = Vec::new();
        while p.fits(small.len()) {
            slots.push(p.insert(&small).unwrap());
        }
        // Free every other record: plenty of total space, all fragmented.
        for (i, &s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                p.delete(s);
            }
        }
        // A record larger than any single hole still fits via compaction.
        let big = [2u8; 1000];
        let s = p.insert(&big).unwrap();
        assert_eq!(p.get(s), Some(&big[..]));
        // Survivors are intact.
        for (i, &s2) in slots.iter().enumerate() {
            if i % 2 == 1 && s2 != s {
                assert_eq!(
                    p.get(s2),
                    Some(&small[..]),
                    "slot {s2} corrupted by compaction"
                );
            }
        }
    }

    #[test]
    fn failed_grow_leaves_record_intact() {
        let mut p = SlottedPage::new();
        let s = p.insert(&[3u8; 100]).unwrap();
        // Fill the rest.
        while p.fits(100) {
            p.insert(&[4u8; 100]).unwrap();
        }
        let huge = vec![5u8; 4000];
        assert_eq!(p.update(s, &huge), Err(NoSpace));
        assert_eq!(p.get(s), Some(&[3u8; 100][..]));
        assert_eq!(p.n_tombstones(), 0);
        // With a tombstone present, failed growth leaves it the only one.
        assert!(p.delete(s + 1));
        assert_eq!(p.update(s, &huge), Err(NoSpace));
        assert_eq!(p.get(s), Some(&[3u8; 100][..]));
        assert_eq!(p.n_tombstones(), 1);
    }

    #[test]
    fn tombstone_count_tracks_delete_reuse_and_relocation() {
        let mut p = SlottedPage::new();
        let slots: Vec<u16> = (0..4u8).map(|i| p.insert(&[i; 50]).unwrap()).collect();
        assert!(p.delete(slots[1]) && p.delete(slots[2]));
        assert!(
            !p.delete(slots[2]),
            "double delete is not a second tombstone"
        );
        assert_eq!(p.n_tombstones(), 2);
        // Growth relocates through a transient tombstone: no net change.
        p.update(slots[0], &[9u8; 500]).unwrap();
        assert_eq!(p.n_tombstones(), 2);
        // Reuse takes the lowest tombstone first.
        assert_eq!(p.insert(b"x").unwrap(), slots[1]);
        assert_eq!(p.n_tombstones(), 1);
        assert_eq!(p.insert(b"y").unwrap(), slots[2]);
        assert_eq!(p.n_tombstones(), 0);
        assert_eq!(p.insert(b"z").unwrap(), 4, "no tombstone left: new slot");
    }

    #[test]
    fn page_lsn_roundtrip() {
        let mut p = SlottedPage::new();
        assert_eq!(p.page_lsn(), 0);
        p.set_page_lsn(0xDEADBEEF);
        assert_eq!(p.page_lsn(), 0xDEADBEEF);
        // LSN survives inserts and compaction.
        p.insert(b"x").unwrap();
        assert_eq!(p.page_lsn(), 0xDEADBEEF);
    }

    #[test]
    fn iter_yields_live_records_only() {
        let mut p = SlottedPage::new();
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b);
        let live: Vec<_> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(live, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    #[test]
    fn page_size_agrees_with_trace_layout() {
        assert_eq!(PAGE_BYTES as u64, addict_trace::layout::PAGE_BYTES);
    }

    #[test]
    fn record_offset_points_at_bytes() {
        let mut p = SlottedPage::new();
        let s = p.insert(b"needle").unwrap();
        let off = p.record_offset(s).unwrap();
        assert!((HEADER_BYTES..PAGE_BYTES).contains(&off));
        assert_eq!(p.record_offset(99), None);
    }
}

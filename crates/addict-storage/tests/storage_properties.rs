//! Property-based tests: the B+-tree against a `BTreeMap` model, slotted
//! pages against a vector-of-records model, and the heap file against a
//! linear-scan reference heap.

use std::collections::{BTreeMap, HashMap};

use addict_storage::btree::BTree;
use addict_storage::heap::{HeapFile, HeapInsert, PageAllocator};
use addict_storage::page::SlottedPage;
use addict_storage::rid::Rid;
use addict_storage::StorageError;
use proptest::prelude::*;

/// Operations the B+-tree model understands.
#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u64),
    Delete(u64),
    Probe(u64),
    Range(u64, u64),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    // A small key universe maximizes collisions, duplicates, and deletes of
    // present keys — the interesting cases.
    let key = 0u64..2000;
    prop_oneof![
        4 => (key.clone(), any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        2 => key.clone().prop_map(TreeOp::Delete),
        2 => key.clone().prop_map(TreeOp::Probe),
        1 => (key.clone(), key).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

/// The placement reference for [`HeapFile`]: a linear scan of every page
/// from the hint, with a `fits` that walks the slot array for a
/// tombstone.
#[derive(Default)]
struct LinearScanHeap {
    pages: Vec<(u64, SlottedPage)>,
    by_id: HashMap<u64, usize>,
    free_hint: usize,
}

impl LinearScanHeap {
    fn fits(page: &SlottedPage, len: usize) -> bool {
        let has_tombstone = (0..page.n_slots()).any(|s| page.get(s).is_none());
        page.total_free() >= len + if has_tombstone { 0 } else { 4 }
    }

    fn insert(&mut self, alloc: &mut PageAllocator, record: &[u8]) -> HeapInsert {
        for i in self.free_hint..self.pages.len() {
            let (pid, page) = &mut self.pages[i];
            if Self::fits(page, record.len()) {
                let slot = page.insert(record).expect("fits");
                return HeapInsert {
                    rid: Rid::new(*pid, slot),
                    allocated_page: false,
                };
            }
            if i == self.free_hint && page.total_free() < 64 {
                self.free_hint += 1;
            }
        }
        let pid = alloc.alloc();
        let mut page = SlottedPage::new();
        let slot = page.insert(record).expect("fresh page");
        self.by_id.insert(pid, self.pages.len());
        self.pages.push((pid, page));
        HeapInsert {
            rid: Rid::new(pid, slot),
            allocated_page: true,
        }
    }

    fn update(&mut self, rid: Rid, record: &[u8]) -> bool {
        let Some(&i) = self.by_id.get(&rid.page) else {
            return false;
        };
        self.pages[i].1.update(rid.slot, record).is_ok()
    }

    fn delete(&mut self, rid: Rid) -> bool {
        let Some(&i) = self.by_id.get(&rid.page) else {
            return false;
        };
        let deleted = self.pages[i].1.delete(rid.slot);
        if deleted {
            self.free_hint = self.free_hint.min(i);
        }
        deleted
    }
}

/// Heap operations; `usize` targets index the live-record list.
#[derive(Debug, Clone)]
enum HeapOp {
    Insert(usize),
    Update(usize, usize),
    Delete(usize),
}

/// Record sizes: 100-byte rows leave a full page with exactly 64 free
/// bytes (the hint stops there for good), rows of at most 60 bytes still
/// fit into such a page, and wide rows fill pages in a few inserts.
fn record_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        4 => Just(100usize),
        3 => 1usize..61,
        2 => 61usize..400,
        1 => 400usize..3000,
    ]
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        6 => record_len().prop_map(HeapOp::Insert),
        2 => (any::<usize>(), record_len()).prop_map(|(t, len)| HeapOp::Update(t, len)),
        2 => any::<usize>().prop_map(HeapOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The B+-tree behaves exactly like BTreeMap under arbitrary operation
    /// sequences, and its structural invariants hold after every mutation.
    #[test]
    fn btree_matches_model(ops in prop::collection::vec(tree_op(), 1..400)) {
        let mut alloc = PageAllocator::new();
        // Tiny fanout so a few hundred keys build a deep tree with constant
        // splits and merges.
        let mut tree = BTree::with_max_keys(&mut alloc, 4);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let tree_result = tree.insert(&mut alloc, k, v);
                    match model.entry(k) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(tree_result.is_err(), "duplicate {k} accepted");
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            prop_assert!(tree_result.is_ok(), "fresh insert of {k} rejected");
                            slot.insert(v);
                        }
                    }
                    tree.check_invariants();
                }
                TreeOp::Delete(k) => {
                    let tree_result = tree.delete(k);
                    match model.remove(&k) {
                        Some(v) => {
                            let r = tree_result.expect("model had the key");
                            prop_assert_eq!(r.value, v);
                        }
                        None => prop_assert!(tree_result.is_err(), "phantom delete of {k}"),
                    }
                    tree.check_invariants();
                }
                TreeOp::Probe(k) => {
                    prop_assert_eq!(tree.probe(k).value, model.get(&k).copied());
                }
                TreeOp::Range(lo, hi) => {
                    let got: Vec<(u64, u64)> = tree.range(lo, true, hi, true).items;
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
    }

    /// Scans honor all four inclusivity combinations.
    #[test]
    fn btree_range_inclusivity(
        keys in prop::collection::btree_set(0u64..500, 1..100),
        lo in 0u64..500,
        hi in 0u64..500,
        lo_inc in any::<bool>(),
        hi_inc in any::<bool>(),
    ) {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let mut alloc = PageAllocator::new();
        let mut tree = BTree::with_max_keys(&mut alloc, 6);
        for &k in &keys {
            tree.insert(&mut alloc, k, k).unwrap();
        }
        let got: Vec<u64> =
            tree.range(lo, lo_inc, hi, hi_inc).items.iter().map(|&(k, _)| k).collect();
        let want: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| {
                (if lo_inc { k >= lo } else { k > lo }) && (if hi_inc { k <= hi } else { k < hi })
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The indexed heap places every record exactly where the linear scan
    /// does: same rid, same page allocations, same update and delete
    /// outcomes, over mixed record sizes.
    #[test]
    fn heap_matches_linear_scan(ops in prop::collection::vec(heap_op(), 1..600)) {
        let (mut alloc, mut model_alloc) = (PageAllocator::new(), PageAllocator::new());
        let mut heap = HeapFile::new();
        let mut model = LinearScanHeap::default();
        let mut live: Vec<Rid> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                HeapOp::Insert(len) => {
                    let record = vec![(step % 251) as u8; len];
                    let got = heap.insert(&mut alloc, &record).unwrap();
                    let want = model.insert(&mut model_alloc, &record);
                    prop_assert_eq!(got, want, "insert of {} bytes at step {}", len, step);
                    live.push(got.rid);
                }
                HeapOp::Update(target, len) => {
                    if live.is_empty() {
                        continue;
                    }
                    let rid = live[target % live.len()];
                    let record = vec![(step % 251) as u8; len];
                    let got = heap.update(rid, &record);
                    let want = model.update(rid, &record);
                    prop_assert_eq!(got.is_ok(), want, "update of {:?} at step {}", rid, step);
                    if let Err(e) = got {
                        prop_assert_eq!(e, StorageError::RecordTooLarge { size: len });
                    }
                }
                HeapOp::Delete(target) => {
                    if live.is_empty() {
                        continue;
                    }
                    let rid = live.swap_remove(target % live.len());
                    prop_assert!(heap.delete(rid).is_ok());
                    prop_assert!(model.delete(rid));
                    prop_assert_eq!(heap.delete(rid), Err(StorageError::InvalidRid(rid)));
                }
            }
            prop_assert_eq!(heap.n_pages(), model.pages.len());
            prop_assert_eq!(alloc.allocated(), model_alloc.allocated());
        }
        prop_assert_eq!(heap.n_records(), live.len());
    }

    /// Slotted pages: whatever sequence of inserts/updates/deletes runs, the
    /// live records always read back exactly.
    #[test]
    fn page_matches_model(ops in prop::collection::vec((0u8..3, 0usize..40, 1usize..300), 1..200)) {
        let mut page = SlottedPage::new();
        let mut model: Vec<Option<Vec<u8>>> = Vec::new(); // by slot
        let mut live = 0usize;
        for (kind, target, len) in ops {
            let payload = vec![(len % 251) as u8; len];
            match kind {
                0 => {
                    // Insert.
                    if let Ok(slot) = page.insert(&payload) {
                        let slot = slot as usize;
                        if slot == model.len() {
                            model.push(Some(payload));
                        } else {
                            prop_assert!(model[slot].is_none(), "reused a live slot");
                            model[slot] = Some(payload);
                        }
                        live += 1;
                    }
                }
                1 => {
                    // Update an existing live slot, if any.
                    let slot = if model.is_empty() { 0 } else { target % model.len() };
                    let is_live = model.get(slot).is_some_and(Option::is_some);
                    let r = page.update(slot as u16, &payload);
                    if !is_live {
                        prop_assert!(r.is_err(), "update of dead slot succeeded");
                    } else if r.is_ok() {
                        model[slot] = Some(payload);
                    }
                }
                _ => {
                    // Delete.
                    let slot = if model.is_empty() { 0 } else { target % model.len() };
                    let is_live = model.get(slot).is_some_and(Option::is_some);
                    let deleted = page.delete(slot as u16);
                    prop_assert_eq!(deleted, is_live);
                    if deleted {
                        model[slot] = None;
                        live -= 1;
                    }
                }
            }
            // Full read-back check.
            prop_assert_eq!(page.n_records(), live);
            prop_assert_eq!(
                page.n_tombstones(),
                usize::from(page.n_slots()) - live,
                "tombstone count drifted from the zero-length slots"
            );
            for (slot, expect) in model.iter().enumerate() {
                prop_assert_eq!(page.get(slot as u16), expect.as_deref(), "slot {}", slot);
            }
        }
    }
}

#[test]
fn btree_large_sequential_build_and_teardown() {
    let mut alloc = PageAllocator::new();
    let mut tree = BTree::new(&mut alloc);
    for k in 0..50_000u64 {
        tree.insert(&mut alloc, k, k ^ 0xAAAA).unwrap();
    }
    tree.check_invariants();
    assert_eq!(tree.len(), 50_000);
    assert!(tree.height() >= 2);
    for k in (0..50_000u64).rev() {
        assert_eq!(tree.delete(k).unwrap().value, k ^ 0xAAAA);
    }
    assert!(tree.is_empty());
    tree.check_invariants();
}

#[test]
fn btree_random_build_matches_sorted_scan() {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut alloc = PageAllocator::new();
    let mut tree = BTree::with_max_keys(&mut alloc, 32);
    let mut keys: Vec<u64> = (0..10_000u64).collect();
    keys.shuffle(&mut rng);
    for &k in &keys {
        tree.insert(&mut alloc, k, k).unwrap();
    }
    tree.check_invariants();
    let scan = tree.range(0, true, u64::MAX, true);
    assert_eq!(scan.items.len(), 10_000);
    assert!(scan.items.windows(2).all(|w| w[0].0 < w[1].0));
}

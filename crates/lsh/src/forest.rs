//! LSH Forest (Bawa, Condie, Ganesan — WWW 2005).
//!
//! The self-tuning LSH variant the paper uses for all three systems
//! (§V, footnote 5: "LSH Forest configured with a threshold of 0.7 and
//! a MinHash size of 256"). Each of `l` trees indexes items by a
//! fixed-depth label derived from `k` signature positions; querying
//! descends from the deepest shared prefix, so the answer size — not
//! the repository size — dominates search cost.
//!
//! This implementation follows the sorted-array formulation (as in
//! `datasketch`), with each tree stored as a [`FlatTree`]: a
//! contiguous label arena (`Vec<u8>` with a fixed `k`-byte stride)
//! plus a parallel `Vec<ItemId>`. Compared to the per-entry
//! `Box<[u8]>` representation it replaces, the binary searches and
//! prefix-range scans walk one cache-resident byte array instead of
//! chasing a heap pointer per entry, and candidate ids come out of a
//! contiguous `&[ItemId]` slice.
//!
//! Stored signatures are **interned**: each distinct signature is kept
//! once, as a refcounted class in a flat word arena, and every item
//! points to its class. Lakes repeat column names and format
//! patterns, so hundreds of attributes can share one name or format
//! signature; a lookup then scores each distinct signature once
//! instead of once per candidate, and the arena holds the distinct
//! signatures only.
//!
//! Construction is a two-phase builder: [`LshForest::insert`] appends
//! to the per-tree arenas, and an explicit [`LshForest::commit`] (or
//! [`LshForest::commit_parallel`]) sorts them. All query methods take
//! `&self` and require a committed forest, so a built forest can be
//! shared lock-free across query workers. [`LshForest::build_from`]
//! bulk-builds a forest from an item list, parallelizing label
//! generation and tree sorting across trees; because each sorted tree
//! array is a total order over `(label, item)` pairs, the committed
//! forest is byte-identical for every insertion order and thread
//! count.

use serde::{Deserialize, Serialize};

use crate::banded::Signature;
use crate::hash::{IdHashMap, IdHashSet};
use crate::{top_k, Hit, ItemId};

/// Default number of trees.
pub const DEFAULT_TREES: usize = 16;

/// One tree's sorted `(label, item)` entries in cache-flat form:
/// entry `i`'s label occupies `labels[i*k .. (i+1)*k]` and its item id
/// is `ids[i]`. Sorted order is lexicographic on `(label, id)`,
/// exactly the order the historical `Vec<(Box<[u8]>, ItemId)>`
/// representation sorted into.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlatTree {
    /// Label stride in bytes (the tree depth).
    k: usize,
    /// Concatenated fixed-stride labels.
    labels: Vec<u8>,
    /// Item ids, parallel to the label arena.
    ids: Vec<ItemId>,
}

impl FlatTree {
    /// An empty tree with label stride `k`.
    pub fn new(k: usize) -> Self {
        FlatTree {
            k,
            labels: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entry has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Label stride in bytes.
    #[inline]
    pub fn stride(&self) -> usize {
        self.k
    }

    /// Entry `i`'s label.
    #[inline]
    pub fn label_at(&self, i: usize) -> &[u8] {
        &self.labels[i * self.k..(i + 1) * self.k]
    }

    /// Entry `i`'s item id.
    #[inline]
    pub fn id_at(&self, i: usize) -> ItemId {
        self.ids[i]
    }

    /// All item ids in entry order — prefix ranges slice this
    /// directly.
    #[inline]
    pub fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// Pre-allocate space for `n` entries.
    pub fn reserve(&mut self, n: usize) {
        self.labels.reserve(n * self.k);
        self.ids.reserve(n);
    }

    /// Append an entry. Panics unless the label is exactly `k` bytes.
    pub fn push(&mut self, label: &[u8], id: ItemId) {
        assert_eq!(label.len(), self.k, "label width is the tree depth");
        self.labels.extend_from_slice(label);
        self.ids.push(id);
    }

    /// Append an entry whose label bytes `fill` writes straight into
    /// the arena (it must append exactly `k` bytes) — the insert path
    /// uses this to avoid materializing labels in a side buffer.
    pub fn push_with(&mut self, id: ItemId, fill: impl FnOnce(&mut Vec<u8>)) {
        let before = self.labels.len();
        fill(&mut self.labels);
        debug_assert_eq!(
            self.labels.len(),
            before + self.k,
            "label fill must write exactly the stride"
        );
        self.ids.push(id);
    }

    /// Sort entries by `(label, id)` — a permutation sort: indices are
    /// sorted comparing arena slices, then both arrays are gathered
    /// through the permutation in one pass. Entries are unique per
    /// tree (one per item), so this is a total order and the result is
    /// independent of the starting arrangement.
    pub fn sort(&mut self) {
        let n = self.ids.len();
        assert!(n <= u32::MAX as usize, "tree too large for u32 permutation");
        let k = self.k;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            self.labels[a * k..(a + 1) * k]
                .cmp(&self.labels[b * k..(b + 1) * k])
                .then_with(|| self.ids[a].cmp(&self.ids[b]))
        });
        let mut labels = Vec::with_capacity(self.labels.len());
        let mut ids = Vec::with_capacity(n);
        for &p in &perm {
            let p = p as usize;
            labels.extend_from_slice(&self.labels[p * k..(p + 1) * k]);
            ids.push(self.ids[p]);
        }
        self.labels = labels;
        self.ids = ids;
    }

    /// Whether entries are in `(label, id)` sorted order.
    pub fn is_sorted(&self) -> bool {
        (1..self.len())
            .all(|i| (self.label_at(i - 1), self.ids[i - 1]) <= (self.label_at(i), self.ids[i]))
    }

    /// Drop every entry with the given id, in place (one forward
    /// compaction pass over both arrays). Preserves order, so a sorted
    /// tree stays sorted.
    pub fn remove_id(&mut self, id: ItemId) {
        let k = self.k;
        let mut w = 0usize;
        for r in 0..self.ids.len() {
            if self.ids[r] != id {
                if w != r {
                    self.ids[w] = self.ids[r];
                    self.labels.copy_within(r * k..(r + 1) * k, w * k);
                }
                w += 1;
            }
        }
        self.ids.truncate(w);
        self.labels.truncate(w * k);
    }

    /// Index range `[lo, hi)` of entries whose label starts with
    /// `prefix` (requires sorted entries; prefix length must not
    /// exceed the stride).
    pub fn prefix_range(&self, prefix: &[u8]) -> (usize, usize) {
        debug_assert!(prefix.len() <= self.k, "prefix deeper than the tree");
        let d = prefix.len();
        let lo = self.partition_point(|lbl| &lbl[..d] < prefix);
        let hi = self.partition_point(|lbl| &lbl[..d] <= prefix);
        (lo, hi)
    }

    /// First index whose label fails `pred` (entries satisfying `pred`
    /// must precede those that do not — the `slice::partition_point`
    /// contract, over arena slices).
    fn partition_point(&self, pred: impl Fn(&[u8]) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.label_at(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Widen `[lo, hi)` to the maximal run of entries whose labels
    /// start with `prefix`, calling `on_new` once per newly covered
    /// id. The incoming range must lie inside the target run (which
    /// holds both for the run at any deeper prefix of `prefix` and
    /// for an empty insertion-point range at one): sorted order makes
    /// every same-prefix run contiguous, so two outward linear scans
    /// reach its edges. This is what makes the query descent
    /// `O(log n + candidates)` per tree instead of one binary search
    /// per depth level.
    pub fn widen_prefix_run(
        &self,
        prefix: &[u8],
        lo: &mut usize,
        hi: &mut usize,
        mut on_new: impl FnMut(ItemId),
    ) {
        let d = prefix.len();
        debug_assert!(d <= self.k, "prefix deeper than the tree");
        while *lo > 0 && &self.label_at(*lo - 1)[..d] == prefix {
            *lo -= 1;
            on_new(self.ids[*lo]);
        }
        while *hi < self.len() && &self.label_at(*hi)[..d] == prefix {
            on_new(self.ids[*hi]);
            *hi += 1;
        }
    }

    /// Iterate `(label, id)` entries in order.
    pub fn entries(&self) -> impl Iterator<Item = (&[u8], ItemId)> + '_ {
        (0..self.len()).map(|i| (self.label_at(i), self.ids[i]))
    }

    /// Exact arena footprint in bytes (labels plus ids).
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.labels.len() + self.ids.len() * std::mem::size_of::<ItemId>()
    }

    /// Swap two entries (labels and ids) — corruption-injection tests.
    pub fn swap(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        self.ids.swap(i, j);
        for b in 0..self.k {
            self.labels.swap(i * self.k + b, j * self.k + b);
        }
    }

    /// Overwrite entry `i`'s id — corruption-injection tests.
    pub fn set_id(&mut self, i: usize, id: ItemId) {
        self.ids[i] = id;
    }

    /// Drop the last entry — corruption-injection tests.
    pub fn pop(&mut self) {
        if self.ids.pop().is_some() {
            self.labels.truncate(self.labels.len() - self.k);
        }
    }
}

/// An LSH Forest over signatures of type `S`.
///
/// Stored signatures live in an **interned arena**: one contiguous
/// `Vec<u64>` of fixed-stride classes, each holding one distinct
/// signature, with a refcount per class. Every item slot points to its
/// class, and an id → slot map serves point lookups. A words-hash
/// index finds the class an inserted signature may belong to and a
/// full word comparison confirms it, so two different signatures are
/// never merged, even when their hashes collide. Removing an item
/// frees its class with the last member, so the arena holds exactly
/// the distinct live signatures.
///
/// Candidate scoring ([`query_union`]) groups candidates by class and
/// scores each class once per lookup, reading the arena in address
/// order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LshForest<S> {
    /// Number of trees (`l`).
    l: usize,
    /// Label depth per tree (`k` hash positions, one byte each).
    k: usize,
    /// Per-tree sorted label arenas.
    trees: Vec<FlatTree>,
    sorted: bool,
    /// Words per stored signature — every signature in one forest
    /// comes from one hasher, so the stride is uniform (set by the
    /// first insert).
    sig_stride: usize,
    /// Shape metadata shared by all stored signatures
    /// ([`Signature::meta`]; bit count for bit signatures).
    sig_meta: u64,
    /// Class-major arena of distinct signatures: class `c` occupies
    /// `sig_words[c*stride .. (c+1)*stride]`.
    sig_words: Vec<u64>,
    /// Number of slots pointing at each class — never 0: a class is
    /// freed together with its last member.
    class_refs: Vec<u32>,
    /// Words-hash → the classes with that hash (more than one only on
    /// a hash collision). Signatures derive from lake contents, so
    /// this map keeps the default, collision-resistant hasher; it is
    /// off the query path.
    classes_by_hash: std::collections::HashMap<u64, Vec<u32>>,
    /// Item id of each slot.
    slot_ids: Vec<ItemId>,
    /// Signature class of each slot.
    slot_class: Vec<u32>,
    /// Id → slot, for point lookups and removal.
    slot_of: IdHashMap<ItemId, u32>,
    _sig: std::marker::PhantomData<S>,
}

impl<S: Signature> LshForest<S> {
    /// Forest with `l` trees over signatures of length `sig_len`;
    /// depth is `sig_len / l` (every position is consumed exactly
    /// once, as in the original construction).
    pub fn new(sig_len: usize, l: usize) -> Self {
        assert!(l > 0, "need at least one tree");
        assert!(sig_len >= l, "signature too short for {l} trees");
        let k = sig_len / l;
        LshForest::from_trees(l, k, (0..l).map(|_| FlatTree::new(k)).collect(), true)
    }

    /// A forest over the given trees with no stored signatures yet.
    fn from_trees(l: usize, k: usize, trees: Vec<FlatTree>, sorted: bool) -> Self {
        LshForest {
            l,
            k,
            trees,
            sorted,
            sig_stride: 0,
            sig_meta: 0,
            sig_words: Vec::new(),
            class_refs: Vec::new(),
            classes_by_hash: Default::default(),
            slot_ids: Vec::new(),
            slot_class: Vec::new(),
            slot_of: IdHashMap::default(),
            _sig: std::marker::PhantomData,
        }
    }

    /// Forest with the default tree count.
    pub fn with_defaults(sig_len: usize) -> Self {
        LshForest::new(sig_len, DEFAULT_TREES.min(sig_len.max(1)))
    }

    /// `(trees, depth)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.l, self.k)
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.slot_ids.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.slot_ids.is_empty()
    }

    /// Append the label of `sig` in tree `t` (one byte per consumed
    /// position, exactly `k` bytes) to `out`.
    fn write_label(&self, sig: &S, t: usize, out: &mut Vec<u8>) {
        let start = t * self.k;
        for i in 0..self.k {
            let pos = start + i;
            out.push(if pos < sig.lsh_len() {
                (sig.lsh_hash(pos) & 0xff) as u8
            } else {
                0
            });
        }
    }

    /// All `l` tree labels of `sig`, concatenated (tree `t` at
    /// `t*k..(t+1)*k`) — one allocation per query.
    fn query_labels(&self, sig: &S) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.l * self.k);
        for t in 0..self.l {
            self.write_label(sig, t, &mut buf);
        }
        buf
    }

    /// Insert an item. The forest must be (re-)committed before the
    /// next query.
    pub fn insert(&mut self, id: ItemId, sig: S) {
        for t in 0..self.l {
            let (trees, k) = (&mut self.trees, self.k);
            let start = t * k;
            trees[t].push_with(id, |out| {
                for i in 0..k {
                    let pos = start + i;
                    out.push(if pos < sig.lsh_len() {
                        (sig.lsh_hash(pos) & 0xff) as u8
                    } else {
                        0
                    });
                }
            });
        }
        self.store_signature(id, &sig);
        self.sorted = false;
    }

    /// Point an item's slot at the class of its signature — new ids
    /// append a slot; re-inserted ids move theirs to the new class.
    /// Panics when the signature's shape differs from what the forest
    /// stores (one forest holds one hasher's output).
    fn store_signature(&mut self, id: ItemId, sig: &S) {
        let words = sig.words();
        if self.slot_ids.is_empty() {
            self.sig_stride = words.len();
            self.sig_meta = sig.meta();
        } else {
            assert_eq!(words.len(), self.sig_stride, "signature shape mismatch");
            debug_assert_eq!(sig.meta(), self.sig_meta, "signature shape mismatch");
        }
        let class = self.intern(words);
        match self.slot_of.get(&id) {
            Some(&slot) => {
                let old = std::mem::replace(&mut self.slot_class[slot as usize], class);
                self.release(old);
            }
            None => {
                let slot = self.slot_ids.len();
                assert!(slot <= u32::MAX as usize, "forest too large for u32 slots");
                self.slot_of.insert(id, slot as u32);
                self.slot_ids.push(id);
                self.slot_class.push(class);
            }
        }
    }

    /// The class holding `words`, with one more reference: an existing
    /// class when an equal signature is stored, a new one otherwise.
    fn intern(&mut self, words: &[u64]) -> u32 {
        let stride = self.sig_stride;
        let bucket = self.classes_by_hash.entry(words_hash(words)).or_default();
        let arena = &self.sig_words;
        let found = bucket
            .iter()
            .copied()
            .find(|&c| &arena[c as usize * stride..(c as usize + 1) * stride] == words);
        if let Some(c) = found {
            self.class_refs[c as usize] += 1;
            return c;
        }
        let c = self.class_refs.len();
        assert!(c < u32::MAX as usize, "forest too large for u32 classes");
        bucket.push(c as u32);
        self.sig_words.extend_from_slice(words);
        self.class_refs.push(1);
        c as u32
    }

    /// Drop one reference to `class`, freeing it with its last member.
    /// The last class moves into the hole, taking its hash-index entry
    /// and its member slots with it, so the arena stays dense.
    fn release(&mut self, class: u32) {
        let c = class as usize;
        self.class_refs[c] -= 1;
        if self.class_refs[c] > 0 {
            return;
        }
        let h = words_hash(self.class_words(class));
        let bucket = self
            .classes_by_hash
            .get_mut(&h)
            .expect("live class is indexed");
        bucket.retain(|&x| x != class);
        if bucket.is_empty() {
            self.classes_by_hash.remove(&h);
        }
        let last = self.class_refs.len() - 1;
        if c != last {
            let moved = last as u32;
            let h = words_hash(self.class_words(moved));
            for x in self
                .classes_by_hash
                .get_mut(&h)
                .expect("live class is indexed")
            {
                if *x == moved {
                    *x = class;
                }
            }
            for x in &mut self.slot_class {
                if *x == moved {
                    *x = class;
                }
            }
            let stride = self.sig_stride;
            self.sig_words
                .copy_within(last * stride..(last + 1) * stride, c * stride);
            self.class_refs[c] = self.class_refs[last];
        }
        self.class_refs.truncate(last);
        self.sig_words.truncate(last * self.sig_stride);
    }

    /// Arena words of class `c`.
    #[inline]
    fn class_words(&self, c: u32) -> &[u64] {
        let s = c as usize * self.sig_stride;
        &self.sig_words[s..s + self.sig_stride]
    }

    /// Commit pending inserts by sorting all trees. Queries require a
    /// committed forest; committing twice is a no-op.
    pub fn commit(&mut self) {
        if self.sorted {
            return;
        }
        for tree in &mut self.trees {
            tree.sort();
        }
        self.sorted = true;
    }

    /// [`LshForest::commit`] with the tree sorts fanned out over up
    /// to `threads` scoped workers. Each tree sorts a total order, so
    /// the committed forest is identical at every thread count.
    pub fn commit_parallel(&mut self, threads: usize) {
        if self.sorted {
            return;
        }
        let threads = threads.clamp(1, self.trees.len().max(1));
        if threads == 1 {
            return self.commit();
        }
        let chunk = self.trees.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for batch in self.trees.chunks_mut(chunk) {
                scope.spawn(move || {
                    for tree in batch {
                        tree.sort();
                    }
                });
            }
        });
        self.sorted = true;
    }

    /// Whether all inserts have been committed (trees sorted).
    pub fn is_committed(&self) -> bool {
        self.sorted
    }

    /// Remove an item from the forest (the incremental-maintenance
    /// counterpart of [`LshForest::insert`]). Dropping entries from a
    /// sorted tree preserves its order, so no re-commit is needed and
    /// a committed forest stays committed. Returns whether the item
    /// was present.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let Some(slot) = self.slot_of.remove(&id) else {
            return false;
        };
        let s = slot as usize;
        self.slot_ids.swap_remove(s);
        let class = self.slot_class.swap_remove(s);
        if let Some(&moved) = self.slot_ids.get(s) {
            self.slot_of.insert(moved, slot);
        }
        self.release(class);
        for tree in &mut self.trees {
            tree.remove_id(id);
        }
        true
    }

    /// The per-tree sorted label arenas — the persistence layer
    /// serializes them verbatim so a loaded forest needs no re-sort.
    pub fn tree_arrays(&self) -> &[FlatTree] {
        &self.trees
    }

    /// Mutable tree access for corruption-injection tests.
    #[cfg(test)]
    pub(crate) fn tree_arrays_mut(&mut self) -> &mut [FlatTree] {
        &mut self.trees
    }

    /// Reassemble a forest from deserialized parts. The caller (the
    /// snapshot decoder) is responsible for having validated the
    /// invariants: `k`-stride trees, one tree entry per signature per
    /// tree, unique ids with one shared signature shape, and sorted
    /// trees whenever `sorted` is set. Equal signatures are interned
    /// into one class, exactly as on insert.
    pub fn from_stored_parts(
        l: usize,
        k: usize,
        trees: Vec<FlatTree>,
        sigs: Vec<(ItemId, S)>,
        sorted: bool,
    ) -> Self {
        debug_assert_eq!(trees.len(), l, "one tree array per tree");
        let mut forest = LshForest::from_trees(l, k, trees, sorted);
        for (id, sig) in &sigs {
            forest.store_signature(*id, sig);
        }
        forest
    }

    /// Top-`k` most similar items to `sig`: [`query_union`] over this
    /// one forest. Panics unless the forest is committed
    /// ([`LshForest::commit`]); taking `&self` keeps the forest
    /// shareable lock-free across query workers.
    pub fn query(&self, sig: &S, k: usize) -> Vec<Hit> {
        query_union(&[self], sig, k)
    }

    /// Stored signature of an item, rebuilt from its arena words.
    /// Cold paths only (persistence, shard splitting) — the scoring
    /// paths read arena words in place via [`LshForest::signature_words`].
    pub fn signature(&self, id: ItemId) -> Option<S> {
        self.signature_words(id)
            .map(|w| S::from_words(w.to_vec(), self.sig_meta))
    }

    /// Borrowed arena words of an item's stored signature — the
    /// zero-copy lookup the pairwise scoring stages resolve candidates
    /// through.
    pub fn signature_words(&self, id: ItemId) -> Option<&[u64]> {
        self.slot_of
            .get(&id)
            .map(|&s| self.class_words(self.slot_class[s as usize]))
    }

    /// Shape metadata shared by every stored signature
    /// ([`Signature::meta`]).
    pub fn sig_meta(&self) -> u64 {
        self.sig_meta
    }

    /// Iterate all indexed item ids (arena slot order — insertion
    /// order until a removal swap-compacts a slot).
    pub fn ids(&self) -> impl Iterator<Item = ItemId> + '_ {
        self.slot_ids.iter().copied()
    }

    /// Footprint of the tree arenas in bytes (labels plus item ids) —
    /// O(trees), not O(entries): the arenas know their exact sizes.
    pub fn tree_byte_size(&self) -> usize {
        self.trees.iter().map(FlatTree::byte_size).sum()
    }

    /// Footprint of the signature arena in bytes — exact and O(1). It
    /// counts each *distinct* stored signature once, so items sharing
    /// a signature add nothing beyond their tree entries.
    pub fn signature_byte_size(&self) -> usize {
        self.sig_words.len() * 8
    }

    /// Approximate footprint in bytes: tree labels plus stored
    /// signatures (Table II accounting).
    pub fn byte_size(&self) -> usize {
        self.tree_byte_size() + self.signature_byte_size()
    }
}

/// Hash of a signature's words — the interning index key. A collision
/// only costs one extra word comparison, never a merge.
fn words_hash(words: &[u64]) -> u64 {
    words.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Add the `need` smallest ids from `ids` that are not already in
/// `candidates` — a bounded max-heap selection: O(n log need) time,
/// O(need) extra space, instead of materializing every stored id just
/// to pick a handful (the historical fallback allocated a `Vec` of
/// the *entire* lake's ids per query). Ids are unique, so the
/// resulting set is deterministic regardless of iteration order.
fn select_smallest_ids(
    ids: impl Iterator<Item = ItemId>,
    candidates: &mut IdHashSet<ItemId>,
    need: usize,
) {
    if need == 0 {
        return;
    }
    let mut heap = std::collections::BinaryHeap::with_capacity(need + 1);
    for id in ids {
        if candidates.contains(&id) {
            continue;
        }
        if heap.len() < need {
            heap.push(id);
        } else if let Some(&top) = heap.peek() {
            if id < top {
                heap.pop();
                heap.push(id);
            }
        }
    }
    candidates.extend(heap);
}

/// Top-`k` query over the disjoint union of several forests — the one
/// descent and scoring path: [`LshForest::query`] is this over a
/// single forest, and a sharded index passes one forest per shard.
///
/// Descends each tree from the full depth, widening the prefix until
/// at least `k` distinct candidates are gathered (or depth is
/// exhausted), then ranks candidates by their estimated similarity
/// from the stored signatures. Panics unless every forest is
/// committed.
///
/// All forests must share one shape (same `l`, same `k`) and index
/// disjoint item sets; each shard's trees then hold exactly the
/// monolith's entries for its items, in the same sorted order, and
/// the one extra inner loop over forests changes nothing:
///
/// * per `(depth, tree)`, the union of the shards' prefix ranges has
///   exactly the contents of the monolith's prefix range (a sorted
///   tree partitions into sorted shard trees; a prefix range selects
///   by label only);
/// * the widening stop condition sees the *global* candidate count,
///   not a per-shard one;
/// * the small-lake fallback selects over the union of all stored
///   ids, exactly the monolith's id set.
///
/// So the returned hits are byte-identical to querying one forest
/// holding every item — by construction, not by post-hoc merging.
/// Querying each shard separately and merging would *not* be: the
/// descent could stop at a different depth per shard, and the
/// fallback would select ids against per-shard counts.
pub fn query_union<S: Signature>(forests: &[&LshForest<S>], sig: &S, k: usize) -> Vec<Hit> {
    assert!(!forests.is_empty(), "need at least one forest");
    let (l, depth_k) = forests[0].shape();
    for f in forests {
        assert!(f.sorted, "forest not committed; call commit() first");
        debug_assert_eq!(f.shape(), (l, depth_k), "shards must share one shape");
    }
    let total: usize = forests.iter().map(|f| f.slot_ids.len()).sum();
    if k == 0 || total == 0 {
        return Vec::new();
    }
    // Labels depend only on the shape and the query signature — any
    // forest computes the same ones.
    let labels = forests[0].query_labels(sig);
    let mut candidates: IdHashSet<ItemId> = IdHashSet::default();
    // Synchronous descent, deepest first, with one cursor per
    // (forest, tree): one full-depth binary search seeds each cursor,
    // then each shallower level widens the cursors outward over the
    // arena — every level sees exactly the prefix runs a per-level
    // binary search would, but each entry is visited once per tree.
    let mut cursors: Vec<(usize, usize)> = Vec::with_capacity(forests.len() * l);
    // Items with equal signatures carry equal labels in every tree, so
    // a duplicate-heavy lookup finds the same full-depth run tree after
    // tree: insert each distinct run once.
    let mut seeded: Vec<&[ItemId]> = Vec::with_capacity(forests.len() * l);
    for f in forests {
        for (t, tree) in f.trees.iter().enumerate() {
            let (lo, hi) = tree.prefix_range(&labels[t * depth_k..(t + 1) * depth_k]);
            let run = &tree.ids()[lo..hi];
            if !seeded.contains(&run) {
                candidates.extend(run.iter().copied());
                seeded.push(run);
            }
            cursors.push((lo, hi));
        }
    }
    let mut depth = depth_k;
    while candidates.len() < k && depth > 1 {
        depth -= 1;
        for (fi, f) in forests.iter().enumerate() {
            for (t, tree) in f.trees.iter().enumerate() {
                let (lo, hi) = &mut cursors[fi * l + t];
                tree.widen_prefix_run(&labels[t * depth_k..t * depth_k + depth], lo, hi, |id| {
                    candidates.insert(id);
                });
            }
        }
    }
    // Fall back to scanning when the lake is tiny or prefixes are
    // unlucky — keeps recall sensible for small k. The scan must pick
    // a fixed id *set*: HashMap iteration order varies per map
    // instance, and the query pipeline guarantees results that are
    // byte-identical across runs and thread counts.
    if candidates.len() < k && candidates.len() < total {
        let need = k.max(32) - candidates.len();
        select_smallest_ids(
            forests.iter().flat_map(|f| f.slot_ids.iter().copied()),
            &mut candidates,
            need,
        );
    }
    // Score each distinct signature once: tag every candidate with its
    // owning (forest, class), sort so that equal classes sit together
    // in arena order, and score a class on its first candidate only.
    // Equal words give a bit-identical similarity, so sharing the
    // score changes no hit.
    let mut located: Vec<(u64, ItemId)> = candidates
        .iter()
        .map(|&id| {
            forests
                .iter()
                .enumerate()
                .find_map(|(fi, f)| {
                    let class = f.slot_class[*f.slot_of.get(&id)? as usize];
                    Some(((fi as u64) << 32 | class as u64, id))
                })
                .expect("candidate came from one of the forests")
        })
        .collect();
    located.sort_unstable_by_key(|&(key, _)| key);
    let mut hits = Vec::with_capacity(located.len());
    let mut memo: Option<(u64, f64)> = None;
    for (key, id) in located {
        let similarity = match memo {
            Some((scored, s)) if scored == key => s,
            _ => {
                let f = forests[(key >> 32) as usize];
                let s = sig.similarity_words(f.class_words(key as u32), f.sig_meta);
                memo = Some((key, s));
                s
            }
        };
        hits.push(Hit { id, similarity });
    }
    top_k(hits, k)
}

impl<S: Signature + Send + Sync> LshForest<S> {
    /// Bulk-build a committed forest from `(item, signature)` pairs.
    ///
    /// The indexing fast path: per-tree label arenas are generated and
    /// sorted tree-major — fanned out over up to `threads` scoped
    /// workers — instead of item-major `insert` calls followed by a
    /// sequential sort. Each tree's sorted array is a total order over
    /// `(label, item)` pairs, so the result is byte-identical to
    /// insert-then-commit at every thread count and item order.
    pub fn build_from(sig_len: usize, l: usize, items: Vec<(ItemId, S)>, threads: usize) -> Self {
        let mut forest = LshForest::new(sig_len, l);
        let threads = threads.clamp(1, forest.l);
        if threads == 1 {
            for (id, sig) in items {
                forest.insert(id, sig);
            }
            forest.commit();
            return forest;
        }
        let shape = forest.clone(); // empty: cheap label template
        let chunk = forest.l.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let items = &items;
            let shape = &shape;
            let mut t0 = 0usize;
            for batch in forest.trees.chunks_mut(chunk) {
                let start = t0;
                t0 += batch.len();
                handles.push(scope.spawn(move || {
                    for (off, tree) in batch.iter_mut().enumerate() {
                        tree.reserve(items.len());
                        for (id, sig) in items {
                            tree.push_with(*id, |out| shape.write_label(sig, start + off, out));
                        }
                        tree.sort();
                    }
                }));
            }
            for h in handles {
                h.join().expect("forest build worker panicked");
            }
        });
        for (id, sig) in &items {
            forest.store_signature(*id, sig);
        }
        forest.sorted = true;
        forest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::splitmix64;
    use crate::minhash::{MinHashSignature, MinHasher};
    use std::collections::{BTreeMap, HashSet};

    fn tokens(prefix: &str, range: std::ops::Range<usize>) -> Vec<String> {
        range.map(|i| format!("{prefix}{i}")).collect()
    }

    fn sign(mh: &MinHasher, toks: &[String]) -> MinHashSignature {
        mh.sign_strs(toks.iter().map(String::as_str))
    }

    #[test]
    fn shape_and_emptiness() {
        let f: LshForest<MinHashSignature> = LshForest::new(256, 16);
        assert_eq!(f.shape(), (16, 16));
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn flat_tree_basics() {
        let mut t = FlatTree::new(2);
        assert!(t.is_empty());
        t.push(&[3, 1], 10);
        t.push(&[1, 2], 20);
        t.push(&[1, 2], 5);
        assert_eq!(t.len(), 3);
        assert_eq!(t.stride(), 2);
        t.sort();
        assert!(t.is_sorted());
        // (label, id) order: [1,2]/5, [1,2]/20, [3,1]/10.
        assert_eq!(t.label_at(0), &[1, 2]);
        assert_eq!(t.id_at(0), 5);
        assert_eq!(t.id_at(1), 20);
        assert_eq!(t.id_at(2), 10);
        assert_eq!(t.prefix_range(&[1]), (0, 2));
        assert_eq!(t.prefix_range(&[1, 2]), (0, 2));
        assert_eq!(t.prefix_range(&[3]), (2, 3));
        assert_eq!(t.prefix_range(&[2]), (2, 2));
        assert_eq!(t.byte_size(), 3 * 2 + 3 * 8);
        assert_eq!(
            t.entries().collect::<Vec<_>>(),
            vec![(&[1u8, 2][..], 5), (&[1u8, 2][..], 20), (&[3u8, 1][..], 10)]
        );
        t.remove_id(20);
        assert_eq!(t.len(), 2);
        assert!(t.is_sorted());
        assert_eq!(t.ids(), &[5, 10]);
        t.pop();
        assert_eq!(t.len(), 1);
        assert_eq!(t.label_at(0), &[1, 2]);
    }

    #[test]
    fn finds_most_similar_first() {
        let mh = MinHasher::new(256, 77);
        let mut f = LshForest::new(256, 16);
        let base = tokens("x", 0..100);
        f.insert(1, sign(&mh, &tokens("x", 10..110))); // J ≈ 0.8
        f.insert(2, sign(&mh, &tokens("x", 50..150))); // J ≈ 0.33
        f.insert(3, sign(&mh, &tokens("y", 0..100))); // J = 0
        f.commit();
        let hits = f.query(&sign(&mh, &base), 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 1);
        assert_eq!(hits[1].id, 2);
        assert!(hits[0].similarity > hits[1].similarity);
    }

    #[test]
    fn small_lake_fallback_returns_everything() {
        let mh = MinHasher::new(64, 5);
        let mut f = LshForest::new(64, 8);
        f.insert(1, sign(&mh, &tokens("a", 0..5)));
        f.insert(2, sign(&mh, &tokens("b", 0..5)));
        f.commit();
        let hits = f.query(&sign(&mh, &tokens("c", 0..5)), 2);
        assert_eq!(hits.len(), 2);
    }

    /// The bounded-heap fallback must select exactly the smallest
    /// non-candidate ids — the same set the historical
    /// materialize-everything + `select_nth_unstable` picked.
    #[test]
    fn fallback_selection_picks_smallest_ids() {
        let mut candidates: IdHashSet<ItemId> = IdHashSet::default();
        candidates.insert(2);
        select_smallest_ids([9u64, 2, 7, 1, 8, 4].into_iter(), &mut candidates, 3);
        let mut got: Vec<ItemId> = candidates.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 4, 7]);
        // need larger than the pool: everything is taken.
        let mut all: IdHashSet<ItemId> = IdHashSet::default();
        select_smallest_ids([5u64, 3].into_iter(), &mut all, 10);
        assert_eq!(all.len(), 2);
        // need == 0 is a no-op.
        let mut none: IdHashSet<ItemId> = IdHashSet::default();
        select_smallest_ids([5u64].into_iter(), &mut none, 0);
        assert!(none.is_empty());
    }

    #[test]
    fn query_zero_k_is_empty() {
        let mh = MinHasher::new(64, 5);
        let mut f = LshForest::new(64, 8);
        f.insert(1, sign(&mh, &tokens("a", 0..5)));
        f.commit();
        assert!(f.query(&sign(&mh, &tokens("a", 0..5)), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "forest not committed")]
    fn uncommitted_query_panics() {
        let mh = MinHasher::new(64, 5);
        let mut f = LshForest::new(64, 8);
        f.insert(1, sign(&mh, &tokens("a", 0..5)));
        let _ = f.query(&sign(&mh, &tokens("a", 0..5)), 1);
    }

    #[test]
    fn byte_size_grows_with_items() {
        let mh = MinHasher::new(128, 5);
        let mut f = LshForest::new(128, 8);
        let empty = f.byte_size();
        f.insert(1, sign(&mh, &tokens("a", 0..5)));
        assert!(f.byte_size() > empty);
        assert_eq!(f.byte_size(), f.tree_byte_size() + f.signature_byte_size());
        assert!(f.ids().count() == 1);
        assert!(f.signature(1).is_some());
        assert!(!f.is_committed());
        f.commit();
        assert!(f.is_committed());
    }

    /// A signature of 64 words in class `class`. Every class shares
    /// words 0..7, so tree 0's depth-7 prefix run (with 8 trees of
    /// depth 8) covers every item: a lookup that widens past full
    /// depth gathers the whole forest, and the exact brute-force top-k
    /// is the expected answer. Word 7 is the class's own, so at full
    /// depth a lookup finds only its class. From word 8 on, classes
    /// agree with a shared base word on every third position, a
    /// pattern that depends on `class % 3` — so similarities tie
    /// across classes.
    fn dup_sig(class: u64) -> MinHashSignature {
        MinHashSignature(
            (0..64u64)
                .map(|p| match p {
                    0..=6 => 0xab00 + p,
                    _ if p >= 8 && (p + class).is_multiple_of(3) => 0xcd00 + p,
                    _ => splitmix64(class * 1000 + p),
                })
                .collect(),
        )
    }

    /// 120 items with heavy duplication: items 0..96 fall into six
    /// classes of 16 members, items 96..120 have signatures of their
    /// own. Ids are sparse.
    fn dup_items() -> Vec<(ItemId, MinHashSignature)> {
        (0..120u64)
            .map(|i| {
                let class = if i < 96 { i % 6 } else { 100 + i };
                (i * 5 + 2, dup_sig(class))
            })
            .collect()
    }

    /// Score every item and sort by (similarity desc, id asc).
    fn brute_force(
        items: &[(ItemId, MinHashSignature)],
        q: &MinHashSignature,
        k: usize,
    ) -> Vec<Hit> {
        let mut all: Vec<Hit> = items
            .iter()
            .map(|(id, sig)| Hit {
                id: *id,
                similarity: q.similarity(sig),
            })
            .collect();
        all.sort_by(|a, b| {
            b.similarity
                .total_cmp(&a.similarity)
                .then_with(|| a.id.cmp(&b.id))
        });
        all.truncate(k);
        all
    }

    fn distinct_signatures<'a>(sigs: impl Iterator<Item = &'a MinHashSignature>) -> usize {
        sigs.map(|s| s.0.clone()).collect::<HashSet<_>>().len()
    }

    /// Interning scores each distinct signature once per lookup; the
    /// answers must still be the exact top-k, for the monolith and
    /// for the union over every shard count.
    #[test]
    fn interned_lookups_match_brute_force() {
        let items = dup_items();
        let monolith = LshForest::build_from(64, 8, items.clone(), 1);
        assert_eq!(monolith.len(), 120);
        assert_eq!(monolith.signature_byte_size(), (6 + 24) * 64 * 8);
        let queries = [dup_sig(0), dup_sig(3), dup_sig(105), dup_sig(999)];
        for shards in [1u64, 2, 8] {
            let parts: Vec<LshForest<MinHashSignature>> = (0..shards)
                .map(|s| {
                    let mine = items.iter().filter(|(id, _)| id % shards == s).cloned();
                    LshForest::build_from(64, 8, mine.collect(), 1)
                })
                .collect();
            let refs: Vec<&LshForest<MinHashSignature>> = parts.iter().collect();
            for (qi, q) in queries.iter().enumerate() {
                for k in [0usize, 1, 5, 50, 130] {
                    let want = brute_force(&items, q, k);
                    assert_eq!(monolith.query(q, k), want, "query {qi} k={k}");
                    assert_eq!(
                        query_union(&refs, q, k),
                        want,
                        "query {qi} shards={shards} k={k}"
                    );
                }
            }
        }
    }

    /// Insert, remove and re-insert-with-a-new-signature churn must
    /// leave exactly the forest a fresh bulk build of the survivors
    /// gives: the same trees, the same stored signatures, and one
    /// arena class per distinct signature with no leaked classes.
    #[test]
    fn churn_leaves_a_fresh_build_of_the_survivors() {
        let mut f = LshForest::new(64, 8);
        let mut live: BTreeMap<ItemId, MinHashSignature> = BTreeMap::new();
        for (id, sig) in dup_items() {
            f.insert(id, sig.clone());
            live.insert(id, sig);
        }
        f.commit();
        let ids: Vec<ItemId> = live.keys().copied().collect();
        for (i, &id) in ids.iter().enumerate() {
            // Drop all of class 2 (a class in the middle of the
            // arena) and every seventh item.
            if (i < 96 && i % 6 == 2) || i % 7 == 0 {
                assert!(f.remove(id));
                live.remove(&id);
            }
        }
        for (i, &id) in ids.iter().enumerate().take(48) {
            // Move class 4 to two new classes, and bring some of the
            // removed class-2 ids back as members of class 0.
            let new_sig = match i % 6 {
                4 => dup_sig(200 + i as u64 % 2),
                2 if i % 4 == 2 => dup_sig(0),
                _ => continue,
            };
            f.remove(id);
            f.insert(id, new_sig.clone());
            live.insert(id, new_sig);
        }
        for id in 1000..1010 {
            let sig = dup_sig(if id % 2 == 0 { 3 } else { id });
            f.insert(id, sig.clone());
            live.insert(id, sig);
        }
        f.commit();

        let survivors: Vec<(ItemId, MinHashSignature)> = live.clone().into_iter().collect();
        let fresh = LshForest::build_from(64, 8, survivors.clone(), 2);
        assert_eq!(f.trees, fresh.trees);
        assert_eq!(f.len(), live.len());
        for (id, sig) in &live {
            assert_eq!(f.signature(*id).as_ref(), Some(sig), "item {id}");
        }
        let distinct = distinct_signatures(live.values());
        assert_eq!(f.signature_byte_size(), distinct * 64 * 8);
        assert_eq!(fresh.signature_byte_size(), distinct * 64 * 8);
        // No leaked classes: every class has exactly as many
        // references as member slots, and the hash index lists each
        // class once.
        assert_eq!(f.class_refs.len(), distinct);
        let mut members = vec![0u32; distinct];
        for &c in &f.slot_class {
            members[c as usize] += 1;
        }
        assert_eq!(members, f.class_refs);
        let indexed: Vec<u32> = f.classes_by_hash.values().flatten().copied().collect();
        assert_eq!(indexed.len(), distinct);
        assert_eq!(indexed.iter().collect::<HashSet<_>>().len(), distinct);
        for q in [dup_sig(0), dup_sig(200), dup_sig(1003), dup_sig(999)] {
            for k in [1usize, 5, 50, 200] {
                assert_eq!(f.query(&q, k), fresh.query(&q, k), "k={k}");
                assert_eq!(f.query(&q, k), brute_force(&survivors, &q, k), "k={k}");
            }
        }
        // Removing everything frees every class.
        for id in live.keys() {
            assert!(f.remove(*id));
        }
        assert!(f.is_empty());
        assert_eq!(f.signature_byte_size(), 0);
        assert!(f.class_refs.is_empty() && f.classes_by_hash.is_empty());
    }

    /// Two different signatures whose words hash equally stay two
    /// classes: the hash only finds a candidate class, and the full
    /// word comparison decides.
    #[test]
    fn hash_collisions_never_merge_signatures() {
        // With two words, h = ((w0 * M).rotl(5) ^ w1) * M, so choosing
        // w1' to cancel the first-word difference forces a collision.
        let fold1 = |w0: u64| w0.wrapping_mul(0x517c_c1b7_2722_0a95).rotate_left(5);
        let a = MinHashSignature(vec![1, 7]);
        let b = MinHashSignature(vec![2, 7 ^ fold1(1) ^ fold1(2)]);
        assert_ne!(a, b);
        assert_eq!(words_hash(&a.0), words_hash(&b.0));
        let mut f = LshForest::new(2, 1);
        f.insert(10, a.clone());
        f.insert(11, b.clone());
        f.insert(12, a.clone());
        f.commit();
        assert_eq!(f.class_refs, vec![2, 1]);
        assert_eq!(f.classes_by_hash.len(), 1, "one hash, two classes");
        assert_eq!(f.signature(11).as_ref(), Some(&b));
        assert!(f.remove(10));
        assert!(f.remove(12));
        assert_eq!(f.class_refs, vec![1]);
        assert_eq!(f.signature(11).as_ref(), Some(&b));
        assert_eq!(f.signature_byte_size(), 2 * 8);
    }

    /// `build_from` must equal insert-then-commit byte for byte, at
    /// every thread count and under item-order permutations.
    #[test]
    fn build_from_matches_incremental_inserts() {
        let mh = MinHasher::new(128, 3);
        let items: Vec<(u64, MinHashSignature)> = (0..20)
            .map(|i| (i, sign(&mh, &tokens("t", i as usize..i as usize + 30))))
            .collect();
        let mut incremental = LshForest::new(128, 8);
        for (id, sig) in &items {
            incremental.insert(*id, sig.clone());
        }
        incremental.commit();
        let q = sign(&mh, &tokens("t", 5..35));
        for threads in [1usize, 2, 8] {
            let mut shuffled = items.clone();
            shuffled.rotate_left(threads); // different insertion order
            let bulk = LshForest::build_from(128, 8, shuffled, threads);
            assert!(bulk.is_committed());
            assert_eq!(bulk.len(), incremental.len());
            assert_eq!(bulk.trees, incremental.trees, "trees @{threads} threads");
            assert_eq!(bulk.query(&q, 5), incremental.query(&q, 5));
        }
    }

    #[test]
    fn remove_drops_item_and_preserves_order() {
        let mh = MinHasher::new(128, 9);
        let mut with = LshForest::new(128, 8);
        let mut without = LshForest::new(128, 8);
        for i in 0..10u64 {
            let s = sign(&mh, &tokens("r", i as usize..i as usize + 12));
            with.insert(i, s.clone());
            if i != 4 {
                without.insert(i, s);
            }
        }
        with.commit();
        without.commit();
        assert!(with.remove(4));
        assert!(!with.remove(4), "second removal is a no-op");
        assert!(!with.remove(999));
        assert!(with.is_committed(), "removal never uncommits");
        assert_eq!(with.len(), 9);
        assert!(with.signature(4).is_none());
        // Removal leaves exactly the forest that never saw the item.
        assert_eq!(with.trees, without.trees);
        let q = sign(&mh, &tokens("r", 3..15));
        assert_eq!(with.query(&q, 5), without.query(&q, 5));
    }

    /// The partition identity behind sharded serving: querying the
    /// union of disjoint sub-forests is byte-identical to querying
    /// one forest holding every item — at every shard count, for k
    /// values that exercise both the tree descent and the small-lake
    /// fallback scan.
    #[test]
    fn query_union_matches_monolith_at_every_shard_count() {
        let mh = MinHasher::new(128, 21);
        let items: Vec<(u64, MinHashSignature)> = (0..30)
            .map(|i| {
                (
                    i * 7 + 1,
                    sign(&mh, &tokens("u", i as usize..i as usize + 25)),
                )
            })
            .collect();
        let mut monolith = LshForest::new(128, 8);
        for (id, sig) in &items {
            monolith.insert(*id, sig.clone());
        }
        monolith.commit();
        let queries = [
            sign(&mh, &tokens("u", 4..29)),
            sign(&mh, &tokens("v", 0..25)), // dissimilar: fallback path
        ];
        for shards in [1usize, 2, 3, 8] {
            let mut parts: Vec<LshForest<MinHashSignature>> =
                (0..shards).map(|_| LshForest::new(128, 8)).collect();
            for (id, sig) in &items {
                parts[(*id % shards as u64) as usize].insert(*id, sig.clone());
            }
            for p in &mut parts {
                p.commit();
            }
            let refs: Vec<&LshForest<MinHashSignature>> = parts.iter().collect();
            for q in &queries {
                for k in [0usize, 1, 5, 29, 60] {
                    assert_eq!(
                        query_union(&refs, q, k),
                        monolith.query(q, k),
                        "shards={shards} k={k}"
                    );
                }
            }
        }
    }

    /// Empty shards (a table distribution can leave a shard with no
    /// attributes of one evidence type) must not perturb the union.
    #[test]
    fn query_union_tolerates_empty_shards() {
        let mh = MinHasher::new(128, 22);
        let mut a = LshForest::new(128, 8);
        a.insert(3, sign(&mh, &tokens("e", 0..20)));
        a.commit();
        let mut empty = LshForest::new(128, 8);
        empty.commit();
        let q = sign(&mh, &tokens("e", 5..25));
        assert_eq!(query_union(&[&empty, &a, &empty], &q, 5), a.query(&q, 5));
        assert!(query_union(&[&empty, &empty], &q, 5).is_empty());
    }

    #[test]
    fn commit_parallel_matches_commit() {
        let mh = MinHasher::new(128, 4);
        let mut a = LshForest::new(128, 8);
        let mut b = LshForest::new(128, 8);
        for i in 0..16u64 {
            let s = sign(&mh, &tokens("p", i as usize..i as usize + 10));
            a.insert(i, s.clone());
            b.insert(i, s);
        }
        a.commit();
        b.commit_parallel(4);
        assert!(b.is_committed());
        assert_eq!(a.trees, b.trees);
    }
}

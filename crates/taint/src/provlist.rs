//! Interned provenance lists.
//!
//! A provenance list is the chronological record of everything that happened
//! to a byte (paper Fig. 4): oldest activity first, most recent last (the
//! paper's "head"). Because whole-system DIFT attaches a list to *every*
//! tainted byte, lists are interned: a byte's shadow cell holds a small
//! [`ListId`] and identical lists are stored exactly once. `copy` then costs
//! one integer move (DESIGN.md, decision 3).
//!
//! Lists are hash-consed, parent-linked nodes. A node holds
//!
//! * its parent node (the list without its head; node 0 is the empty list),
//! * its head [`ProvTag`],
//! * a [`TagKind`] mask of every kind on the path to the root, and
//! * a 64-bit membership filter word: one hashed bit per tag on that path.
//!
//! An edge map keyed by `(parent node, tag)` makes each chronology exactly
//! one node, so [`ProvInterner::append`] is O(1) in time and space and
//! [`ProvInterner::contains_kind`] is one mask test. The §VI-D taint bomb,
//! which grows lists by one tag per round, therefore costs linear time and
//! memory. [`ProvInterner::union`] appends the tags of `b` that `a` lacks
//! onto `a`; membership is decided by the mask and filter word first and
//! only a filter hit walks the chain. Only rendering and tests need a whole
//! list ([`ProvInterner::tags`] walks to the root).
//!
//! [`ListId`]s are a separate, dense numbering, minted when a list is first
//! returned from `append` or `union`. The intermediate nodes `union` builds
//! on its way to the result get no id, so ids and [`ProvInterner::len`]
//! count exactly the distinct lists handed out.

use crate::tag::{ProvTag, TagKind};
use faros_obs::fasthash::FastMap;
use std::collections::hash_map::Entry;
use std::fmt;
use std::mem::size_of;

/// Identifier of an interned provenance list. `ListId::EMPTY` is the empty
/// list (an untainted byte).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct ListId(u32);

impl ListId {
    /// The empty provenance list.
    pub const EMPTY: ListId = ListId(0);

    /// Returns `true` for the empty list.
    #[inline]
    pub fn is_empty(self) -> bool {
        self == ListId::EMPTY
    }

    /// Crate-internal constructor for tests that need opaque ids.
    #[cfg(test)]
    pub(crate) fn from_raw(raw: u32) -> ListId {
        ListId(raw)
    }
}

impl fmt::Display for ListId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prov[{}]", self.0)
    }
}

/// Index of the root node, the empty list.
const ROOT: u32 = 0;
/// `Node::id` of a node no `append`/`union` has returned yet.
const NO_ID: u32 = u32::MAX;
/// Nodes (and list ids) a fresh interner has room for.
const INITIAL_NODES: usize = 64;

/// One list: `tag` appended to the list at node `parent`.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Union of [`filter_bit`] over every tag from here to the root.
    filter: u64,
    parent: u32,
    /// The node's [`ListId`], or [`NO_ID`].
    id: u32,
    tag: ProvTag,
    /// Union of [`kind_bit`] over every tag from here to the root.
    kinds: u8,
}

#[inline]
fn kind_bit(kind: TagKind) -> u8 {
    1 << kind as u8
}

#[inline]
fn filter_bit(tag: ProvTag) -> u64 {
    let word = u32::from(tag.index()) | (tag.kind() as u32) << 16;
    1 << (word.wrapping_mul(0x9E37_79B1) >> 26)
}

/// The provenance-list intern table.
///
/// # Examples
///
/// ```
/// use faros_taint::provlist::{ListId, ProvInterner};
/// use faros_taint::tag::{ProvTag, TagKind};
///
/// let mut interner = ProvInterner::new();
/// let nf = ProvTag::new(TagKind::Netflow, 0);
/// let p1 = ProvTag::new(TagKind::Process, 0);
///
/// let a = interner.append(ListId::EMPTY, nf);
/// let b = interner.append(a, p1);
/// assert_eq!(interner.tags(b), &[nf, p1]);
/// // Re-deriving the same history yields the same id.
/// let a2 = interner.append(ListId::EMPTY, nf);
/// assert_eq!(interner.append(a2, p1), b);
/// ```
#[derive(Debug)]
pub struct ProvInterner {
    nodes: Vec<Node>,
    /// `ListId` → node.
    ids: Vec<u32>,
    /// `(parent node, tag)` → child node.
    edges: FastMap<(u32, ProvTag), u32>,
    union_memo: FastMap<(u32, u32), u32>,
}

impl Default for ProvInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl ProvInterner {
    /// Creates an interner containing only the empty list.
    pub fn new() -> ProvInterner {
        let root = Node {
            filter: 0,
            parent: ROOT,
            id: ListId::EMPTY.0,
            // Never read: walks stop at the root.
            tag: ProvTag::EXPORT_TABLE,
            kinds: 0,
        };
        // Sized for a replay's boot labels (the kernel module's export
        // tags alone are 28 lists), so a fresh interner does not regrow.
        let mut nodes = Vec::with_capacity(INITIAL_NODES);
        nodes.push(root);
        let mut ids = Vec::with_capacity(INITIAL_NODES);
        ids.push(ROOT);
        ProvInterner {
            nodes,
            ids,
            edges: FastMap::with_capacity_and_hasher(INITIAL_NODES, Default::default()),
            union_memo: FastMap::default(),
        }
    }

    #[inline]
    fn node(&self, id: ListId) -> u32 {
        self.ids[id.0 as usize]
    }

    /// The nodes from `node` up to (not including) the root, newest first.
    fn chain(&self, node: u32) -> impl Iterator<Item = &Node> + '_ {
        let mut cur = node;
        std::iter::from_fn(move || {
            if cur == ROOT {
                return None;
            }
            let n = &self.nodes[cur as usize];
            cur = n.parent;
            Some(n)
        })
    }

    /// The tags of a list, oldest first (the paper's display order:
    /// `NetFlow -> Process: a.exe -> Process: b.exe`). Walks the list to
    /// its root; the propagation path never needs the whole list.
    pub fn tags(&self, id: ListId) -> Vec<ProvTag> {
        let mut tags: Vec<ProvTag> = self.chain(self.node(id)).map(|n| n.tag).collect();
        tags.reverse();
        tags
    }

    /// The most recent tag (the list "head" in the paper's wording).
    pub fn head(&self, id: ListId) -> Option<ProvTag> {
        self.chain(self.node(id)).next().map(|n| n.tag)
    }

    /// Number of distinct lists interned (including the empty list).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if only the empty list exists.
    pub fn is_empty(&self) -> bool {
        self.ids.len() == 1
    }

    /// Heap bytes held by the interner, computed from the capacities of its
    /// node and id vectors and its maps (one control byte per map slot), so
    /// it is a deterministic function of the operations performed.
    pub fn heap_bytes(&self) -> usize {
        fn map_bytes<K, V>(map: &FastMap<K, V>) -> usize {
            map.capacity() * (size_of::<(K, V)>() + 1)
        }
        self.nodes.capacity() * size_of::<Node>()
            + self.ids.capacity() * size_of::<u32>()
            + map_bytes(&self.edges)
            + map_bytes(&self.union_memo)
    }

    /// The node for `tag` appended to `parent`, created on first use.
    fn child(&mut self, parent: u32, tag: ProvTag) -> u32 {
        let edge = match self.edges.entry((parent, tag)) {
            Entry::Occupied(edge) => return *edge.get(),
            Entry::Vacant(edge) => edge,
        };
        let p = self.nodes[parent as usize];
        let node = self.nodes.len() as u32;
        self.nodes.push(Node {
            filter: p.filter | filter_bit(tag),
            parent,
            id: NO_ID,
            tag,
            kinds: p.kinds | kind_bit(tag.kind()),
        });
        edge.insert(node);
        node
    }

    /// The id of `node`, minting the next one if it has none yet.
    fn id_of(&mut self, node: u32) -> ListId {
        let n = &mut self.nodes[node as usize];
        if n.id == NO_ID {
            n.id = self.ids.len() as u32;
            self.ids.push(node);
        }
        ListId(n.id)
    }

    /// Returns `true` if the list at `node` contains `tag`. Masks and filter
    /// words only grow from a node to its descendants, so the walk stops at
    /// the first ancestor whose filter lacks `tag`'s bit.
    fn node_contains(&self, node: u32, tag: ProvTag) -> bool {
        let bit = filter_bit(tag);
        if self.nodes[node as usize].kinds & kind_bit(tag.kind()) == 0 {
            return false;
        }
        self.chain(node)
            .take_while(|n| n.filter & bit != 0)
            .any(|n| n.tag == tag)
    }

    /// Appends `tag` at the head (most-recent end) of `id`, returning the
    /// resulting list.
    ///
    /// Appending a tag equal to the current head is a no-op — this is how
    /// FAROS avoids unbounded list growth when a process repeatedly touches
    /// its own tainted bytes.
    pub fn append(&mut self, id: ListId, tag: ProvTag) -> ListId {
        if self.head(id) == Some(tag) {
            return id;
        }
        let node = self.child(self.node(id), tag);
        self.id_of(node)
    }

    /// The union of two lists (the paper's `union(a, b)` rule for
    /// computation dependencies): `a`'s chronology followed by the tags of
    /// `b` not already present, preserving order.
    pub fn union(&mut self, a: ListId, b: ListId) -> ListId {
        if a == b || b.is_empty() {
            return a;
        }
        if a.is_empty() {
            return b;
        }
        if let Some(&memo) = self.union_memo.get(&(a.0, b.0)) {
            return ListId(memo);
        }
        let mut node = self.node(a);
        for tag in self.tags(b) {
            if !self.node_contains(node, tag) {
                node = self.child(node, tag);
            }
        }
        let out = self.id_of(node);
        self.union_memo.insert((a.0, b.0), out.0);
        out
    }

    /// Returns `true` if the list contains any tag of `kind`.
    #[inline]
    pub fn contains_kind(&self, id: ListId, kind: TagKind) -> bool {
        self.nodes[self.node(id) as usize].kinds & kind_bit(kind) != 0
    }

    /// Returns `true` if the list contains `tag`.
    pub fn contains(&self, id: ListId, tag: ProvTag) -> bool {
        self.node_contains(self.node(id), tag)
    }

    /// Iterates over the tags of `kind` in the list, *newest* first,
    /// without allocating. The walk ends at the oldest tag of `kind`.
    pub fn tags_of_kind(&self, id: ListId, kind: TagKind) -> impl Iterator<Item = ProvTag> + '_ {
        let bit = kind_bit(kind);
        self.chain(self.node(id))
            .take_while(move |n| n.kinds & bit != 0)
            .filter(move |n| n.tag.kind() == kind)
            .map(|n| n.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nf(i: u16) -> ProvTag {
        ProvTag::new(TagKind::Netflow, i)
    }
    fn proc(i: u16) -> ProvTag {
        ProvTag::new(TagKind::Process, i)
    }

    #[test]
    fn empty_list_properties() {
        let interner = ProvInterner::new();
        assert!(ListId::EMPTY.is_empty());
        assert!(interner.tags(ListId::EMPTY).is_empty());
        assert_eq!(interner.head(ListId::EMPTY), None);
        assert!(interner.is_empty());
    }

    #[test]
    fn append_preserves_chronology() {
        let mut i = ProvInterner::new();
        let l = i.append(ListId::EMPTY, nf(0));
        let l = i.append(l, proc(1));
        let l = i.append(l, proc(2));
        assert_eq!(i.tags(l), &[nf(0), proc(1), proc(2)]);
        assert_eq!(i.head(l), Some(proc(2)));
    }

    #[test]
    fn append_same_head_is_noop() {
        let mut i = ProvInterner::new();
        let l = i.append(ListId::EMPTY, proc(1));
        let l2 = i.append(l, proc(1));
        assert_eq!(l, l2);
    }

    #[test]
    fn append_allows_nonconsecutive_repeats() {
        // P1 -> P2 -> P1 is legitimate chronology (byte bounced between
        // processes) and must be representable.
        let mut i = ProvInterner::new();
        let l = i.append(ListId::EMPTY, proc(1));
        let l = i.append(l, proc(2));
        let l = i.append(l, proc(1));
        assert_eq!(i.tags(l), &[proc(1), proc(2), proc(1)]);
    }

    #[test]
    fn structural_sharing() {
        let mut i = ProvInterner::new();
        let a = i.append(ListId::EMPTY, nf(0));
        let b = i.append(a, proc(1));
        let c = i.append(a, proc(1));
        assert_eq!(b, c, "identical histories intern to the same id");
    }

    #[test]
    fn union_identities() {
        let mut i = ProvInterner::new();
        let a = i.append(ListId::EMPTY, nf(0));
        assert_eq!(i.union(a, ListId::EMPTY), a);
        assert_eq!(i.union(ListId::EMPTY, a), a);
        assert_eq!(i.union(a, a), a);
    }

    #[test]
    fn union_dedups_preserving_order() {
        let mut i = ProvInterner::new();
        let a0 = i.append(ListId::EMPTY, nf(0));
        let a = i.append(a0, proc(1));
        let b0 = i.append(ListId::EMPTY, proc(1));
        let b = i.append(b0, proc(2));
        let u = i.union(a, b);
        assert_eq!(i.tags(u), &[nf(0), proc(1), proc(2)]);
    }

    #[test]
    fn union_is_memoized() {
        let mut i = ProvInterner::new();
        let a = i.append(ListId::EMPTY, nf(0));
        let b = i.append(ListId::EMPTY, proc(1));
        let u1 = i.union(a, b);
        let lists_after_first = i.len();
        let u2 = i.union(a, b);
        assert_eq!(u1, u2);
        assert_eq!(i.len(), lists_after_first);
    }

    #[test]
    fn union_intermediates_get_no_id() {
        let mut i = ProvInterner::new();
        let a = i.append(ListId::EMPTY, nf(0));
        let b0 = i.append(ListId::EMPTY, proc(1));
        let b = i.append(b0, proc(2));
        let before = i.len();
        let u = i.union(a, b);
        assert_eq!(i.len(), before + 1, "[nf0, p1] is built but not handed out");
        assert_eq!(u, ListId::from_raw(before as u32));
        assert_eq!(i.tags(u), &[nf(0), proc(1), proc(2)]);
        // Appending onto `a` now reaches the intermediate node and mints
        // the next id for it.
        let ap = i.append(a, proc(1));
        assert_eq!(ap, ListId::from_raw(before as u32 + 1));
        assert_eq!(i.append(ap, proc(2)), u);
    }

    #[test]
    fn kind_queries() {
        let mut i = ProvInterner::new();
        let l = i.append(ListId::EMPTY, nf(0));
        let l = i.append(l, proc(1));
        let l = i.append(l, proc(2));
        let l = i.append(l, ProvTag::EXPORT_TABLE);
        assert!(i.contains_kind(l, TagKind::Netflow));
        assert!(i.contains_kind(l, TagKind::ExportTable));
        assert!(!i.contains_kind(l, TagKind::File));
        assert_eq!(i.tags_of_kind(l, TagKind::Process).count(), 2);
        let newest_first: Vec<_> = i.tags_of_kind(l, TagKind::Process).collect();
        assert_eq!(newest_first, [proc(2), proc(1)]);
        assert!(i.contains(l, proc(1)));
        assert!(!i.contains(l, proc(9)));
    }
}

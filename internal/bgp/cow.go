package bgp

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file implements the route table: a chunked radix trie over the
// integer prefix space with copy-on-write structural sharing.
//
// Layout: every node covers a 6-bit slice of the key, so fan-out is 64.
// Inner nodes hold 64 child pointers. Leaves hold a presence bitmap and
// their values packed: vals has one entry per set bit, in slot order, and
// slot s lives at index popcount(present & (1<<s - 1)). A leaf therefore
// costs what it stores, which matters because the paper's §3 model
// collapses prefixes into equivalence classes and most tables hold one to
// four routes. The trie's height adapts to the largest key ever inserted
// (height 0 = the root is a single leaf covering prefixes 0..63), so a
// three-prefix Loc-RIB is one small leaf while a million-prefix table is
// four levels deep.
//
// Copy-on-write: every node records the owner token of the table that
// allocated it. A mutation may update a node in place only when the node's
// owner is the mutating table; otherwise the path from the root to the
// touched chunk is copied first (path copying, ~height nodes). Clone is
// O(1): it hands the root to the new table and gives BOTH tables fresh
// owner tokens, so neither side can mutate shared nodes in place — exactly
// the transient/persistent discipline of HAMT-style structures. Repeated
// writes after a clone re-own the touched paths once and are in-place from
// then on.

const (
	cowBits = 6
	cowFan  = 1 << cowBits // 64
	cowMask = cowFan - 1
)

// cowOwner is a unique mutation token; identity (pointer) is all that
// matters.
type cowOwner struct{ _ byte }

// cowNode is one trie node: an inner node when inner != nil, else a leaf.
type cowNode[V any] struct {
	owner   *cowOwner
	inner   []*cowNode[V] // len cowFan when an inner node
	present uint64        // leaf presence bitmap
	vals    []V           // leaf values, packed: len == popcount(present)
}

func newCowLeaf[V any](o *cowOwner) *cowNode[V] {
	return &cowNode[V]{owner: o}
}

// slot returns the index in vals of leaf slot idx (where it is, or where it
// would be inserted) and whether the slot is present.
func (n *cowNode[V]) slot(idx uint64) (int, bool) {
	bit := uint64(1) << idx
	return bits.OnesCount64(n.present & (bit - 1)), n.present&bit != 0
}

func newCowInner[V any](o *cowOwner) *cowNode[V] {
	return &cowNode[V]{owner: o, inner: make([]*cowNode[V], cowFan)}
}

// owned returns n if the table owns it, else a copy owned by o. The copy
// gets its own inner or vals slice (so in-place shifts never write through
// storage another table can see) but shares the subtrees below it.
func (n *cowNode[V]) owned(o *cowOwner) *cowNode[V] {
	if n.owner == o {
		return n
	}
	c := &cowNode[V]{owner: o, present: n.present}
	if n.inner != nil {
		c.inner = make([]*cowNode[V], cowFan)
		copy(c.inner, n.inner)
	}
	c.vals = slices.Clone(n.vals)
	return c
}

// cowTrie is the generic trie core, shared by the RIB's attribute handles
// and PrefixMap's values. Tables hold it by value; it must only be
// duplicated through clone, which is what retires the shared owner token.
type cowTrie[V any] struct {
	owner *cowOwner
	root  *cowNode[V]
	// int32, so a RIB's header (the trie plus its attribute table) stays
	// in the 32-byte size class.
	height int32 // levels below the root; 0 = root is a leaf
	size   int32
}

func newCowTrie[V any]() cowTrie[V] {
	o := &cowOwner{}
	return cowTrie[V]{owner: o, root: newCowLeaf[V](o)}
}

// cowKey maps a Prefix to a trie key. Prefixes are equivalence-class
// indices; a negative one is rejected where input is parsed, so reaching
// here with one is a bug.
func cowKey(p Prefix) uint64 {
	if p < 0 {
		panic(fmt.Sprintf("bgp: negative prefix %d in route table", int(p)))
	}
	return uint64(p)
}

// fits reports whether the current height covers k. At height 10 the shift
// reaches 66 bits and every key fits, so the trie never grows past that.
func (t *cowTrie[V]) fits(k uint64) bool {
	return k>>(cowBits*(t.height+1)) == 0
}

// grow raises the root until k fits.
func (t *cowTrie[V]) grow(k uint64) {
	for !t.fits(k) {
		top := newCowInner[V](t.owner)
		top.inner[0] = t.root
		t.root = top
		t.height++
	}
}

func (t *cowTrie[V]) set(k uint64, v V) (added bool) {
	t.grow(k)
	t.root = t.root.owned(t.owner)
	n := t.root
	for lvl := t.height; lvl > 0; lvl-- {
		idx := (k >> (cowBits * lvl)) & cowMask
		child := n.inner[idx]
		switch {
		case child == nil:
			if lvl == 1 {
				child = newCowLeaf[V](t.owner)
			} else {
				child = newCowInner[V](t.owner)
			}
		default:
			child = child.owned(t.owner)
		}
		n.inner[idx] = child
		n = child
	}
	i, ok := n.slot(k & cowMask)
	if ok {
		n.vals[i] = v
		return false
	}
	n.present |= uint64(1) << (k & cowMask)
	if l := len(n.vals); l == cap(n.vals) {
		// Grow 1 → 4 → 16 → 64 rather than by doubling: a leaf that a
		// storm fills reallocates three times instead of six (-18 % bytes
		// on a 10k-prefix build), and one-route leaves stay one route big.
		n.vals = slices.Grow(n.vals, max(1, min(3*l, cowFan-l)))
	}
	n.vals = slices.Insert(n.vals, i, v)
	t.size++
	return true
}

func (t *cowTrie[V]) get(k uint64) (V, bool) {
	var zero V
	if !t.fits(k) {
		return zero, false
	}
	n := t.root
	for lvl := t.height; lvl > 0; lvl-- {
		n = n.inner[(k>>(cowBits*lvl))&cowMask]
		if n == nil {
			return zero, false
		}
	}
	i, ok := n.slot(k & cowMask)
	if !ok {
		return zero, false
	}
	return n.vals[i], true
}

func (t *cowTrie[V]) delete(k uint64) bool {
	// Probe first: deleting an absent key must not copy the path.
	if _, ok := t.get(k); !ok {
		return false
	}
	t.root = t.root.owned(t.owner)
	n := t.root
	for lvl := t.height; lvl > 0; lvl-- {
		idx := (k >> (cowBits * lvl)) & cowMask
		child := n.inner[idx].owned(t.owner)
		n.inner[idx] = child
		n = child
	}
	i, _ := n.slot(k & cowMask)
	n.present &^= uint64(1) << (k & cowMask)
	n.vals = slices.Delete(n.vals, i, i+1) // zeroes the vacated tail slot
	t.size--
	return true
}

// walk calls fn for every entry in ascending key order until fn returns
// false; it reports whether the walk ran to completion. Allocation-free.
func (t *cowTrie[V]) walk(fn func(uint64, V) bool) bool {
	return walkNode(t.root, int(t.height), 0, fn)
}

func walkNode[V any](n *cowNode[V], lvl int, base uint64, fn func(uint64, V) bool) bool {
	if n == nil {
		return true
	}
	if lvl == 0 {
		b := n.present
		for i := range n.vals {
			if !fn(base|uint64(bits.TrailingZeros64(b)), n.vals[i]) {
				return false
			}
			b &= b - 1
		}
		return true
	}
	for i, c := range n.inner {
		if c == nil {
			continue
		}
		if !walkNode(c, lvl-1, base|uint64(i)<<(cowBits*lvl), fn) {
			return false
		}
	}
	return true
}

// clone shares the whole trie in O(1). Both tables relinquish ownership of
// every existing node, so the next write on either side path-copies.
func (t *cowTrie[V]) clone() cowTrie[V] {
	t.owner = &cowOwner{}
	return cowTrie[V]{
		owner:  &cowOwner{},
		root:   t.root,
		height: t.height,
		size:   t.size,
	}
}

package bgp

// RIB is a prefix-keyed route table: the storage shared by the Loc-RIB, the
// per-neighbor Adj-RIB-In slices and the simulator's Adj-RIB-Out. It is the
// copy-on-write radix trie of cow.go, so walks are in ascending prefix
// order and allocation-free, and Clone is O(1).
type RIB struct {
	t cowTrie[Route]
}

// NewRIB returns an empty route table.
func NewRIB() *RIB { return &RIB{t: newCowTrie[Route]()} }

// Get returns the route stored for prefix, if any.
func (r *RIB) Get(prefix Prefix) (Route, bool) { return r.t.get(cowKey(prefix)) }

// Set stores route under route.Prefix, reporting whether the prefix was
// absent before (an insert rather than a replacement).
func (r *RIB) Set(route Route) (added bool) { return r.t.set(cowKey(route.Prefix), route) }

// Delete removes the entry for prefix, reporting whether one existed.
func (r *RIB) Delete(prefix Prefix) bool { return r.t.delete(cowKey(prefix)) }

// Range calls fn for every entry in ascending prefix order until fn returns
// false. The table must not be mutated during the walk.
func (r *RIB) Range(fn func(Prefix, Route) bool) {
	r.t.walk(func(k uint64, rt Route) bool { return fn(Prefix(k), rt) })
}

// Len returns the number of stored entries in O(1).
func (r *RIB) Len() int { return r.t.size }

// Clone returns an independent table with the same content in O(1): the two
// tables share every subtree until one of them writes to it.
func (r *RIB) Clone() *RIB { return &RIB{t: r.t.clone()} }

// PrefixMap maps prefixes to values of any type on the same copy-on-write
// trie as RIB: ascending, allocation-free walks and an O(1) Clone. The zero
// value is an empty map that allocates nothing until its first Set, so a
// holder that may never write (an internal router's originated
// announcements) costs nothing. Like the trie it wraps, a PrefixMap must only
// be duplicated through Clone.
type PrefixMap[V any] struct {
	t cowTrie[V]
}

// Get returns the value stored for p, if any.
func (m *PrefixMap[V]) Get(p Prefix) (V, bool) {
	if m.t.root == nil {
		var zero V
		return zero, false
	}
	return m.t.get(cowKey(p))
}

// Set stores v under p.
func (m *PrefixMap[V]) Set(p Prefix, v V) {
	if m.t.root == nil {
		m.t = newCowTrie[V]()
	}
	m.t.set(cowKey(p), v)
}

// Delete removes the entry for p, reporting whether one existed.
func (m *PrefixMap[V]) Delete(p Prefix) bool {
	return m.t.root != nil && m.t.delete(cowKey(p))
}

// Range calls fn for every entry in ascending prefix order until fn returns
// false. The map must not be mutated during the walk.
func (m *PrefixMap[V]) Range(fn func(Prefix, V) bool) {
	m.t.walk(func(k uint64, v V) bool { return fn(Prefix(k), v) })
}

// Len returns the number of stored entries in O(1).
func (m *PrefixMap[V]) Len() int { return m.t.size }

// Clone returns an independent map with the same content in O(1). Both maps
// give up ownership of the shared nodes, so the first write on either side
// copies the one path it touches.
func (m *PrefixMap[V]) Clone() PrefixMap[V] {
	if m.t.root == nil {
		return PrefixMap[V]{}
	}
	return PrefixMap[V]{t: m.t.clone()}
}

package bgp

// RIB is a prefix-keyed route table: the storage shared by the Loc-RIB, the
// per-neighbor Adj-RIB-In slices and the simulator's Adj-RIB-Out. It is the
// copy-on-write radix trie of cow.go holding, per prefix, a handle into an
// AttrTable, so walks are in ascending prefix order and allocation-free,
// Clone is O(1), and a full leaf is 64 handles without a pointer in them.
type RIB struct {
	t     cowTrie[uint32]
	attrs *AttrTable
}

// NewRIB returns an empty route table with an attribute table of its own.
func NewRIB() *RIB { return NewRIBOn(NewAttrTable()) }

// NewRIBOn returns an empty route table interning into attrs, which the
// tables of one network share.
func NewRIBOn(attrs *AttrTable) *RIB { return &RIB{t: newCowTrie[uint32](), attrs: attrs} }

// Get returns the route stored for prefix, if any. Its Path and ClusterList
// are shared with every entry of equal attributes and must not be written
// to; their capacity equals their length, so an append copies.
func (r *RIB) Get(prefix Prefix) (Route, bool) {
	h, ok := r.t.get(cowKey(prefix))
	if !ok {
		return Route{}, false
	}
	return r.attrs.route(h, prefix), true
}

// Set stores route under route.Prefix, reporting whether the prefix was
// absent before (an insert rather than a replacement). The table copies
// route's Path and ClusterList when their attributes are new to it and
// never keeps the caller's, so the caller may reuse them.
func (r *RIB) Set(route Route) (added bool) {
	return r.SetHandle(route.Prefix, r.attrs.Intern(&route))
}

// Handle returns the attribute handle stored for prefix, if any; the
// table's AttrTable resolves it (AttrTable.At).
func (r *RIB) Handle(prefix Prefix) (uint32, bool) { return r.t.get(cowKey(prefix)) }

// SetHandle stores handle h under prefix without hashing a route, as Set
// does. h must come from the table's AttrTable: a handle read from another
// table of the same network, or interned into it.
func (r *RIB) SetHandle(prefix Prefix, h uint32) (added bool) {
	return r.t.set(cowKey(prefix), h)
}

// Delete removes the entry for prefix, reporting whether one existed.
func (r *RIB) Delete(prefix Prefix) bool { return r.t.delete(cowKey(prefix)) }

// Range calls fn for every entry in ascending prefix order until fn returns
// false. The table must not be mutated during the walk.
func (r *RIB) Range(fn func(Prefix, Route) bool) {
	r.t.walk(func(k uint64, h uint32) bool { return fn(Prefix(k), r.attrs.route(h, Prefix(k))) })
}

// RangePrefixes is Range over the keys alone, for walks that rebuild no
// route.
func (r *RIB) RangePrefixes(fn func(Prefix) bool) {
	r.t.walk(func(k uint64, _ uint32) bool { return fn(Prefix(k)) })
}

// Len returns the number of stored entries in O(1).
func (r *RIB) Len() int { return int(r.t.size) }

// Clone returns an independent table with the same content in O(1): the two
// tables share every subtree until one of them writes to it, and the clone
// interns into a fork of r's attribute table.
func (r *RIB) Clone() *RIB { return r.CloneOn(r.attrs.Fork()) }

// CloneOn is Clone onto attrs, which must be r's attribute table or a fork
// of it: a cloned network forks its table once for all of its tables.
func (r *RIB) CloneOn(attrs *AttrTable) *RIB { return &RIB{t: r.t.clone(), attrs: attrs} }

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
func (m *PrefixMap[V]) Len() int { return int(m.t.size) }

// Clone returns an independent map with the same content in O(1). Both maps
// give up ownership of the shared nodes, so the first write on either side
// copies the one path it touches.
func (m *PrefixMap[V]) Clone() PrefixMap[V] {
	if m.t.root == nil {
		return PrefixMap[V]{}
	}
	return PrefixMap[V]{t: m.t.clone()}
}

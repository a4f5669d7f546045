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

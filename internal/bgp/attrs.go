package bgp

import (
	"fmt"
	"slices"

	"chameleon/internal/topology"
)

// AttrTable interns route attributes: everything a Route carries except its
// prefix. Route tables store a 4-byte handle per prefix into one table and
// take the prefix from the key, so every prefix one message carries, and
// every member of one §3 equivalence class, costs a handle, not a Route.
//
// Records live in blocks of 4 doubling up to 1 024 records; a handle is
// block<<10 | offset. The table is append-only: a record is never
// reclaimed before the table is dropped, so a handle, and a pointer At
// returns, stays valid as long as the table. A record owns its Path and
// ClusterList: Intern copies them into it when it appends the record, so a
// caller may build routes in scratch it reuses. A lookup compares with the
// last record interned, then consults a hash index over every field (Path
// and ClusterList by content, nil told apart from empty) and appends only
// on a miss. Interning decides which equal slice a table hands back, never
// an order, so it changes no execution.
//
// Fork gives a what-if copy its own table in O(blocks): the fork shares
// every block, with the last one clamped so both sides append into storage
// of their own, and the source's hash index becomes a frozen layer both
// consult. A fork's own blocks start at 8 records. Like a trie clone, Fork
// writes to its source. Not safe for concurrent use; the simulator is
// single-threaded by design.
type AttrTable struct {
	blocks [][]attrRecord
	grow   int    // capacity of the next block; 0 means attrFirstBlock
	n      int    // records visible through this table
	last   uint32 // handle+1 of the record interned last; 0 = none
	// lookups counts the Intern calls that missed the last record and
	// consulted the hash index.
	lookups uint64
	// index maps a field hash to handle+1 of the newest record with that
	// hash appended since the last Fork; frozen holds what earlier forks
	// froze, newest first.
	index  map[uint64]uint32
	frozen *attrLayer
}

// attrRecord is one interned attribute set: a Route whose Prefix is unused.
type attrRecord struct {
	r Route
	// next is handle+1 of the next older record with the same hash, so one
	// index entry reaches every record that shares it; 0 ends the chain.
	next uint32
}

// attrLayer is a frozen hash index. Nothing writes to one after Fork made
// it, so any number of forks read it.
type attrLayer struct {
	m    map[uint64]uint32
	next *attrLayer
}

const (
	attrFirstBlock = 4
	// attrForkBlock is the first block a fork appends. A replay of one of
	// the benchmark's 29 exec-replay plans on a clone interns 26 to 237
	// records (median 77): doubling from 8 allocates as many records as
	// from 4 (122 on average) in one block fewer. From 16 it allocates
	// fewer still, but the clones a plan is built and checked on intern a
	// handful, and plan-execute/compuserve read +1.2 % bytes per op.
	attrForkBlock = 8
	attrBlockBits = 10
	attrBlock     = 1 << attrBlockBits // records per full block
	attrMaxBlocks = 1 << (32 - attrBlockBits)
)

// NewAttrTable returns an empty attribute table.
func NewAttrTable() *AttrTable { return &AttrTable{} }

// Len returns the number of records the table resolves, shared ones
// included.
func (t *AttrTable) Len() int { return t.n }

// Fork returns a table that resolves every handle t resolves and interns
// into storage of its own, so the tries of a cloned network can share t's
// records. A source whose index is empty adds no frozen layer, so a base
// forked many times does not grow a chain.
func (t *AttrTable) Fork() *AttrTable {
	if len(t.index) > 0 {
		t.frozen = &attrLayer{m: t.index, next: t.frozen}
		t.index = nil
	}
	blocks := slices.Clone(t.blocks)
	if k := len(blocks) - 1; k >= 0 {
		blocks[k] = slices.Clip(blocks[k])
	}
	return &AttrTable{blocks: blocks, grow: attrForkBlock, n: t.n, last: t.last, frozen: t.frozen}
}

func (t *AttrTable) rec(h uint32) *attrRecord {
	return &t.blocks[h>>attrBlockBits][h&(attrBlock-1)]
}

// At returns the attributes of handle h, for reads that need a field or a
// comparison and no copy. Its Prefix is unset. Every entry holding h shares
// the record, so it must not be written to.
func (t *AttrTable) At(h uint32) *Route { return &t.rec(h).r }

// route rebuilds the Route of handle h for prefix p.
func (t *AttrTable) route(h uint32, p Prefix) Route {
	r := t.rec(h).r
	r.Prefix = p
	return r
}

// Lookups returns how many Intern calls missed the record interned last and
// hashed the route to consult the index.
func (t *AttrTable) Lookups() uint64 { return t.lookups }

// Intern returns the handle of r's attributes (its Prefix is ignored),
// appending a record only if no equal one exists. The record owns copies
// of r's Path and ClusterList, so r's slices stay the caller's.
func (t *AttrTable) Intern(r *Route) uint32 {
	if t.last > 0 && sameAttrs(&t.rec(t.last-1).r, r) {
		return t.last - 1
	}
	t.lookups++
	key := attrHash(r)
	head := t.head(key)
	for x := head; x > 0; x = t.rec(x - 1).next {
		if sameAttrs(&t.rec(x-1).r, r) {
			t.last = x
			return x - 1
		}
	}
	h := t.append(r, head)
	if t.index == nil {
		t.index = make(map[uint64]uint32)
	}
	t.index[key] = h + 1
	t.last = h + 1
	return h
}

// head returns handle+1 of the newest record hashed to key, or 0.
func (t *AttrTable) head(key uint64) uint32 {
	if x, ok := t.index[key]; ok {
		return x
	}
	for l := t.frozen; l != nil; l = l.next {
		if x, ok := l.m[key]; ok {
			return x
		}
	}
	return 0
}

func (t *AttrTable) append(r *Route, next uint32) uint32 {
	b := len(t.blocks) - 1
	if b < 0 || len(t.blocks[b]) == cap(t.blocks[b]) {
		if len(t.blocks) == attrMaxBlocks {
			panic(fmt.Sprintf("bgp: attribute table full (%d blocks)", attrMaxBlocks))
		}
		size := max(t.grow, attrFirstBlock)
		t.blocks = append(t.blocks, make([]attrRecord, 0, size))
		t.grow = min(2*size, attrBlock)
		b++
	}
	rec := attrRecord{r: *r, next: next}
	rec.r.Prefix = 0
	rec.r.Path = own(r.Path)
	rec.r.ClusterList = own(r.ClusterList)
	t.blocks[b] = append(t.blocks[b], rec)
	t.n++
	return uint32(b)<<attrBlockBits | uint32(len(t.blocks[b])-1)
}

// own returns a copy of ids for a record, nil kept apart from empty. Its
// capacity equals its length, so a holder that appends to a handed-out
// slice copies instead of writing into a record every prefix shares.
func own(ids []topology.NodeID) []topology.NodeID {
	if ids == nil {
		return nil
	}
	return append(make([]topology.NodeID, 0, len(ids)), ids...)
}

// sameAttrs reports whether a and b agree on every field but the prefix.
func sameAttrs(a, b *Route) bool {
	return a.Egress == b.Egress && a.External == b.External && a.Weight == b.Weight &&
		a.LocalPref == b.LocalPref && a.ASPathLen == b.ASPathLen && a.MED == b.MED &&
		a.FromEBGP == b.FromEBGP && a.OriginatorID == b.OriginatorID &&
		sameIDs(a.Path, b.Path) && sameIDs(a.ClusterList, b.ClusterList)
}

// sameIDs is slices.Equal that also tells nil from empty, which a captured
// state serializes differently.
func sameIDs(a, b []topology.NodeID) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// attrHash is FNV-1a over the 64-bit words of every field sameAttrs
// compares.
func attrHash(r *Route) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{
		uint64(r.Egress), uint64(r.External), uint64(r.Weight), uint64(r.LocalPref),
		uint64(r.ASPathLen), uint64(r.MED), uint64(r.OriginatorID), boolWord(r.FromEBGP),
	} {
		h = fnvWord(h, v)
	}
	return hashIDs(hashIDs(h, r.Path), r.ClusterList)
}

func hashIDs(h uint64, ids []topology.NodeID) uint64 {
	if ids == nil {
		return fnvWord(h, 0)
	}
	h = fnvWord(h, uint64(len(ids))+1)
	for _, id := range ids {
		h = fnvWord(h, uint64(id))
	}
	return h
}

func fnvWord(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

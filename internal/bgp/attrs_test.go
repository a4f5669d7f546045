package bgp

import (
	"reflect"
	"sync"
	"testing"
)

// medRoute is attribute set 0 of the pool with the given MED: a distinct
// record per MED.
func medRoute(med uint32) *Route {
	r := attrPool[0]
	r.MED = med
	return &r
}

// TestAttrTableBlocksAndHandles: records fill blocks of 4 doubling up to
// 1 024, an equal attribute set interns to the handle it got first, and
// every handle resolves to its record across block boundaries.
func TestAttrTableBlocksAndHandles(t *testing.T) {
	at := NewAttrTable()
	const n = 5000
	hs := make([]uint32, n)
	for i := range hs {
		hs[i] = at.Intern(medRoute(uint32(i)))
	}
	for _, i := range []int{0, 3, 4, 1019, 1020, n - 1} {
		if h := at.Intern(medRoute(uint32(i))); h != hs[i] {
			t.Fatalf("MED %d interned to handle %#x, first to %#x", i, h, hs[i])
		}
	}
	if at.Len() != n {
		t.Fatalf("Len = %d after %d distinct attribute sets", at.Len(), n)
	}
	var caps []int
	for _, b := range at.blocks {
		caps = append(caps, cap(b))
	}
	want := []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 1024, 1024, 1024}
	if !reflect.DeepEqual(caps, want) {
		t.Fatalf("block capacities %v, want %v", caps, want)
	}
	for i, h := range hs {
		if got := at.route(h, 9); got.MED != uint32(i) || got.Prefix != 9 {
			t.Fatalf("handle %#x resolves to MED %d prefix %d, want MED %d prefix 9", h, got.MED, got.Prefix, i)
		}
	}
}

// TestAttrTableFork: a fork resolves and finds everything its source held,
// each side appends where the other cannot see it, the source's index turns
// into a frozen layer both consult, and a source with an empty index adds
// no layer however often it is forked.
func TestAttrTableFork(t *testing.T) {
	src := NewAttrTable()
	h1, h2, h3 := src.Intern(medRoute(1)), src.Intern(medRoute(2)), src.Intern(medRoute(3))
	f := src.Fork()
	for med, h := range map[uint32]uint32{1: h1, 2: h2, 3: h3} {
		if got := f.Intern(medRoute(med)); got != h {
			t.Errorf("fork interned MED %d to %#x, source holds it at %#x", med, got, h)
		}
	}
	if f.Len() != 3 {
		t.Fatalf("fork appended for attribute sets its source holds: Len %d", f.Len())
	}

	hs := src.Intern(medRoute(10)) // into the spare slot of the shared block
	hf := f.Intern(medRoute(20))   // into a block of the fork's own
	if got := f.route(h1, 0).MED; got != 1 {
		t.Errorf("fork resolves a shared handle to MED %d after the source appended", got)
	}
	if src.route(hs, 0).MED != 10 || f.route(hf, 0).MED != 20 {
		t.Error("an appended record does not resolve on its own side")
	}
	if f.Intern(medRoute(10)); f.Len() != 5 {
		t.Errorf("fork found a record its source appended after the fork: Len %d", f.Len())
	}
	if src.Intern(medRoute(20)); src.Len() != 5 {
		t.Errorf("source found a record the fork appended: Len %d", src.Len())
	}

	layers := func(at *AttrTable) int {
		n := 0
		for l := at.frozen; l != nil; l = l.next {
			n++
		}
		return n
	}
	g := src.Fork() // src's index holds MED 10 and 20: a second layer
	if layers(src) != 2 || layers(g) != 2 {
		t.Fatalf("after a second fork of a written source: %d and %d layers, want 2", layers(src), layers(g))
	}
	for range 100 {
		src.Fork()
	}
	if layers(src) != 2 {
		t.Errorf("forking an unwritten source grew its chain to %d layers", layers(src))
	}
	if got := g.Intern(medRoute(10)); got != hs || g.Len() != src.Len() {
		t.Errorf("second fork interned MED 10 to %#x (Len %d), source holds it at %#x (Len %d)", got, g.Len(), hs, src.Len())
	}
}

// TestAttrTableForksAreIndependent: forks of one source intern concurrently
// without touching storage another fork or the source can see. Run under
// -race, a fork writing into the shared last block fails here.
func TestAttrTableForksAreIndependent(t *testing.T) {
	src := NewAttrTable()
	for med := range uint32(3) { // three records in a block of four
		src.Intern(medRoute(med))
	}
	forks := make([]*AttrTable, 4)
	for i := range forks {
		forks[i] = src.Fork()
	}
	var wg sync.WaitGroup
	for i, f := range forks {
		wg.Add(1)
		go func(i int, f *AttrTable) {
			defer wg.Done()
			for k := range uint32(100) {
				med := 1000*uint32(i+1) + k
				h := f.Intern(medRoute(med))
				if f.Intern(medRoute(k%3)) != k%3 || f.route(h, 0).MED != med {
					t.Errorf("fork %d: record %d does not resolve", i, med)
					return
				}
			}
		}(i, f)
	}
	wg.Wait()
	if src.Len() != 3 {
		t.Errorf("forks appended into their source: Len %d", src.Len())
	}
}

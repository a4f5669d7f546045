package obs

import (
	"math/bits"
	"sort"
)

// Histograms are the second metric kind next to counters: a
// log-bucketed distribution of int64 samples (latencies in nanoseconds,
// hop depths, batch sizes). Buckets are powers of two — bucket i counts
// samples v with v ≤ 2^i, assigned to the smallest such i — so the bucket
// layout is a pure function of the samples, never of configuration, and
// merged dumps stay byte-identical across worker counts (the
// worker-invariance contract). Negative samples clamp to the first bucket.

// histRecord is the stored form of one histogram: sparse per-bucket counts
// keyed by bucket index, plus the running sum and sample count.
type histRecord struct {
	buckets map[int]int64
	sum     int64
	count   int64
}

// bucketIndex returns the smallest i with v ≤ 2^i (0 for v ≤ 1).
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v - 1))
}

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) uint64 { return 1 << uint(i) }

// HistBucket is one exported histogram bucket: the inclusive upper bound
// and the number of samples that landed in exactly this bucket
// (non-cumulative).
type HistBucket struct {
	Le    uint64
	Count int64
}

// HistSnapshot is the exported state of one histogram.
type HistSnapshot struct {
	Name    string
	Buckets []HistBucket // ascending by Le, empty buckets omitted
	Sum     int64
	Count   int64
}

// Observe records one sample into the named histogram. Nil-safe.
func (r *Recorder) Observe(name string, v int64) {
	if r == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bucketIndex(v)
	r.mu.Lock()
	if r.hists == nil {
		r.hists = make(map[string]*histRecord)
	}
	h := r.hists[name]
	if h == nil {
		h = &histRecord{buckets: make(map[int]int64)}
		r.hists[name] = h
	}
	h.buckets[i]++
	h.sum += v
	h.count++
	r.mu.Unlock()
}

// Histogram returns a copy of the named histogram's state; false if no
// sample was ever observed under that name (or the recorder is nil).
func (r *Recorder) Histogram(name string) (HistSnapshot, bool) {
	if r == nil {
		return HistSnapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return HistSnapshot{}, false
	}
	return exportHist(name, h), true
}

// Histograms returns every histogram's state, sorted by name.
func (r *Recorder) Histograms() []HistSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.histSnapshotLocked()
}

func (r *Recorder) histSnapshotLocked() []HistSnapshot {
	names := make([]string, 0, len(r.hists))
	for name := range r.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]HistSnapshot, 0, len(names))
	for _, name := range names {
		out = append(out, exportHist(name, r.hists[name]))
	}
	return out
}

func exportHist(name string, h *histRecord) HistSnapshot {
	idx := make([]int, 0, len(h.buckets))
	for i := range h.buckets {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	snap := HistSnapshot{Name: name, Sum: h.sum, Count: h.count}
	for _, i := range idx {
		snap.Buckets = append(snap.Buckets, HistBucket{Le: bucketBound(i), Count: h.buckets[i]})
	}
	return snap
}

// adoptHistsLocked folds child histogram state into r (both locks held by
// the caller): bucket counts, sums and counts add, which is commutative —
// adoption order cannot change the merged distribution.
func (r *Recorder) adoptHistsLocked(child map[string]*histRecord) {
	if len(child) == 0 {
		return
	}
	if r.hists == nil {
		r.hists = make(map[string]*histRecord, len(child))
	}
	for name, ch := range child {
		h := r.hists[name]
		if h == nil {
			h = &histRecord{buckets: make(map[int]int64, len(ch.buckets))}
			r.hists[name] = h
		}
		for i, c := range ch.buckets {
			h.buckets[i] += c
		}
		h.sum += ch.sum
		h.count += ch.count
	}
}

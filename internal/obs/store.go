package obs

import (
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/contenthash"
)

// TracedStore observes cache traffic through a cache.Store without
// perturbing it. It preserves the pinned-stats contract exactly: every
// call forwards through the same cache.GetLeveled / GetPrimary /
// PutPrimary helpers a session would use on the bare store, so session
// hit/miss counters — and therefore campaign rows and service
// responses — are byte-identical with the wrapper in place.
//
// Individual lookups are far too frequent for per-lookup spans (one
// scenario's RTA alone performs thousands), so the wrapper aggregates:
// Finish emits one "cache.l1" and, when L2 traffic occurred, one
// "cache.l2" span carrying hit/miss totals for the traced operation.
type TracedStore struct {
	inner cache.Store

	l1Hits atomic.Uint64 // served by the in-process level
	l2Hits atomic.Uint64 // served by the second level
	misses atomic.Uint64 // served by recomputation
	puts   atomic.Uint64
}

// NewTracedStore wraps s. A nil s returns nil, and the zero wrapper is
// never valid — always construct through here.
func NewTracedStore(s cache.Store) *TracedStore {
	if s == nil {
		return nil
	}
	return &TracedStore{inner: s}
}

// Inner returns the wrapped store.
func (t *TracedStore) Inner() cache.Store { return t.inner }

// Get implements cache.Store.
func (t *TracedStore) Get(key contenthash.Digest) (any, bool) {
	v, primary, ok := cache.GetLeveled(t.inner, key)
	t.count(primary, ok)
	return v, ok
}

// Put implements cache.Store.
func (t *TracedStore) Put(key contenthash.Digest, value any) {
	t.puts.Add(1)
	t.inner.Put(key, value)
}

// Stats implements cache.Store, forwarding the inner counters
// untouched (the pinned-stats contract).
func (t *TracedStore) Stats() cache.Stats { return t.inner.Stats() }

// GetLeveled implements cache.Leveled.
func (t *TracedStore) GetLeveled(key contenthash.Digest) (v any, primary, ok bool) {
	v, primary, ok = cache.GetLeveled(t.inner, key)
	t.count(primary, ok)
	return v, primary, ok
}

// GetPrimary implements cache.Leveled.
func (t *TracedStore) GetPrimary(key contenthash.Digest) (any, bool) {
	v, ok := cache.GetPrimary(t.inner, key)
	t.count(true, ok)
	return v, ok
}

// PutPrimary implements cache.Leveled.
func (t *TracedStore) PutPrimary(key contenthash.Digest, value any) {
	t.puts.Add(1)
	cache.PutPrimary(t.inner, key, value)
}

func (t *TracedStore) count(primary, ok bool) {
	switch {
	case ok && primary:
		t.l1Hits.Add(1)
	case ok:
		t.l2Hits.Add(1)
	default:
		t.misses.Add(1)
	}
}

// Counts snapshots the wrapper's own counters (not the inner store's).
func (t *TracedStore) Counts() (l1Hits, l2Hits, misses, puts uint64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	return t.l1Hits.Load(), t.l2Hits.Load(), t.misses.Load(), t.puts.Load()
}

// Finish emits the aggregated cache spans as children of ctx's current
// span: "cache.l1" always (hits = primary hits, misses = everything
// the primary level could not serve), "cache.l2" when any lookup
// reached a second level (hits = L2 hits, misses = full misses). It is
// safe on a nil receiver and without a recording trace.
func (t *TracedStore) Finish(tr *Trace, parent uint64) {
	if t == nil || tr == nil {
		return
	}
	l1, l2, miss, puts := t.Counts()
	if l1+l2+miss+puts == 0 {
		return
	}
	now := time.Now()
	s1 := Span{ID: tr.newSpanID(), Parent: parent, Name: "cache.l1", Start: now}
	s1.Attrs = []Attr{
		{Key: "hits", Value: utoa(l1)},
		{Key: "misses", Value: utoa(l2 + miss)},
		{Key: "puts", Value: utoa(puts)},
	}
	tr.record(s1)
	if l2 > 0 || t.sawL2() {
		s2 := Span{ID: tr.newSpanID(), Parent: parent, Name: "cache.l2", Start: now}
		s2.Attrs = []Attr{
			{Key: "hits", Value: utoa(l2)},
			{Key: "misses", Value: utoa(miss)},
		}
		tr.record(s2)
	}
}

// sawL2 reports whether the inner store has a second level at all.
func (t *TracedStore) sawL2() bool {
	_, leveled := t.inner.(cache.Leveled)
	if !leveled {
		return false
	}
	// A flat store satisfying Leveled is still single-level; only the
	// tiered composition distinguishes levels in its stats.
	st := t.inner.Stats()
	return st.L2 != nil
}

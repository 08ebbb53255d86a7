package cache

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/rdf"
)

func fpOf(labels, preds []uint32) *Footprint {
	fp := NewFootprint()
	for _, l := range labels {
		fp.AddLabel(l)
	}
	for _, p := range preds {
		fp.AddPred(p)
	}
	return fp
}

func TestFootprintIntersects(t *testing.T) {
	empty := NewFootprint()
	universal := NewFootprint()
	universal.WidenAll()
	allLabels := NewFootprint()
	allLabels.WidenLabels()

	cases := []struct {
		name string
		a, b *Footprint
		want bool
	}{
		{"empty-empty", empty, empty, false},
		{"empty-universal", empty, universal, false},
		{"universal-universal", universal, universal, true},
		{"universal-label", universal, fpOf([]uint32{3}, nil), true},
		{"universal-pred", universal, fpOf(nil, []uint32{9}), true},
		{"disjoint-labels", fpOf([]uint32{1, 2}, nil), fpOf([]uint32{3}, nil), false},
		{"shared-label", fpOf([]uint32{1, 2}, nil), fpOf([]uint32{2}, nil), true},
		{"label-vs-pred-same-id", fpOf([]uint32{7}, nil), fpOf(nil, []uint32{7}), false},
		{"shared-pred", fpOf(nil, []uint32{4}), fpOf([]uint32{4}, []uint32{4}), true},
		{"alllabels-vs-preds-only", allLabels, fpOf(nil, []uint32{1}), false},
		{"alllabels-vs-label", allLabels, fpOf([]uint32{1}, nil), true},
		{"nil-anything", nil, universal, false},
	}
	for _, tc := range cases {
		if got := tc.a.Intersects(tc.b); got != tc.want {
			t.Errorf("%s: Intersects = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.b.Intersects(tc.a); got != tc.want {
			t.Errorf("%s (swapped): Intersects = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFootprintMerge(t *testing.T) {
	a := fpOf([]uint32{1}, nil)
	a.Merge(fpOf([]uint32{2}, []uint32{3}))
	if !a.Intersects(fpOf([]uint32{2}, nil)) || !a.Intersects(fpOf(nil, []uint32{3})) {
		t.Fatalf("merge lost ids: %s", a)
	}
	u := NewFootprint()
	u.WidenAll()
	a.Merge(u)
	if !a.Universal() {
		t.Fatalf("merge with universal should widen, got %s", a)
	}
}

func row(terms ...string) []rdf.Term {
	r := make([]rdf.Term, len(terms))
	for i, s := range terms {
		r[i] = rdf.Term(s)
	}
	return r
}

func entryOf(epoch uint64, fp *Footprint, rows int) *Entry {
	rs := make([][]rdf.Term, rows)
	for i := range rs {
		rs[i] = row(fmt.Sprintf("<http://example.org/x%d>", i))
	}
	return NewEntry([]string{"x"}, rs, fp, epoch)
}

func TestCacheHitMissAndLRUEviction(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("hit on empty cache")
	}
	ea := entryOf(1, fpOf(nil, []uint32{1}), 4)
	if !c.Put("a", ea) {
		t.Fatal("Put rejected a small entry")
	}
	got, ok := c.Get("a", 1)
	if !ok || got != ea {
		t.Fatal("expected hit for key a")
	}

	// A budget of ~3 entries: inserting a fourth evicts the LRU one.
	per := ea.Bytes()
	small := New(3*per + per/2)
	for _, k := range []string{"a", "b", "c"} {
		small.Put(k, entryOf(1, fpOf(nil, []uint32{1}), 4))
	}
	small.Get("a", 1) // touch a: b becomes LRU
	small.Put("d", entryOf(1, fpOf(nil, []uint32{1}), 4))
	if _, ok := small.Get("b", 1); ok {
		t.Fatal("LRU entry b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := small.Get(k, 1); !ok {
			t.Fatalf("entry %s should have survived", k)
		}
	}
	st := small.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("used %d exceeds budget %d", st.Bytes, st.Budget)
	}
}

func TestCacheAdmissionCaps(t *testing.T) {
	c := New(1 << 20)
	maxBytes, maxRows := c.Limits()
	if maxBytes <= 0 || maxRows <= 0 {
		t.Fatalf("Limits = %d, %d", maxBytes, maxRows)
	}
	big := entryOf(1, NewFootprint(), maxRows+1)
	if c.Put("big", big) {
		t.Fatal("entry above the row cap was admitted")
	}
	// One giant row blows the byte cap.
	huge := NewEntry([]string{"x"}, [][]rdf.Term{{rdf.Term(make([]byte, maxBytes))}}, NewFootprint(), 1)
	if c.Put("huge", huge) {
		t.Fatal("entry above the byte cap was admitted")
	}
}

func TestCarryForwardAndInvalidation(t *testing.T) {
	c := New(1 << 20)
	// Entry A reads predicate 1; entry B reads predicate 2.
	c.Put("A", entryOf(1, fpOf(nil, []uint32{1}), 2))
	c.Put("B", entryOf(1, fpOf(nil, []uint32{2}), 2))

	// A batch touching predicate 1 moves the store to epoch 2.
	c.Advance(2, fpOf(nil, []uint32{1}))

	if _, ok := c.Get("A", 2); ok {
		t.Fatal("A intersects the delta and must miss")
	}
	eb, ok := c.Get("B", 2)
	if !ok {
		t.Fatal("B is disjoint from the delta and must carry forward")
	}
	if eb.Epoch() != 2 {
		t.Fatalf("B should be re-tagged to epoch 2, got %d", eb.Epoch())
	}
	st := c.Stats()
	if st.CarryForwards != 1 || st.Invalidated != 1 {
		t.Fatalf("carry=%d invalidated=%d, want 1/1", st.CarryForwards, st.Invalidated)
	}

	// A universal delta (schema rebuild) kills everything that reads.
	c.Advance(3, func() *Footprint { f := NewFootprint(); f.WidenAll(); return f }())
	if _, ok := c.Get("B", 3); ok {
		t.Fatal("B must be invalidated by a universal delta")
	}

	// An empty delta (compaction) carries everything forward.
	c.Put("C", entryOf(3, fpOf([]uint32{5}, nil), 2))
	c.Advance(4, NewFootprint())
	if e, ok := c.Get("C", 4); !ok || e.Epoch() != 4 {
		t.Fatal("C must carry forward across an empty delta")
	}
}

func TestStaleBeyondRingDropped(t *testing.T) {
	c := New(1 << 20)
	c.Put("old", entryOf(1, fpOf(nil, []uint32{999}), 1))
	// Push more than deltaRing disjoint batches so the ring forgets the
	// entry's neighborhood.
	for e := uint64(2); e < 2+deltaRing+8; e++ {
		c.Advance(e, fpOf(nil, []uint32{1}))
	}
	if _, ok := c.Get("old", 2+deltaRing+7); ok {
		t.Fatal("entry older than the delta ring must be dropped, not served")
	}
	if st := c.Stats(); st.Invalidated != 1 {
		t.Fatalf("invalidated = %d, want 1", st.Invalidated)
	}
}

func TestLookupAheadOfAdvance(t *testing.T) {
	c := New(1 << 20)
	c.Put("k", entryOf(1, fpOf(nil, []uint32{7}), 1))
	// The store published epoch 2 but Advance has not landed: miss, but the
	// entry must survive to be carried forward once the record arrives.
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("cannot serve epoch 2 before its delta is known")
	}
	c.Advance(2, fpOf(nil, []uint32{8}))
	if e, ok := c.Get("k", 2); !ok || e.Epoch() != 2 {
		t.Fatal("entry should carry forward after the late Advance")
	}
}

func TestSingleflight(t *testing.T) {
	c := New(1 << 20)
	_, fl, leader := c.GetOrStart("q", 1)
	if !leader || fl == nil {
		t.Fatal("first caller must lead")
	}
	var wg sync.WaitGroup
	followers := 8
	got := make([]*Entry, followers)
	for i := 0; i < followers; i++ {
		e2, fl2, lead2 := c.GetOrStart("q", 1)
		if e2 != nil || lead2 {
			t.Fatal("concurrent caller must follow, not lead or hit")
		}
		wg.Add(1)
		go func(i int, fl2 *Flight) {
			defer wg.Done()
			got[i] = fl2.Wait(context.Background())
		}(i, fl2)
	}
	e := entryOf(1, NewFootprint(), 1)
	c.Finish("q", fl, e)
	wg.Wait()
	for i, g := range got {
		if g != e {
			t.Fatalf("follower %d got %v, want the leader's entry", i, g)
		}
	}
	// The flight is resolved: the next caller hits the admitted entry.
	if e2, _, _ := c.GetOrStart("q", 1); e2 != e {
		t.Fatal("entry should be served after Finish")
	}
}

func TestSingleflightFailedLeader(t *testing.T) {
	c := New(1 << 20)
	_, fl, _ := c.GetOrStart("q", 1)
	_, fl2, lead2 := c.GetOrStart("q", 1)
	if lead2 {
		t.Fatal("second caller must follow")
	}
	done := make(chan *Entry)
	go func() { done <- fl2.Wait(context.Background()) }()
	c.Finish("q", fl, nil) // leader failed: nothing admitted
	if got := <-done; got != nil {
		t.Fatal("follower behind a failed leader must get nil")
	}
	if _, ok := c.Get("q", 1); ok {
		t.Fatal("nothing should be cached after a failed flight")
	}
	// The key is free again: the next caller leads.
	if _, _, lead := c.GetOrStart("q", 1); !lead {
		t.Fatal("key must be leadable after a failed flight")
	}
}

// TestSingleflightStaleFlightNotJoined pins the epoch guard on flights: a
// request that has observed a commit intersecting the query must not join a
// flight whose leader started on the snapshot before it — the leader's rows
// predate the write. It runs solo and backfills; a request on the leader's
// own epoch still joins.
func TestSingleflightStaleFlightNotJoined(t *testing.T) {
	c := New(1 << 20)
	fp := fpOf(nil, []uint32{1})
	_, fl, leader := c.GetOrStart("q", 1)
	if !leader {
		t.Fatal("first caller must lead")
	}
	c.Advance(2, fpOf(nil, []uint32{1})) // a write the query reads

	if e, fl2, lead2 := c.GetOrStart("q", 2); e != nil || fl2 != nil || lead2 {
		t.Fatalf("epoch-2 caller joined the epoch-1 flight: e=%v flight=%v leader=%v", e, fl2 != nil, lead2)
	}
	if _, fl1, lead1 := c.GetOrStart("q", 1); fl1 != fl || lead1 {
		t.Fatal("a caller on the leader's epoch must still follow its flight")
	}

	// The solo run backfills at epoch 2; the stale leader finishing later
	// must never make epoch-1 rows servable at epoch 2.
	fresh := entryOf(2, fp, 3)
	if !c.Put("q", fresh) {
		t.Fatal("solo backfill not admitted")
	}
	if e, ok := c.Get("q", 2); !ok || e != fresh {
		t.Fatal("the backfilled entry must serve epoch 2")
	}
	c.Finish("q", fl, entryOf(1, fp, 1))
	if e, ok := c.Get("q", 2); ok && e != fresh {
		t.Fatalf("epoch 2 served the stale leader's %d rows", len(e.Rows))
	}
}

func TestFlightWaitHonorsContext(t *testing.T) {
	c := New(1 << 20)
	_, fl, _ := c.GetOrStart("q", 1)
	_, fl2, _ := c.GetOrStart("q", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if got := fl2.Wait(ctx); got != nil {
		t.Fatal("Wait must return nil on context cancellation")
	}
	c.Finish("q", fl, nil)
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if c != New(0) || New(-1) != nil {
		t.Fatal("non-positive budgets must build a nil cache")
	}
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("nil cache must miss")
	}
	if e, fl, leader := c.GetOrStart("k", 1); e != nil || fl != nil || leader {
		t.Fatal("nil cache must not start flights")
	}
	c.Advance(2, NewFootprint())
	c.Finish("k", nil, nil)
	if c.Put("k", entryOf(1, NewFootprint(), 1)) {
		t.Fatal("nil cache must not admit")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatal("nil cache stats must be zero")
	}
}

func TestConcurrentCacheOps(t *testing.T) {
	c := New(1 << 18)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%10)
				if e, fl, leader := c.GetOrStart(key, uint64(i/20+1)); e == nil {
					if leader {
						c.Finish(key, fl, entryOf(uint64(i/20+1), fpOf(nil, []uint32{uint32(i % 3)}), 2))
					} else if fl != nil {
						fl.Wait(context.Background())
					}
				}
				if g == 0 && i%20 == 19 {
					c.Advance(uint64(i/20+2), fpOf(nil, []uint32{uint32(i % 3)}))
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > st.Budget {
		t.Fatalf("used %d exceeds budget %d", st.Bytes, st.Budget)
	}
}

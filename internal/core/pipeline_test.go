package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// starInstance builds hubs with a labeled fan-out and a star query whose
// leaves form one NEC class, exercising worker-side combination expansion.
func starInstance(hubs, fanout, leaves int) (*graph.Graph, *QueryGraph) {
	fHub, fLeaf := uint32(0), uint32(1)
	b := graph.NewBuilder()
	next := uint32(0)
	for h := 0; h < hubs; h++ {
		hv := next
		next++
		b.AddVertexLabel(hv, fHub)
		for f := 0; f < fanout; f++ {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(hv, 7, lv)
		}
	}
	g := b.Build()
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{fHub}, NoID)
	for i := 0; i < leaves; i++ {
		leaf := q.AddVertex([]uint32{fLeaf}, NoID)
		q.AddEdge(hub, leaf, 7)
	}
	return g, q
}

// matchKey flattens one match for comparison.
func matchKey(mt Match) string {
	return fmt.Sprintf("%v|%v", mt.Vertices, mt.EdgeLabels)
}

// streamKeys drains Stream into per-row keys.
func streamKeys(t *testing.T, g graph.View, q *QueryGraph, sem Semantics, opts Opts) []string {
	t.Helper()
	var keys []string
	n, err := Stream(context.Background(), g, q, sem, opts, func(mt Match) bool {
		keys = append(keys, matchKey(mt))
		return true
	})
	if err != nil {
		t.Fatalf("Stream(workers=%d): %v", opts.Workers, err)
	}
	if n != len(keys) {
		t.Fatalf("Stream(workers=%d) returned %d, visited %d", opts.Workers, n, len(keys))
	}
	return keys
}

// pipelineInstances is the shared corpus of (graph, query) shapes: wide
// bipartite (many regions), the Fig. 1 instance (joins, non-tree edges),
// the skewed Fig. 2 star (empty result), and NEC-class stars.
func pipelineInstances() []struct {
	name string
	g    *graph.Graph
	q    *QueryGraph
} {
	big, bq := bipartiteInstance(48)
	f1g, f1q := fig1Data(), fig1Query()
	f2g, f2q, _, _, _ := fig2Instance()
	sg, sq := starInstance(40, 5, 3)
	// Point-shaped query (one vertex, no edges): takes the pipeline's
	// sequential fast path, which must still hand Collect owned rows.
	pg, _ := starInstance(12, 4, 1)
	pq := NewQueryGraph()
	pq.AddVertex([]uint32{1}, NoID) // the leaf label
	return []struct {
		name string
		g    *graph.Graph
		q    *QueryGraph
	}{
		{"bipartite", big, bq},
		{"fig1", f1g, f1q},
		{"fig2-empty", f2g, f2q},
		{"nec-star", sg, sq},
		{"point", pg, pq},
	}
}

// TestPipelineOrderDifferential is the tentpole's acceptance test at the
// core layer: for every instance, semantics, and optimization mix, Stream
// with Workers ∈ {2, 3, 8} (and a deliberately tiny reorder window) yields
// exactly the sequential row sequence.
func TestPipelineOrderDifferential(t *testing.T) {
	optVariants := []struct {
		name string
		opts Opts
	}{
		{"baseline", Baseline()},
		{"optimized", Optimized()},
		{"nec-off", Opts{NoNEC: true}},
		{"int-only", Opts{Intersect: true}},
	}
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			for _, v := range optVariants {
				t.Run(fmt.Sprintf("%s/%v/%s", inst.name, sem, v.name), func(t *testing.T) {
					seq := v.opts
					seq.Workers = 1
					want := streamKeys(t, inst.g, inst.q, sem, seq)
					for _, workers := range []int{2, 3, 8} {
						for _, window := range []int{0, 1, 2} {
							par := v.opts
							par.Workers = workers
							par.StreamBuffer = window
							got := streamKeys(t, inst.g, inst.q, sem, par)
							if len(got) != len(want) {
								t.Fatalf("workers=%d window=%d: %d rows, want %d", workers, window, len(got), len(want))
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("workers=%d window=%d row %d:\n got %s\nwant %s", workers, window, i, got[i], want[i])
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestPipelineCollectCountDifferential checks the Collect and Count rewires:
// parallel Collect returns the sequential rows in order (including under a
// MaxSolutions cap — a deterministic prefix) and parallel Count the same
// total.
func TestPipelineCollectCountDifferential(t *testing.T) {
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			for _, limit := range []int{0, 7} {
				opts := Optimized()
				opts.Workers = 1
				opts.MaxSolutions = limit
				want, err := Collect(context.Background(), inst.g, inst.q, sem, opts)
				if err != nil {
					t.Fatal(err)
				}
				wantN, err := Count(context.Background(), inst.g, inst.q, sem, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 8} {
					opts.Workers = workers
					got, err := Collect(context.Background(), inst.g, inst.q, sem, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s/%v limit=%d workers=%d: Collect %d rows, want %d",
							inst.name, sem, limit, workers, len(got), len(want))
					}
					for i := range got {
						if matchKey(got[i]) != matchKey(want[i]) {
							t.Fatalf("%s/%v limit=%d workers=%d row %d differs", inst.name, sem, limit, workers, i)
						}
					}
					gotN, err := Count(context.Background(), inst.g, inst.q, sem, opts)
					if err != nil {
						t.Fatal(err)
					}
					if gotN != wantN {
						t.Fatalf("%s/%v limit=%d workers=%d: Count = %d, want %d",
							inst.name, sem, limit, workers, gotN, wantN)
					}
				}
			}
		}
	}
}

// TestPipelineVisitorStop: a visitor returning false stops a parallel
// stream cleanly after the same prefix a sequential stream would deliver.
func TestPipelineVisitorStop(t *testing.T) {
	g, q := bipartiteInstance(32)
	full := streamKeys(t, g, q, Homomorphism, Opts{Workers: 1, Intersect: true})
	const stopAt = 9
	opts := Opts{Workers: 4, Intersect: true}
	var got []string
	n, err := Stream(context.Background(), g, q, Homomorphism, opts, func(mt Match) bool {
		got = append(got, matchKey(mt))
		return len(got) < stopAt
	})
	if err != nil {
		t.Fatalf("visitor stop is not an error, got %v", err)
	}
	if n != stopAt || len(got) != stopAt {
		t.Fatalf("visited %d (returned %d), want %d", len(got), n, stopAt)
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("row %d: %s, want sequential prefix %s", i, got[i], full[i])
		}
	}
}

// TestPipelineCancellation: cancelling mid-stream surfaces ctx.Err() and the
// rows delivered before it form a prefix of the sequential sequence.
func TestPipelineCancellation(t *testing.T) {
	g, q := bipartiteInstance(64)
	full := streamKeys(t, g, q, Homomorphism, Opts{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	var got []string
	_, err := Stream(ctx, g, q, Homomorphism, Opts{Workers: 4}, func(mt Match) bool {
		got = append(got, matchKey(mt))
		if len(got) == 3 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(got) >= len(full) {
		t.Fatalf("cancellation did not cut the stream (saw all %d rows)", len(got))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("row %d: %s, want sequential prefix %s", i, got[i], full[i])
		}
	}

	// Already-cancelled context: prompt error from the pipeline too.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if _, err := Stream(ctx, g, q, Homomorphism, Opts{Workers: 4}, func(Match) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

// TestPipelineProfileMergesToSequentialTotals: a fully drained parallel run
// merges per-worker counters into exactly the sequential totals, for both
// the enumerating and the NEC bulk-count paths.
func TestPipelineProfileMergesToSequentialTotals(t *testing.T) {
	for _, inst := range pipelineInstances() {
		for _, visitMode := range []string{"count", "stream"} {
			var seq, par ProfileResult
			opts := Optimized()
			opts.Workers = 1
			opts.Profile = &seq
			run := func(o Opts) (int, error) {
				if visitMode == "count" {
					return Count(context.Background(), inst.g, inst.q, Homomorphism, o)
				}
				return Stream(context.Background(), inst.g, inst.q, Homomorphism, o, func(Match) bool { return true })
			}
			wantN, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Workers = 4
			opts.Profile = &par
			gotN, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Fatalf("%s/%s: parallel %d, want %d", inst.name, visitMode, gotN, wantN)
			}
			if par != seq {
				t.Fatalf("%s/%s: parallel profile %+v != sequential %+v", inst.name, visitMode, par, seq)
			}
		}
	}
}

// TestRunSpanAbandonedCursorNoPollution: when the span-local MaxSolutions
// cutoff abandons a region mid-enumeration, the suspended cursor's frames
// still hold used[] flags and predicate-variable bindings in the worker's
// searchState. runSpan must unwind them (regionCursor.abort) before the
// state serves another piece — a worker that later runs a piece preceding
// the limit cut would otherwise silently drop that piece's rows. The test
// drives runSpan directly: a heavy region that trips the cutoff, then a
// light region through the same worker whose every row reuses a data vertex
// (or edge label) the abandoned search had bound.
func TestRunSpanAbandonedCursorNoPollution(t *testing.T) {
	fHub, fLeaf := uint32(0), uint32(1)
	// Hub 0 sees all six shared leaves; hub 1 only leaves 2 and 3 — the very
	// vertices an abandoned hub-0 search holds bound (candidates enumerate in
	// adjacency order, so leaf 2 is bound from the first row on).
	isoInstance := func() (*graph.Graph, *QueryGraph) {
		b := graph.NewBuilder()
		b.AddVertexLabel(0, fHub)
		b.AddVertexLabel(1, fHub)
		for l := uint32(2); l < 8; l++ {
			b.AddVertexLabel(l, fLeaf)
			b.AddEdge(0, 7, l)
		}
		b.AddEdge(1, 7, 2)
		b.AddEdge(1, 7, 3)
		q := NewQueryGraph()
		hub := q.AddVertex([]uint32{fHub}, NoID)
		for i := 0; i < 2; i++ {
			leaf := q.AddVertex([]uint32{fLeaf}, NoID)
			q.AddEdge(hub, leaf, 7)
		}
		return b.Build(), q
	}
	// The query's two edges share predicate variable 0; hub 0's edges are
	// labeled 7, hub 1's 8 — a stale varBind from the abandoned heavy region
	// rejects every light-region label.
	predVarInstance := func() (*graph.Graph, *QueryGraph) {
		b := graph.NewBuilder()
		b.AddVertexLabel(0, fHub)
		b.AddVertexLabel(1, fHub)
		for l := uint32(2); l < 8; l++ {
			b.AddVertexLabel(l, fLeaf)
			b.AddEdge(0, 7, l)
		}
		for l := uint32(8); l < 10; l++ {
			b.AddVertexLabel(l, fLeaf)
			b.AddEdge(1, 8, l)
		}
		q := NewQueryGraph()
		hub := q.AddVertex([]uint32{fHub}, NoID)
		for i := 0; i < 2; i++ {
			leaf := q.AddVertex([]uint32{fLeaf}, NoID)
			q.AddVarEdge(hub, leaf, 0)
		}
		return b.Build(), q
	}

	cases := []struct {
		name      string
		sem       Semantics
		noNEC     bool
		inst      func() (*graph.Graph, *QueryGraph)
		lightRows int // rows of hub 1's region
	}{
		{"iso-used", Isomorphism, true, isoInstance, 2},         // cfSearch bindings
		{"iso-nec-expand", Isomorphism, false, isoInstance, 2},  // cfExpand assignments
		{"hom-predvar", Homomorphism, true, predVarInstance, 4}, // cfWild variable bindings
	}
	for _, tc := range cases {
		for _, limit := range []int{1, 3, 5} {
			t.Run(fmt.Sprintf("%s/limit=%d", tc.name, limit), func(t *testing.T) {
				g, q := tc.inst()
				opts := Optimized()
				opts.NoNEC = tc.noNEC
				opts.Workers = 1
				seq := streamKeys(t, g, q, tc.sem, opts)
				if len(seq)-tc.lightRows <= limit {
					t.Fatalf("heavy region too small (%d total rows) to trip the span cutoff at %d", len(seq), limit)
				}

				ps, w := testPipe(g, q, tc.sem, opts, 1, limit)
				if len(ps.cands) != 2 {
					t.Fatalf("start vertex %d with %d candidates, want the 2 hubs", ps.start, len(ps.cands))
				}
				runOne := func() []string { return drainPiece(w, ps.claim()) }

				// The heavy region exceeds the span limit: runSpan abandons it
				// mid-enumeration after exactly limit rows.
				heavy := runOne()
				if len(heavy) != limit {
					t.Fatalf("heavy span delivered %d rows, want the span limit %d", len(heavy), limit)
				}
				for i := range heavy {
					if heavy[i] != seq[i] {
						t.Fatalf("heavy row %d: %s, want %s", i, heavy[i], seq[i])
					}
				}
				// The abandoned cursor must leave no bindings behind.
				for v, u := range w.st.used {
					if u {
						t.Errorf("used[%d] still set after abandoning the heavy region", v)
					}
				}
				for i, bnd := range w.st.varBind {
					if bnd != NoID {
						t.Errorf("varBind[%d] = %d still bound after abandoning the heavy region", i, bnd)
					}
				}
				// The light region through the same worker state stands in for
				// an earlier piece the emitter still replays: its rows
				// (up to the fresh span's own limit) must match the sequential
				// tail exactly.
				want := seq[len(seq)-tc.lightRows:]
				if limit < len(want) {
					want = want[:limit]
				}
				light := runOne()
				if len(light) != len(want) {
					t.Fatalf("light span delivered %d rows, want %d — stale bindings dropped rows", len(light), len(want))
				}
				for i := range light {
					if light[i] != want[i] {
						t.Fatalf("light row %d: %s, want %s", i, light[i], want[i])
					}
				}
			})
		}
	}
}

// TestPipelineBackpressure: with a tiny reorder window, an early stop leaves
// most regions unexplored — the backpressure contract that makes Close
// cheap on parallel cursors.
func TestPipelineBackpressure(t *testing.T) {
	g, q := bipartiteInstance(256)
	var full ProfileResult
	opts := Opts{Workers: 1, Profile: &full}
	if _, err := Stream(context.Background(), g, q, Homomorphism, opts, func(Match) bool { return true }); err != nil {
		t.Fatal(err)
	}

	var part ProfileResult
	opts = Opts{Workers: 4, StreamBuffer: 2, Profile: &part}
	seen := 0
	if _, err := Stream(context.Background(), g, q, Homomorphism, opts, func(Match) bool {
		seen++
		return seen < 2
	}); err != nil {
		t.Fatal(err)
	}
	if part.Regions == 0 {
		t.Fatalf("no effort recorded: %+v", part)
	}
	if part.Regions*4 >= full.Regions {
		t.Fatalf("early stop explored %d of %d regions despite a 2-batch window", part.Regions, full.Regions)
	}
}

// testPipe builds the coordination state of one collecting pipeline run over
// g and q — batches of chunk regions, a span-local row limit, no emitter and
// no running workers — plus one worker on it, so a test can drive claim,
// runSpan and splitting by hand.
func testPipe(g graph.View, q *QueryGraph, sem Semantics, opts Opts, chunk, limit int) (*pipeState, *pipeWorker) {
	m := newMatcher(context.Background(), g, q, sem, opts)
	start, cands := m.startCandidates()
	m.buildQueryTree(start)
	numBatches := (len(cands) + chunk - 1) / chunk
	ps := &pipeState{
		m: m, cands: cands, start: start,
		chunk: chunk, numBatches: numBatches,
		collect: true, limit: limit, quota: 64,
		done:     make(chan struct{}),
		ring:     make([]chan *span, numBatches),
		want:     make(chan chan *piece),
		finished: make(chan struct{}),
	}
	for i := range ps.ring {
		ps.ring[i] = make(chan *span, 1)
	}
	return ps, ps.newWorker()
}

// drainPiece runs p on w and returns the rows delivered into its span.
func drainPiece(w *pipeWorker, p *piece) []string {
	out := make(chan []string, 1)
	go func() {
		var keys []string
		for seg := range p.sp.segs {
			for _, mt := range seg.sols {
				keys = append(keys, matchKey(mt))
			}
		}
		out <- keys
	}()
	w.runSpan(p)
	return <-out
}

// TestSplitOnRequest unit-tests the splitting protocol without a scheduler:
// a batch cursor gives up ⌈remaining/2⌉ of its regions from the tail, each
// split's span goes directly after the owner's so successive splits chain
// in sequential order, a spent range frame hands out work from inside the
// current region without the owner's current bindings, and an owner with no
// waiting requester never splits. Replaying the owner and then every piece
// in chain order must reproduce the unsplit batch row for row.
func TestSplitOnRequest(t *testing.T) {
	g, q := starInstance(40, 5, 3)
	opts := Optimized()
	opts.NoNEC = true // one cfSearch frame per leaf
	ps, w := testPipe(g, q, Isomorphism, opts, 64, 0)
	if len(ps.cands) != 40 {
		t.Fatalf("%d start candidates, want the 40 hubs", len(ps.cands))
	}
	rows := func(buf []Match) []string {
		keys := make([]string, len(buf))
		for i, mt := range buf {
			keys[i] = matchKey(mt)
		}
		return keys
	}

	// The reference: the batch [5,25) run unsplit on a second worker.
	ref := ps.newWorker()
	ref.rc.start(ref.st, 5, 25)
	if !ref.rc.resume(0) {
		t.Fatal("unsplit batch did not finish")
	}
	want := rows(ref.buf)

	succ := newSpan()
	owner := &piece{lo: 5, hi: 25, sp: &span{segs: make(chan segment, 1), next: succ}}
	rc := &w.rc
	rc.start(w.st, owner.lo, owner.hi)
	w.sp = owner.sp

	// No requester waits on ps.want: serving must leave the cursor alone.
	splits := pipelineSplits.Load()
	w.serve(rc)
	if owner.sp.next != succ || len(rc.stack[0].list) != 25 || pipelineSplits.Load() != splits {
		t.Fatal("owner split with no waiting requester")
	}

	var pieces []*piece
	split := func() *piece {
		reply := make(chan *piece, 1)
		w.give(rc, reply)
		p := <-reply
		pieces = append(pieces, p)
		return p
	}
	// Range splits take ⌈remaining/2⌉ regions from the tail: 20 → [15,25),
	// 10 → [10,15), 5 → [7,10).
	for _, r := range [][2]int{{15, 25}, {10, 15}, {7, 10}} {
		if p := split(); p.rc != nil || p.lo != r[0] || p.hi != r[1] {
			t.Fatalf("range split: got [%d,%d) in-region=%v, want [%d,%d)", p.lo, p.hi, p.rc != nil, r[0], r[1])
		}
	}
	// Each split lands directly after the owner: owner → T3 → T2 → T1 → succ.
	chain := []*span{owner.sp, pieces[2].sp, pieces[1].sp, pieces[0].sp, succ}
	for i := 0; i+1 < len(chain); i++ {
		if chain[i].next != chain[i+1] {
			t.Fatalf("chain link %d out of order", i)
		}
	}

	// Enter region 5 and deliver its first row: the range keeps region 6
	// pending, and the region holds pending leaf loops above it.
	if rc.resume(1) {
		t.Fatal("owner finished after one row")
	}
	if p := split(); p.rc != nil || p.lo != 6 || p.hi != 7 {
		t.Fatalf("last range split: got [%d,%d) in-region=%v, want [6,7)", p.lo, p.hi, p.rc != nil)
	}
	// The range frame is spent: the next split comes from the bottom-most
	// pending candidate loop inside region 5, the first leaf's (4 of its 5
	// candidates pending, so the piece takes 2).
	hub := w.st.mapping[q.Edges[0].From]
	in := split()
	if in.rc == nil {
		t.Fatal("split of a spent range did not come from inside the region")
	}
	f := in.rc.stack[0]
	if len(in.rc.stack) != 1 || f.kind != cfSearch || f.dc != 1 || len(f.list) != 2 {
		t.Fatalf("in-region piece: %d frames, kind %d at dc %d over %d candidates; want one cfSearch frame at dc 1 over 2",
			len(in.rc.stack), f.kind, f.dc, len(f.list))
	}
	for v, used := range in.rc.st.used {
		if used != (uint32(v) == hub) {
			t.Errorf("piece used[%d] = %v: only the hub, bound below the split point, may be bound", v, used)
		}
	}
	for i, b := range in.rc.st.varBind {
		if b != NoID {
			t.Errorf("piece varBind[%d] = %d, want unbound", i, b)
		}
	}

	// Finish the owner, then replay every piece in chain order.
	if !rc.resume(0) {
		t.Fatal("owner did not finish")
	}
	got := rows(w.buf)
	w.buf = nil
	for sp := owner.sp.next; sp != succ; sp = sp.next {
		var p *piece
		for _, c := range pieces {
			if c.sp == sp {
				p = c
			}
		}
		if p == nil {
			t.Fatal("chain holds a span no piece feeds")
		}
		got = append(got, drainPiece(ps.newWorker(), p)...)
	}
	if len(got) != len(want) {
		t.Fatalf("owner plus pieces delivered %d rows, unsplit batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: %s, want %s", i, got[i], want[i])
		}
	}
}

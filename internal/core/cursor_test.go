package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
)

// cursorKeys drives a whole-run Cursor under a pause/resume schedule:
// quotas are taken from sched cyclically (nil = run to exhaustion in one
// Resume). It returns the per-row keys and the summed per-call row counts.
func cursorKeys(t *testing.T, g graph.View, q *QueryGraph, sem Semantics, opts Opts, sched []int) ([]string, int) {
	t.Helper()
	var keys []string
	c, err := NewCursor(context.Background(), g, q, sem, opts, func(mt Match) bool {
		keys = append(keys, matchKey(mt))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; ; i++ {
		quota := 0
		if len(sched) > 0 {
			quota = sched[i%len(sched)]
		}
		n, done, err := c.Resume(quota)
		if err != nil {
			t.Fatalf("Resume: %v", err)
		}
		total += n
		if done {
			break
		}
		if quota > 0 && n == 0 {
			t.Fatalf("suspended cursor made no progress (quota %d after %d rows)", quota, total)
		}
	}
	return keys, total
}

// resumeSchedules is the satellite's pause/resume corpus: suspend after
// every row, after every 7 rows, and at random points.
func resumeSchedules(r *rand.Rand) map[string][]int {
	random := make([]int, 17)
	for i := range random {
		random[i] = 1 + r.Intn(11)
	}
	return map[string][]int{
		"uninterrupted": nil,
		"every-row":     {1},
		"every-7":       {7},
		"random":        random,
	}
}

// TestCursorDifferential is the tentpole's core acceptance suite: over the
// full instance corpus, both semantics, NEC on and off, and every
// pause/resume schedule, the resumable cursor must reproduce the recursive
// sequential enumeration byte-identically — rows, order, and profile
// totals.
func TestCursorDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	scheds := resumeSchedules(r)
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			for _, noNEC := range []bool{false, true} {
				opts := Optimized()
				opts.NoNEC = noNEC
				opts.Workers = 1
				var wantProf ProfileResult
				seq := opts
				seq.Profile = &wantProf
				want := streamKeys(t, inst.g, inst.q, sem, seq)
				for name, sched := range scheds {
					t.Run(fmt.Sprintf("%s/%v/noNEC=%v/%s", inst.name, sem, noNEC, name), func(t *testing.T) {
						var gotProf ProfileResult
						copts := opts
						copts.Profile = &gotProf
						got, n := cursorKeys(t, inst.g, inst.q, sem, copts, sched)
						if n != len(want) || len(got) != len(want) {
							t.Fatalf("cursor: %d rows (reported %d), want %d", len(got), n, len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("row %d:\n got %s\nwant %s", i, got[i], want[i])
							}
						}
						if gotProf != wantProf {
							t.Fatalf("profile diverged:\ncursor %+v\n  want %+v", gotProf, wantProf)
						}
					})
				}
			}
		}
	}
}

// TestCursorBaselineOpts runs the pause/resume differential under the
// unoptimized configuration too (per-region plans, no +INT, no +REUSE),
// where the cursor exercises the IsJoinable membership path.
func TestCursorBaselineOpts(t *testing.T) {
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			opts := Baseline()
			opts.Workers = 1
			want := streamKeys(t, inst.g, inst.q, sem, opts)
			got, _ := cursorKeys(t, inst.g, inst.q, sem, opts, []int{3})
			if len(got) != len(want) {
				t.Fatalf("%s/%v: %d rows, want %d", inst.name, sem, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%v row %d: %s want %s", inst.name, sem, i, got[i], want[i])
				}
			}
		}
	}
}

// TestResumableWorkersDifferential is the workers axis of the satellite
// suite: the pipeline (itself built on suspended cursors, with per-segment
// quotas derived from StreamBuffer) must reproduce the sequential rows for
// every worker count and row-buffer bound.
func TestResumableWorkersDifferential(t *testing.T) {
	for _, inst := range pipelineInstances() {
		for _, sem := range []Semantics{Homomorphism, Isomorphism} {
			for _, noNEC := range []bool{false, true} {
				opts := Optimized()
				opts.NoNEC = noNEC
				opts.Workers = 1
				want := streamKeys(t, inst.g, inst.q, sem, opts)
				for _, workers := range []int{2, 4, 8} {
					for _, rows := range []int{0, 1, 7} {
						par := opts
						par.Workers = workers
						par.StreamBuffer = rows
						got := streamKeys(t, inst.g, inst.q, sem, par)
						if len(got) != len(want) {
							t.Fatalf("%s/%v/noNEC=%v workers=%d buf=%d: %d rows, want %d",
								inst.name, sem, noNEC, workers, rows, len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s/%v/noNEC=%v workers=%d buf=%d row %d:\n got %s\nwant %s",
									inst.name, sem, noNEC, workers, rows, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestCursorLimitAndStop pins MaxSolutions and visitor-stop semantics on the
// cursor: the same prefix as the sequential run, stopping mid-resume.
func TestCursorLimitAndStop(t *testing.T) {
	g, q := bipartiteInstance(24)
	opts := Optimized()
	opts.Workers = 1
	full := streamKeys(t, g, q, Homomorphism, opts)

	opts.MaxSolutions = 11
	got, n := cursorKeys(t, g, q, Homomorphism, opts, []int{3})
	if n != 11 || len(got) != 11 {
		t.Fatalf("limit: %d rows (reported %d), want 11", len(got), n)
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("limit row %d: %s, want prefix %s", i, got[i], full[i])
		}
	}

	// Visitor stop: stop after 5 rows mid-resume; done with no error.
	opts.MaxSolutions = 0
	var stopped []string
	c, err := NewCursor(context.Background(), g, q, Homomorphism, opts, func(mt Match) bool {
		stopped = append(stopped, matchKey(mt))
		return len(stopped) < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	n, done, err := c.Resume(0)
	if err != nil || !done {
		t.Fatalf("stop: done=%v err=%v", done, err)
	}
	if n != 5 || len(stopped) != 5 {
		t.Fatalf("stop: %d rows (reported %d), want 5", len(stopped), n)
	}
	// Idempotent after done.
	if n, done, err := c.Resume(0); n != 0 || !done || err != nil {
		t.Fatalf("post-done Resume = (%d, %v, %v)", n, done, err)
	}
}

// TestCursorCancellation: a cancelled context surfaces through Resume and
// the rows delivered before it form a sequential prefix.
func TestCursorCancellation(t *testing.T) {
	g, q := bipartiteInstance(32)
	opts := Optimized()
	opts.Workers = 1
	full := streamKeys(t, g, q, Homomorphism, opts)

	ctx, cancel := context.WithCancel(context.Background())
	var got []string
	c, err := NewCursor(ctx, g, q, Homomorphism, opts, func(mt Match) bool {
		got = append(got, matchKey(mt))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := c.Resume(3); done || err != nil {
		t.Fatalf("first resume: done=%v err=%v", done, err)
	}
	cancel()
	var lastErr error
	for i := 0; i < len(full)+1; i++ {
		_, done, err := c.Resume(3)
		if done {
			lastErr = err
			break
		}
	}
	if lastErr != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", lastErr)
	}
	if len(got) >= len(full) {
		t.Fatalf("cancellation did not cut the run (%d rows)", len(got))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("row %d: %s, want prefix %s", i, got[i], full[i])
		}
	}
}

// skewedInstance builds an instance whose FIRST region dwarfs the rest: hub
// 0 has a fan-out of big leaves while the remaining hubs have small ones, so
// a two-leaf query yields big² rows from one region and tiny trickles from
// the others — the shape that used to buffer a whole region and now
// exercises suspended cursors and work splitting.
func skewedInstance(big, smallHubs, small int) (*graph.Graph, *QueryGraph) {
	fHub, fLeaf := uint32(0), uint32(1)
	b := graph.NewBuilder()
	next := uint32(0)
	addHub := func(fan int) {
		hv := next
		next++
		b.AddVertexLabel(hv, fHub)
		for f := 0; f < fan; f++ {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(hv, 7, lv)
		}
	}
	addHub(big)
	for h := 0; h < smallHubs; h++ {
		addHub(small)
	}
	g := b.Build()
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{fHub}, NoID)
	for i := 0; i < 2; i++ {
		leaf := q.AddVertex([]uint32{fLeaf}, NoID)
		q.AddEdge(hub, leaf, 7)
	}
	return g, q
}

// heavyTailInstance puts the expensive regions at the END of the candidate
// range: many trivial hubs followed by a block of heavy ones. Workers that
// drain the trivial batches go idle while one worker grinds through the
// heavy tail batch — exactly the shape adaptive splitting exists for.
func heavyTailInstance(light, heavy, heavyFan int) (*graph.Graph, *QueryGraph) {
	fHub, fLeaf := uint32(0), uint32(1)
	b := graph.NewBuilder()
	next := uint32(0)
	addHub := func(fan int) {
		hv := next
		next++
		b.AddVertexLabel(hv, fHub)
		for f := 0; f < fan; f++ {
			lv := next
			next++
			b.AddVertexLabel(lv, fLeaf)
			b.AddEdge(hv, 7, lv)
		}
	}
	for h := 0; h < light; h++ {
		addHub(1)
	}
	for h := 0; h < heavy; h++ {
		addHub(heavyFan)
	}
	g := b.Build()
	q := NewQueryGraph()
	hub := q.AddVertex([]uint32{fHub}, NoID)
	for i := 0; i < 2; i++ {
		leaf := q.AddVertex([]uint32{fLeaf}, NoID)
		q.AddEdge(hub, leaf, 7)
	}
	return g, q
}

// TestPipelineStealSplit: with the heavy regions packed into the tail
// batches, workers that finish the light work ask the loaded batch's owner
// for part of its work, and the merged output must still be the exact
// sequential sequence — for streaming, Collect, and Count alike.
func TestPipelineStealSplit(t *testing.T) {
	// 930 regions, 4 workers: chunk = 930/32+1 = 30, so the 30 heavy
	// regions land in exactly the last batch. The three workers that drain
	// the trivial batches find the shared cursor exhausted while the last
	// batch's owner is grinding 30 × 1600-row regions — they must split it.
	g, q := heavyTailInstance(900, 30, 40)
	opts := Optimized()
	opts.NoNEC = true
	opts.Workers = 1
	want := streamKeys(t, g, q, Homomorphism, opts)
	wantN, err := Count(context.Background(), g, q, Homomorphism, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Streaming with a tiny row budget parks the heavy batch's owner on
	// backpressure with a suspended cursor; pausing the consumer once inside
	// the heavy range hands the CPU to the idle workers (on a single-core
	// scheduler the emitter/owner channel ping-pong would otherwise starve
	// them), which must then find every batch claimed and ask the owner for
	// part of its remaining work.
	before := pipelineSplits.Load()
	par := opts
	par.Workers = 4
	par.StreamBuffer = 8
	var got []string
	rows := 0
	n, err := Stream(context.Background(), g, q, Homomorphism, par, func(mt Match) bool {
		rows++
		if rows == 1000 { // inside heavy region 0: 29 heavy regions still pending
			time.Sleep(5 * time.Millisecond)
		}
		got = append(got, matchKey(mt))
		return true
	})
	if err != nil || n != len(want) {
		t.Fatalf("stream: %d rows (%v), want %d", n, err, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stream row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	if splits := pipelineSplits.Load() - before; splits == 0 {
		t.Error("no splits on the heavy-tail stream: work splitting never engaged")
	}

	// Count takes the same split paths; totals must match sequentially.
	gotN, err := Count(context.Background(), g, q, Homomorphism, par)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != wantN {
		t.Fatalf("count: %d, want %d", gotN, wantN)
	}
}

// TestCappedParallelCountBounded: MaxSolutions must bound parallel COUNT
// work even when one region holds millions of solutions — the span-local
// cutoff stops the cursor mid-region (a regression here once cost ~700x:
// workers with no limit searched whole spans before delivering any count).
func TestCappedParallelCountBounded(t *testing.T) {
	g, q := skewedInstance(2000, 0, 0) // one region, 4M rows
	opts := Optimized()
	opts.NoNEC = true // count every solution individually
	opts.Workers = 4
	opts.MaxSolutions = 1
	var prof ProfileResult
	opts.Profile = &prof
	n, err := Count(context.Background(), g, q, Homomorphism, opts)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if prof.SearchNodes > 200_000 {
		t.Fatalf("capped count searched %d nodes of a 4M-row region: early termination lost", prof.SearchNodes)
	}
}

// TestPipelineSkewedFirstRowsBounded is the memory-bound regression: one
// region yields >100k rows, and streaming its first 10 must not buffer the
// region. The assertion is on delivered work, via the profile: with a tiny
// row budget, the emitter consumes 10 rows and stops; the workers' merged
// SearchNodes must be a small fraction of the full run's (whole-region
// buffering would search all >100k rows before delivering the first).
// The allocation-side assertion lives in BenchmarkSkewedFirstRows and the
// GOMEMLIMIT-constrained CI step.
func TestPipelineSkewedFirstRowsBounded(t *testing.T) {
	g, q := skewedInstance(340, 4, 2) // region 0 alone: 340² = 115_600 rows
	opts := Optimized()
	opts.NoNEC = true // search every row (NEC would bulk-expand combinatorially)
	opts.Workers = 1
	var full ProfileResult
	opts.Profile = &full
	if _, err := Stream(context.Background(), g, q, Homomorphism, opts, func(Match) bool { return true }); err != nil {
		t.Fatal(err)
	}

	var part ProfileResult
	par := Optimized()
	par.NoNEC = true
	par.Workers = 2
	par.StreamBuffer = 16
	par.Profile = &part
	seen := 0
	if _, err := Stream(context.Background(), g, q, Homomorphism, par, func(Match) bool {
		seen++
		return seen < 10
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("saw %d rows, want 10", seen)
	}
	if part.SearchNodes*20 >= full.SearchNodes {
		t.Fatalf("first-10 search effort not bounded: %d of %d search nodes (whole-region buffering?)",
			part.SearchNodes, full.SearchNodes)
	}
}

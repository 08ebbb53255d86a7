package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := beyond(1000, 99); got != 10 {
		t.Errorf("beyond(1000, 99) = %d, want 10", got)
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	// 98 fast requests and 2 failures: p99 must land on a failure, p50 not.
	var v []float64
	for i := 0; i < 98; i++ {
		v = append(v, 1)
	}
	v = append(v, failed, failed)
	if got := percentile(v, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := percentile(v, 50); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	if got := finite(percentile(v, 99)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want MaxFloat64", got)
	}
}

// A server that stalls its first response while a one-connection client
// keeps to a fixed schedule: every queued request's latency must count from
// when it was due, not from when it finally went out.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
		w.Write([]byte(`{"head":{"vars":[]},"results":{"bindings":[` + "\n]}}\n"))
	}))
	defer srv.Close()
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), 1)
	defer c.close()

	reqs := make([]request, 6)
	const rate = 50.0 // one request every 20ms, all due within the stall
	samples, lag, start := openLoop(context.Background(), c, reqs, rate)
	stallEnd := start.Add(stall)
	for i, s := range samples {
		if s.rep.err != nil {
			t.Fatalf("request %d: %v", i, s.rep.err)
		}
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if min := stallEnd.Sub(due); s.latency < min {
			t.Errorf("request %d: latency %v, but it was due %v before the stall ended", i, s.latency, min)
		}
		if lag[i] > 100*time.Millisecond {
			t.Errorf("request %d: send started %v late; the generator must not wait for responses", i, lag[i])
		}
	}
}

func TestOracleMismatchIsAFailure(t *testing.T) {
	o := &oracle{memo: map[string]int{"q": 10, "w": 3}, perBatch: map[string]int{"w": 5}}
	samples := []sample{
		{req: request{text: "q"}, rep: reply{rows: 10}},
		{req: request{text: "q"}, rep: reply{rows: 11}},
		{req: request{text: "q"}, rep: reply{rows: 7, err: errors.New("transport")}}, // already failed
		// Writes-affected read: acked 1 write (1 live batch), 2 sent by the
		// end (2 live): 8..13 rows are possible.
		{req: request{text: "w"}, rep: reply{rows: 13}, ackedBefore: 1, sentBefore: 2},
		{req: request{text: "w"}, rep: reply{rows: 3}, ackedBefore: 1, sentBefore: 2},
	}
	live := []int{0, 1, 2}
	bad, err := o.check(samples, live)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 2 {
		t.Fatalf("mismatches = %d, want 2", bad)
	}
	for i, wantErr := range []bool{false, true, true, false, true} {
		if (samples[i].rep.err != nil) != wantErr {
			t.Errorf("sample %d: err = %v, want failed=%v", i, samples[i].rep.err, wantErr)
		}
	}
}

func TestSequencesAreDeterministic(t *testing.T) {
	for _, wl := range []string{"bsbm-explore", "lubm-hot", "lubm-rw"} {
		a, b := seqDigest(newSequence(wl, 7), 500), seqDigest(newSequence(wl, 7), 500)
		if a != b {
			t.Errorf("%s: seed 7 gave two different sequences", wl)
		}
		if c := seqDigest(newSequence(wl, 8), 500); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", wl)
		}
	}
}

func TestRWSequenceShape(t *testing.T) {
	s := newRWSeq(3)
	writes, live := 0, 0
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		r := s.next()
		if !r.write {
			continue
		}
		writes++
		if r.insert {
			seen[r.batch] = true
			live++
		} else {
			if !seen[r.batch] {
				t.Fatalf("request %d deletes batch %d before inserting it", i, r.batch)
			}
			live--
		}
		if live != r.liveAfter || live < 0 || live > maxLive {
			t.Fatalf("request %d: live %d, liveAfter %d", i, live, r.liveAfter)
		}
	}
	if writes != 1000/writeEvery {
		t.Errorf("writes = %d, want exactly %d", writes, 1000/writeEvery)
	}
}

func TestDeckKeepsProportions(t *testing.T) {
	s := newLUBMSeq(1)
	counts := map[string]int{}
	round := 0
	for _, w := range s.mix.weights {
		round += w
	}
	for i := 0; i < 3*round; i++ {
		counts[s.next().tmpl]++
	}
	for k, q := range s.queries {
		if got, want := counts[q.ID], 3*s.mix.weights[k]; got != want {
			t.Errorf("%s drawn %d times in 3 rounds, want %d", q.ID, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},   // root
		{ID: 1, Parent: 0, Start: 10, End: 40},    // child
		{ID: 2, Parent: 0, Start: 30, End: 60},    // overlaps child 1: union 10..60
		{ID: 3, Parent: 0, Start: 90, End: 120},   // runs past the parent: clipped to 90..100
		{ID: 4, Parent: 1, Start: 15, End: 20},    // grandchild
		{ID: 5, Parent: -1, Start: 200, End: 250}, // leaf root
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestScanRows(t *testing.T) {
	head := `{"head":{"vars":["x"]},"results":{"bindings":[`
	for _, c := range []struct {
		doc  string
		rows int
		ok   bool
	}{
		{head + "\n]}}\n", 0, true},
		{head + "\n{\"x\":{\"type\":\"uri\",\"value\":\"a\"}}\n]}}\n", 1, true},
		{head + "\n{\"x\":{\"type\":\"literal\",\"value\":\"a\\nb\"}},\n{}\n]}}\n", 2, true},
		{head + "\n{\"x\":1}", 0, false},                // cut short
		{head + "\n{\"x\":1}\nx\n]}}\n", 0, false},      // a line that is not a row
		{`{"head":{},"boolean":true}` + "\n", 0, false}, // not a row set
	} {
		n, err := scanRows([]byte(c.doc))
		if (err == nil) != c.ok || (c.ok && n != c.rows) {
			t.Errorf("scanRows(%q) = %d, %v; want %d, ok=%v", c.doc, n, err, c.rows, c.ok)
		}
	}
}

// BENCHMARK.json at the repository root declares the metrics the result
// line carries; the two lists must agree.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, report carries %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, report carries %v", got, perLayer)
	}
}

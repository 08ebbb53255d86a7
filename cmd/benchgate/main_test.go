package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestCollect(t *testing.T) {
	// ev wraps one output line as a test2json event.
	ev := func(out string) string {
		b, err := json.Marshal(testEvent{Action: "output", Output: out})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name string
		in   []string
		want map[string]metrics
	}{
		{
			name: "plain with -N suffixes",
			in: []string{
				"goos: linux",
				"BenchmarkA-8   \t 1000\t 1200 ns/op\t 64 B/op\t 2 allocs/op",
				"BenchmarkA-8   \t 1000\t 1000 ns/op\t 64 B/op\t 2 allocs/op",
				"BenchmarkB/sub-2 \t 50\t 3.5e+03 ns/op\t 12.5 bytes-per-row",
				"PASS",
			},
			want: map[string]metrics{
				"BenchmarkA":     {"ns/op": {1200, 1000}, "B/op": {64, 64}, "allocs/op": {2, 2}},
				"BenchmarkB/sub": {"ns/op": {3500}, "bytes-per-row": {12.5}},
			},
		},
		{
			name: "test2json with name and measurements split across events",
			in: []string{
				ev("BenchmarkC-4   \t"),
				ev("    2000\t  900 ns/op\t  16 B/op\n"),
				`{"Action":"run","Test":"BenchmarkC"}`,
				ev("BenchmarkD-4   \t  10\t  7 ns/op\n"),
				ev("ok  \trepro\t1.2s\n"),
			},
			want: map[string]metrics{
				"BenchmarkC": {"ns/op": {900}, "B/op": {16}},
				"BenchmarkD": {"ns/op": {7}},
			},
		},
		{
			name: "entries without ns/op are dropped",
			in: []string{
				"BenchmarkServe/p99 \t 1\t 42 ms",
				"BenchmarkE \t 1\t 5 ns/op",
			},
			want: map[string]metrics{
				"BenchmarkE": {"ns/op": {5}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := collect(strings.NewReader(strings.Join(tc.in, "\n") + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("collect:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 1, 1, 10, 5, 6}, 5.5},
	}
	for _, tc := range cases {
		if got := median(append([]float64(nil), tc.xs...)); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSpeedupFlagsSet(t *testing.T) {
	good := []struct {
		spec string
		want speedupSpec
	}{
		{"BenchA/slow:BenchA/fast>=2.0", speedupSpec{metric: "ns/op", slow: "BenchA/slow", fast: "BenchA/fast", bound: 2}},
		{"mem:A:B>=20", speedupSpec{metric: "B/op", slow: "A", fast: "B", bound: 20}},
		{"ns:A:B>=1.5", speedupSpec{metric: "ns/op", slow: "A", fast: "B", bound: 1.5}},
		{"rows/s:A:B>=0.05@4", speedupSpec{metric: "rows/s", slow: "A", fast: "B", bound: 0.05, minCPUs: 4}},
		{"A/p99:A/p50<=20", speedupSpec{metric: "ns/op", slow: "A/p99", fast: "A/p50", bound: 20, ceiling: true}},
		{"A:B>=2.0@4", speedupSpec{metric: "ns/op", slow: "A", fast: "B", bound: 2, minCPUs: 4}},
	}
	for _, tc := range good {
		var f speedupFlags
		if err := f.Set(tc.spec); err != nil {
			t.Errorf("Set(%q): %v", tc.spec, err)
			continue
		}
		if len(f) != 1 || f[0] != tc.want {
			t.Errorf("Set(%q) = %+v, want %+v", tc.spec, f, tc.want)
		}
	}
	bad := []string{
		"A:B",          // no comparison
		"A:B=2",        // not >= or <=
		"A>=2",         // one benchmark
		"m:A:B:C>=2",   // too many parts
		":B>=2",        // empty slow name
		"mem:A:>=2",    // empty fast name
		"A:B>=fast",    // bad ratio
		"A:B>=2@many",  // bad @minCPUs
		"A:B<=1.5@4x2", // bad @minCPUs
	}
	for _, spec := range bad {
		var f speedupFlags
		if err := f.Set(spec); err == nil {
			t.Errorf("Set(%q) accepted a malformed spec: %+v", spec, f)
		}
	}
}

func TestSpeedupCheck(t *testing.T) {
	results := map[string]metrics{
		"slow": {"ns/op": {400, 420, 410}, "B/op": {1000}},
		"fast": {"ns/op": {100, 100, 90}},
	}
	cases := []struct {
		name string
		sp   speedupSpec
		want bool
	}{
		{"win holds", speedupSpec{metric: "ns/op", slow: "slow", fast: "fast", bound: 4}, true},
		{"win missed", speedupSpec{metric: "ns/op", slow: "slow", fast: "fast", bound: 5}, false},
		{"ceiling holds", speedupSpec{metric: "ns/op", slow: "slow", fast: "fast", bound: 5, ceiling: true}, true},
		{"ceiling broken", speedupSpec{metric: "ns/op", slow: "slow", fast: "fast", bound: 3, ceiling: true}, false},
		{"metric absent from fast", speedupSpec{metric: "B/op", slow: "slow", fast: "fast", bound: 1}, false},
		{"benchmark absent", speedupSpec{metric: "ns/op", slow: "slow", fast: "gone", bound: 1}, false},
		{"unmet @minCPUs is reported only", speedupSpec{metric: "ns/op", slow: "slow", fast: "fast", bound: 100, minCPUs: runtime.NumCPU() + 1}, true},
	}
	for _, tc := range cases {
		if got := tc.sp.check(results); got != tc.want {
			t.Errorf("%s: check = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCheckBaseline(t *testing.T) {
	base := Baseline{Go: "go1.24.0", MaxProcs: 1, Benchmarks: []Entry{
		{Name: "BenchmarkTime", NsPerOp: 1000, Runs: 6, Metrics: map[string]float64{"ns/op": 1000}},
		{Name: "BenchmarkMem", NsPerOp: 1000, Runs: 6, Metrics: map[string]float64{"ns/op": 1000, "B/op": 100}},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(timeNs, memNs float64, memB []float64) map[string]metrics {
		return map[string]metrics{
			"BenchmarkTime": {"ns/op": {timeNs}},
			"BenchmarkMem":  {"ns/op": {memNs}, "B/op": memB},
		}
	}
	cases := []struct {
		name    string
		results map[string]metrics
		want    bool
	}{
		{"within bounds", run(1200, 900, []float64{125}), true},
		{"new benchmarks are not gated", func() map[string]metrics {
			r := run(1000, 1000, []float64{100})
			r["BenchmarkNew"] = metrics{"ns/op": {1e9}}
			return r
		}(), true},
		{"ns/op ratio over threshold", run(1300, 1000, []float64{100}), false},
		{"B/op ratio over memthreshold", run(1000, 1000, []float64{131}), false},
		{"missing B/op where the baseline gates it", run(1000, 1000, nil), false},
		{"missing benchmark", map[string]metrics{"BenchmarkTime": {"ns/op": {1000}}}, false},
	}
	for _, tc := range cases {
		if got := checkBaseline(path, tc.results, 1.25, 1.30); got != tc.want {
			t.Errorf("%s: checkBaseline = %v, want %v", tc.name, got, tc.want)
		}
	}
	if checkBaseline(filepath.Join(t.TempDir(), "absent.json"), run(1000, 1000, []float64{100}), 1.25, 1.30) {
		t.Error("checkBaseline passed against a missing baseline file")
	}
}

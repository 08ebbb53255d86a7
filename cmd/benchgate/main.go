// Command benchgate records and gates benchmark results, the comparator
// behind the CI bench-gate job.
//
// It reads `go test -bench` output on stdin — either plain text or the
// test2json stream produced by `go test -json` — collects every benchmark
// result line with ALL of its metrics (ns/op, B/op, allocs/op, and any
// custom testing.B ReportMetric columns such as bytes-per-row), reduces the
// -count repetitions of each metric to their median, and then either writes
// a baseline file or checks the run against one:
//
//	go test -run=NONE -bench 'X|Y' -count=6 -json ./... | benchgate -write BENCH.json
//	go test -run=NONE -bench 'X|Y' -count=6 -json ./... | benchgate -check BENCH.json
//
// -check exits non-zero when any baseline benchmark regressed by more than
// -threshold in ns/op (default 1.25, i.e. >25% slower), when a baseline
// benchmark is missing from the run entirely (a silently deleted benchmark
// must not pass the gate), or when a baseline B/op value regressed by more
// than -memthreshold (default 1.30). Bytes are far more stable across
// machines than nanoseconds, so the memory gate holds even as CI hardware
// drifts — the ROADMAP's cross-machine-baseline concern. New benchmarks
// absent from the baseline are reported but do not fail; refresh the
// baseline with -write to start tracking them.
//
// Absolute ns/op comparisons drift with CI hardware, so the gate also
// supports machine-independent ratio assertions taken WITHIN one run:
//
//	-speedup '[metric:]slowBench:fastBench>=2.0[@minCPUs]'
//
// fails unless slowBench's metric is at least the given multiple of
// fastBench's (':' separates the parts because benchmark names contain
// '/'). metric defaults to ns/op; `mem` is an alias for B/op and `ns` for
// ns/op; any other metric name (e.g. bytes-per-row) is matched literally:
//
//	-speedup 'mem:BenchmarkOrderBy/full:BenchmarkOrderBy/topk>=4.0'
//
// asserts the full sort allocates ≥4x the bytes per op of the top-k path —
// a pure ratio, valid on any machine. The comparison also comes in a
// ceiling form, '<=', gating tail behavior instead of a win:
//
//	-speedup 'BenchmarkServeLoad/Q9/clients8/p99:BenchmarkServeLoad/Q9/clients8/p50<=20'
//
// fails if the first benchmark's metric exceeds the given multiple of the
// second's — here, a p99 more than 20x its own run's p50. With @minCPUs
// the assertion is skipped (reported only) on machines with fewer CPUs —
// a parallel-vs-sequential speedup cannot materialize on a 1-core runner.
// Repeatable.
//
// The engine-benchmark baseline is committed at the repository root as
// BENCH.json, one entry per gated benchmark; the serving load test keeps
// its own record (BENCH_pr9.json) because it gates at a looser threshold.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark record.
type Baseline struct {
	// Go is the toolchain that produced the record (informational).
	Go string `json:"go"`
	// MaxProcs is GOMAXPROCS at record time (informational; parallel
	// benchmarks scale with it, so cross-machine comparisons need care).
	MaxProcs int `json:"maxprocs"`
	// Benchmarks holds one entry per benchmark, sorted by name.
	Benchmarks []Entry `json:"benchmarks"`
}

// Entry is one benchmark's reduced result. NsPerOp duplicates
// Metrics["ns/op"] so baselines stay readable (and PR4-era files without
// Metrics keep working).
type Entry struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Runs    int                `json:"runs"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// testEvent is the subset of the test2json schema benchgate consumes.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// metrics maps metric unit -> samples across -count runs.
type metrics map[string][]float64

// resultLine matches a complete benchmark result line as plain `go test
// -bench` prints it: name (with the -GOMAXPROCS suffix Go appends, stripped
// so baselines stay portable across core counts), iteration count, then the
// metric columns.
var resultLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.+)$`)

// metricPair matches one "value unit" column of a result line.
var metricPair = regexp.MustCompile(`([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\s+([^\s]+)`)

// test2json splits a result across two output events — the name (trailing
// tab) and then the measurements — so the stream parser stitches them.
var (
	nameOnly   = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s*$`)
	timingOnly = regexp.MustCompile(`^\s*\d+\s+(.+)$`)
)

func main() {
	write := flag.String("write", "", "write the run as a baseline to this file")
	check := flag.String("check", "", "check the run against the baseline in this file")
	threshold := flag.Float64("threshold", 1.25, "max allowed current/baseline ns-per-op ratio")
	memThreshold := flag.Float64("memthreshold", 1.30, "max allowed current/baseline B-per-op ratio")
	var speedups speedupFlags
	flag.Var(&speedups, "speedup", "within-run ratio assertion '[metric:]slow:fast>=N[@minCPUs]' (repeatable)")
	flag.Parse()
	if (*write == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -write or -check is required")
		os.Exit(2)
	}

	results, err := collect(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark results on stdin")
		os.Exit(2)
	}

	if *write != "" {
		if err := writeBaseline(*write, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(results), *write)
		return
	}
	ok := checkBaseline(*check, results, *threshold, *memThreshold)
	for _, sp := range speedups {
		if !sp.check(results) {
			ok = false
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// speedupSpec is one parsed -speedup assertion. With ceiling=false the
// ratio slow/fast must be at least bound (a required win); with
// ceiling=true it must be at most bound (a tail-latency or overhead cap).
type speedupSpec struct {
	metric     string
	slow, fast string
	bound      float64
	ceiling    bool
	minCPUs    int
}

type speedupFlags []speedupSpec

func (f *speedupFlags) String() string { return fmt.Sprintf("%d assertions", len(*f)) }

func (f *speedupFlags) Set(s string) error {
	spec := s
	minCPUs := 0
	if at := strings.LastIndex(spec, "@"); at >= 0 {
		n, err := strconv.Atoi(spec[at+1:])
		if err != nil {
			return fmt.Errorf("bad @minCPUs in %q", s)
		}
		minCPUs = n
		spec = spec[:at]
	}
	ceiling := false
	names, boundStr, found := strings.Cut(spec, ">=")
	if !found {
		names, boundStr, found = strings.Cut(spec, "<=")
		ceiling = true
	}
	if !found {
		return fmt.Errorf("bad -speedup %q, want '[metric:]a:b>=N[@minCPUs]' or '[metric:]a:b<=N[@minCPUs]'", s)
	}
	parts := strings.Split(names, ":")
	metric := "ns/op"
	var slow, fast string
	switch len(parts) {
	case 2:
		slow, fast = parts[0], parts[1]
	case 3:
		switch parts[0] {
		case "mem":
			metric = "B/op"
		case "ns":
			metric = "ns/op"
		default:
			metric = parts[0] // literal metric unit, e.g. bytes-per-row
		}
		slow, fast = parts[1], parts[2]
	default:
		return fmt.Errorf("bad benchmark pair in %q", s)
	}
	if slow == "" || fast == "" || metric == "" {
		return fmt.Errorf("bad benchmark pair in %q", s)
	}
	bound, err := strconv.ParseFloat(boundStr, 64)
	if err != nil {
		return fmt.Errorf("bad ratio in %q", s)
	}
	*f = append(*f, speedupSpec{metric: metric, slow: slow, fast: fast, bound: bound, ceiling: ceiling, minCPUs: minCPUs})
	return nil
}

func (sp speedupSpec) check(results map[string]metrics) bool {
	slow := results[sp.slow][sp.metric]
	fast := results[sp.fast][sp.metric]
	if len(slow) == 0 || len(fast) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: speedup %s: %s/%s: metric missing from run\n", sp.metric, sp.slow, sp.fast)
		return false
	}
	ratio := median(slow) / median(fast)
	op := ">="
	violated := ratio < sp.bound
	if sp.ceiling {
		op = "<="
		violated = ratio > sp.bound
	}
	if sp.minCPUs > 0 && runtime.NumCPU() < sp.minCPUs {
		fmt.Printf("speedup[%s] %s / %s = %.2fx (want %s %.2fx; not enforced, %d CPUs < %d)\n",
			sp.metric, sp.slow, sp.fast, ratio, op, sp.bound, runtime.NumCPU(), sp.minCPUs)
		return true
	}
	if violated {
		fmt.Fprintf(os.Stderr, "benchgate: FAILED — speedup[%s] %s / %s = %.2fx, want %s %.2fx\n",
			sp.metric, sp.slow, sp.fast, ratio, op, sp.bound)
		return false
	}
	fmt.Printf("speedup[%s] %s / %s = %.2fx (%s %.2fx)  ok\n", sp.metric, sp.slow, sp.fast, ratio, op, sp.bound)
	return true
}

// collect parses stdin into per-benchmark, per-metric samples.
func collect(r io.Reader) (map[string]metrics, error) {
	samples := map[string]metrics{}
	add := func(name, cols string) {
		m := samples[name]
		if m == nil {
			m = metrics{}
			samples[name] = m
		}
		for _, pair := range metricPair.FindAllStringSubmatch(cols, -1) {
			if v, err := strconv.ParseFloat(pair[1], 64); err == nil {
				m[pair[2]] = append(m[pair[2]], v)
			}
		}
	}
	pending := "" // benchmark name awaiting its measurement line
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) > 0 && line[0] == '{' {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action != "output" {
					continue
				}
				line = strings.TrimSuffix(ev.Output, "\n")
			}
		}
		switch {
		case resultLine.MatchString(line):
			m := resultLine.FindStringSubmatch(line)
			add(m[1], m[2])
			pending = ""
		case nameOnly.MatchString(line):
			pending = nameOnly.FindStringSubmatch(line)[1]
		case pending != "" && timingOnly.MatchString(line):
			add(pending, timingOnly.FindStringSubmatch(line)[1])
			pending = ""
		}
	}
	// Drop anything that never reported ns/op — the parser is permissive
	// and non-benchmark lines must not become phantom entries.
	for name, m := range samples {
		if len(m["ns/op"]) == 0 {
			delete(samples, name)
		}
	}
	return samples, sc.Err()
}

// median reduces one benchmark's -count samples; the middle value resists
// the occasional scheduling hiccup better than the mean.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func writeBaseline(path string, results map[string]metrics) error {
	b := Baseline{Go: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0)}
	for name, ms := range results {
		e := Entry{Name: name, NsPerOp: median(ms["ns/op"]), Runs: len(ms["ns/op"]), Metrics: map[string]float64{}}
		for unit, xs := range ms {
			e.Metrics[unit] = median(xs)
		}
		b.Benchmarks = append(b.Benchmarks, e)
	}
	sort.Slice(b.Benchmarks, func(i, j int) bool { return b.Benchmarks[i].Name < b.Benchmarks[j].Name })
	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func checkBaseline(path string, results map[string]metrics, threshold, memThreshold float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return false
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", path, err)
		return false
	}

	ok := true
	seen := map[string]bool{}
	fmt.Printf("%-60s %14s %14s %7s\n", "benchmark", "baseline ns/op", "current ns/op", "ratio")
	for _, e := range base.Benchmarks {
		seen[e.Name] = true
		ms, found := results[e.Name]
		if !found {
			fmt.Printf("%-60s %14.0f %14s %7s  MISSING\n", e.Name, e.NsPerOp, "-", "-")
			ok = false
			continue
		}
		cur := median(ms["ns/op"])
		ratio := cur / e.NsPerOp
		verdict := "ok"
		if ratio > threshold {
			verdict = fmt.Sprintf("REGRESSION (> %.2fx)", threshold)
			ok = false
		}
		// Memory gate: bytes per op barely drift across machines, so the
		// absolute baseline holds where ns/op cannot. A benchmark that
		// stopped reporting B/op (ReportAllocs dropped, -benchmem missing)
		// fails like a missing benchmark would — silence must not pass.
		if baseMem, has := e.Metrics["B/op"]; has && baseMem > 0 {
			if xs := ms["B/op"]; len(xs) > 0 {
				curMem := median(xs)
				if curMem/baseMem > memThreshold {
					verdict = fmt.Sprintf("MEM REGRESSION (%.0f -> %.0f B/op, > %.2fx)", baseMem, curMem, memThreshold)
					ok = false
				}
			} else {
				verdict = "B/op MISSING (baseline gates it)"
				ok = false
			}
		}
		fmt.Printf("%-60s %14.0f %14.0f %6.2fx  %s\n", e.Name, e.NsPerOp, cur, ratio, verdict)
	}
	for name, ms := range results {
		if !seen[name] {
			fmt.Printf("%-60s %14s %14.0f %7s  new (not gated)\n", name, "-", median(ms["ns/op"]), "-")
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchgate: FAILED — benchmark regression or missing benchmark")
	} else {
		fmt.Println("benchgate: OK")
	}
	return ok
}

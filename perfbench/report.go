package main

import "fmt"

// endToEnd and perLayer name the metrics the final JSON line carries, in
// untraced and traced runs; BENCHMARK.json declares the same lists. Only
// metrics that every declared workload measures, and that are not always
// zero there, are listed: update_*, error_ratio, storage.wal_us,
// loadgen.lag_p99_ms, cache.invalidated and the like appear in the printed
// report.
var (
	endToEnd = []string{"setup_s", "read_p50_ms", "read_p99_ms", "qps", "rows_per_s", "peak_rss_mb"}
	perLayer = []string{
		"rdf.parse_s", "transform.build_s", "storage.open_s", "storage.snapshot_bytes_per_triple",
		"sparql.parse_us", "engine.prepare_us", "engine.first_row_us",
		"engine.drain_ns_per_row", "engine.allocs_per_row", "engine.bytes_per_row", "engine.prepared_hit_ratio",
		"core.search_nodes_per_read", "core.regions_per_read", "core.explored_candidates_per_read",
		"core.solutions_per_search_node", "core.signature_kill_ratio",
		"cache.hit_ratio", "cache.bytes", "cache.replay_ns_per_row",
		"server.handle_us", "server.serialize_ns_per_row", "server.allocs_per_row", "server.resp_bytes_per_row",
		"server.heap_mb", "http.overhead_us", "client.decode_us", "trace.overhead_ratio",
	}
)

// report collects every metric a run measured, in the order measured.
type report struct {
	lines []reportLine
}

type reportLine struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value; 0 for a counter
	note  string // how it was measured
}

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.lines = append(r.lines, reportLine{name, value, unit, n, note})
}

// value returns a reported metric's value, or 0 if it was not reported.
func (r *report) value(name string) float64 {
	for _, l := range r.lines {
		if l.name == name {
			return l.value
		}
	}
	return 0
}

// samples returns the sample count behind a reported metric.
func (r *report) samples(name string) int {
	for _, l := range r.lines {
		if l.name == name {
			return l.n
		}
	}
	return 0
}

// print writes one line per metric: name, value, unit, sample count.
func (r *report) print() {
	for _, l := range r.lines {
		n := ""
		if l.n > 0 {
			n = fmt.Sprintf(" n=%d", l.n)
		}
		fmt.Printf("metric %-36s %14.6g %-8s%s  (%s)\n", l.name, l.value, l.unit, n, l.note)
	}
}

// json returns the named metrics for the result line; a name the run did
// not measure is an error.
func (r *report) json(names []string) (map[string]metric, error) {
	out := map[string]metric{}
	for _, l := range r.lines {
		out[l.name] = metric{Value: finite(l.value), Unit: l.unit}
	}
	sel := map[string]metric{}
	for _, name := range names {
		m, ok := out[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		sel[name] = m
	}
	return sel, nil
}

package turbohom_test

// The result-cache benchmark lives in the external test package: it drives
// the HTTP handler from internal/server, which imports the root package, so
// an in-package benchmark would be an import cycle.

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	turbohom "repro"
	"repro/internal/datagen"
	"repro/internal/server"
)

// cacheBenchQuery is LUBM Q9's triangle join with ORDER BY + LIMIT: the
// matcher must enumerate every solution (the top-k heap sees them all) but
// the response carries 16 rows — the repeated-dashboard shape where a
// result cache pays. Keeping the response small makes the ratio measure
// search avoided, not serialization avoided.
const cacheBenchQuery = `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?X ?Y ?Z WHERE {
	?X rdf:type ub:Student .
	?Y rdf:type ub:Faculty .
	?Z rdf:type ub:Course .
	?X ub:advisor ?Y .
	?Y ub:teacherOf ?Z .
	?X ub:takesCourse ?Z . } ORDER BY ?X LIMIT 16`

// BenchmarkResultCacheHit measures what the snapshot-versioned result cache
// buys a repeated query: `cold` answers every request live from the matcher
// (cache disabled), `hot` replays a warmed entry. Both arms run the full
// HTTP handler — negotiation, serialization, flush cadence — so the ratio
// is the end-to-end win a client observes. CI gates hot at >= 5x cold via
// benchgate (BENCH.json).
func BenchmarkResultCacheHit(b *testing.B) {
	ds := datagen.LUBMDataset(2)
	store := turbohom.New(ds.Triples, nil)
	defer store.Close()

	target := "/sparql?query=" + url.QueryEscape(cacheBenchQuery)

	run := func(b *testing.B, h http.Handler, want string) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
			if got := rec.Header().Get(server.HeaderCache); got != want {
				b.Fatalf("disposition %q, want %q", got, want)
			}
		}
	}

	b.Run("cold", func(b *testing.B) {
		srv := server.New(store, turbohom.ServerOptions{QueryTimeout: -1, ResultCacheBytes: -1})
		run(b, srv, "bypass")
	})
	b.Run("hot", func(b *testing.B) {
		srv := server.New(store, turbohom.ServerOptions{QueryTimeout: -1})
		// Warm the entry so every timed iteration replays it.
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("warming: status %d", rec.Code)
		}
		run(b, srv, "hit")
	})
}

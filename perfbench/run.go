package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	turbohom "repro"
	"repro/internal/datagen"
	"repro/internal/rdf"
)

// Run shape.
const (
	// setupRuns is how many times a run starts the server to time set-up;
	// it reports the median and serves from the last start.
	setupRuns = 5
	// rwRate is lubm-rw's fixed open-loop arrival rate, about half the
	// capacity `-capacity` measured for its mix on a 2-CPU machine.
	rwRate = 120.0
	// bsbmWarmup is how many bsbm-explore requests (from a sequence of
	// their own) warm the server before timing.
	bsbmWarmup = 200
	// warmupLoop is how long the closed-loop workloads run their own mix,
	// from a separate sequence, before timing, so the server's heap and
	// caches reach their steady state first.
	warmupLoop = 3 * time.Second
	// digestLen is how many requests the determinism check regenerates.
	digestLen = 2000
)

// Workload-property thresholds; a run outside them is reported invalid.
const (
	bsbmMaxHitRatio = 0.2  // bsbm-explore: the caches must mostly miss
	hotMinHitRatio  = 0.9  // lubm-hot: the result cache must answer
	rwMaxLagP99Ms   = 25.0 // lubm-rw: the generator must keep its schedule
	minReads        = 1000 // 10 samples beyond p99
	minUpdates      = 100  // 10 samples beyond p90
)

func run(ctx context.Context, cfg config) (*result, error) {
	wl := cfg.workload
	conns := min(2, runtime.NumCPU())
	printHeader(cfg, conns)

	dir := filepath.Join(cfg.work, wl)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ntPath := filepath.Join(dir, "data.nt")
	snapDir := filepath.Join(dir, "snapshot")
	orc, err := prepareInputs(cfg, ntPath, snapDir, conns)
	if err != nil {
		return nil, err
	}
	runtime.GC() // drop the generated triples before the servers start

	// Set-up time: start the server setupRuns times, keep the last one.
	args := []string{"-data", ntPath}
	if wl == "lubm-rw" {
		args = []string{"-load", snapDir}
	}
	var setups []float64
	var srv *serverProc
	for i := 0; i < setupRuns; i++ {
		if srv != nil {
			srv.kill()
		}
		p, d, err := startServer(ctx, cfg.bin, args...)
		if err != nil {
			return nil, err
		}
		srv, setups = p, append(setups, d.Seconds())
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	ph, err := measure(ctx, cfg, srv, conns)
	if err != nil || ph == nil { // nil phase: the capacity probe printed its result
		return nil, err
	}

	// Durability (lubm-rw): kill -9, reopen, compare the student set.
	srv.kill()
	srv = nil
	durMisses := 0
	if wl == "lubm-rw" {
		if durMisses, err = durabilityCheck(ctx, cfg.bin, snapDir, ph.samples); err != nil {
			return nil, err
		}
	}
	if err := checkAnswers(orc, ph, wl == "bsbm-explore", conns); err != nil {
		return nil, err
	}

	rep := &report{}
	rep.add("setup_s", median(setups), "s", len(setups), "median of server starts")
	attempted, bad := endToEndMetrics(rep, ph, durMisses)
	liveMetrics(rep, ph)
	invalid := propertyChecks(rep, wl, cfg.seed)
	if cfg.trace == 1 {
		if err := ladder(ctx, cfg, dir, ntPath, orc, rep); err != nil {
			return nil, err
		}
	}

	rep.print()
	for _, why := range invalid {
		fmt.Println("INVALID:", why)
	}
	names := endToEnd
	if cfg.trace == 1 {
		names = perLayer
	}
	metrics, err := rep.json(names)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   bad == 0 && len(invalid) == 0,
		Attempted: attempted,
		Failed:    bad,
		Metrics:   metrics,
	}, nil
}

// prepareInputs writes the workload's data where the server will read it
// (N-Triples, or a snapshot for lubm-rw) and builds the oracle, before
// anything is timed.
func prepareInputs(cfg config, ntPath, snapDir string, conns int) (*oracle, error) {
	wl := cfg.workload
	t := time.Now()
	data := generateData(wl)
	fmt.Printf("# dataset %s: %d triples (generated in %.1fs)\n", datasetName(wl), len(data), time.Since(t).Seconds())
	if wl != "lubm-rw" || cfg.trace == 1 {
		if err := writeNT(ntPath, data); err != nil {
			return nil, err
		}
	}
	if wl == "lubm-rw" {
		st := turbohom.New(data, nil)
		err := st.Save(snapDir)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("saving snapshot: %w", err)
		}
	}

	t = time.Now()
	orc := newOracle(data)
	if wl != "bsbm-explore" {
		var texts []string
		for _, q := range datagen.LUBMQueries() {
			texts = append(texts, q.Text)
		}
		if err := orc.countAll(texts, conns); err != nil {
			return nil, err
		}
		if wl == "lubm-rw" {
			if err := orc.measureBatches(data, texts); err != nil {
				return nil, err
			}
		}
	}
	fmt.Printf("# oracle ready in %.1fs\n", time.Since(t).Seconds())
	return orc, nil
}

// phase is what the measured part of a run produced.
type phase struct {
	warm, samples []sample
	reqs          []request       // lubm-rw: the scheduled requests
	lag           []time.Duration // lubm-rw: how late each send started
	start         time.Time
	h0, h1        health // /healthz before the warm-up and after the timed phase
	rssMB         float64
}

// measure warms the server up and runs the timed phase. With -capacity it
// prints the closed-loop capacity instead and returns a nil phase.
func measure(ctx context.Context, cfg config, srv *serverProc, conns int) (*phase, error) {
	wl := cfg.workload
	c := newClient(srv.addr, conns)
	defer c.close()
	ph := &phase{}
	var err error
	if ph.h0, err = fetchHealth(ctx, c); err != nil {
		return nil, err
	}

	// Warm-up: every LUBM text once, or a separate BSBM draw.
	var warm []request
	if wl == "bsbm-explore" {
		ws := newBSBMSeq(cfg.seed + 1_000_003)
		for i := 0; i < bsbmWarmup; i++ {
			warm = append(warm, ws.next())
		}
	} else {
		for _, q := range datagen.LUBMQueries() {
			warm = append(warm, request{text: q.Text, tmpl: q.ID})
		}
	}
	var buf bytes.Buffer
	for i := range warm {
		ph.warm = append(ph.warm, sample{req: warm[i], rep: c.do(ctx, &warm[i], &buf, "")})
	}
	if wl != "lubm-rw" {
		ws, _ := closedLoop(ctx, c, newSequence(wl, cfg.seed+2_000_003), conns, warmupLoop)
		ph.warm = append(ph.warm, ws...)
	}

	d := time.Duration(cfg.seconds) * time.Second
	if cfg.capacity {
		samples, start := closedLoop(ctx, c, newSequence(wl, cfg.seed), conns, d)
		n := 0
		for _, s := range samples {
			if s.rep.err == nil {
				n++
			}
		}
		fmt.Printf("capacity %s: %.1f req/s closed-loop over %d connections (%d ok of %d)\n",
			wl, float64(n)/time.Since(start).Seconds(), conns, n, len(samples))
		return nil, nil
	}

	// The timed phase.
	if wl == "lubm-rw" {
		seq := newRWSeq(cfg.seed)
		for i := 0; i < int(rwRate)*cfg.seconds; i++ {
			ph.reqs = append(ph.reqs, seq.next())
		}
		ph.samples, ph.lag, ph.start = openLoop(ctx, c, ph.reqs, rwRate)
	} else {
		ph.samples, ph.start = closedLoop(ctx, c, newSequence(wl, cfg.seed), conns, d)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if ph.h1, err = fetchHealth(ctx, c); err != nil {
		return nil, err
	}
	if ph.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return ph, nil
}

// checkAnswers marks every read whose row count the oracle rejects as
// failed. bsbm-explore's texts are counted here, once the closed loop has
// decided how many were sent.
func checkAnswers(orc *oracle, ph *phase, countSent bool, conns int) error {
	if countSent {
		var texts []string
		for _, s := range append(ph.warm[:len(ph.warm):len(ph.warm)], ph.samples...) {
			texts = append(texts, s.req.text)
		}
		t := time.Now()
		if err := orc.countAll(dedup(texts), conns); err != nil {
			return err
		}
		fmt.Printf("# oracle counted %d distinct texts in %.1fs\n", len(orc.memo), time.Since(t).Seconds())
	}
	if _, err := orc.check(ph.warm, nil); err != nil {
		return err
	}
	_, err := orc.check(ph.samples, liveSeries(ph.reqs))
	return err
}

// endToEndMetrics reports the user-visible metrics of the timed phase and
// returns the attempted and failed request counts (warm-up included;
// durability misses count as failures).
func endToEndMetrics(rep *report, ph *phase, durMisses int) (attempted, bad int) {
	all := append(ph.warm[:len(ph.warm):len(ph.warm)], ph.samples...)
	bad = durMisses
	shown := 0
	for _, s := range all {
		if s.rep.err != nil {
			bad++
			if shown++; shown <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: failed request: %v (cache hit: %t, writes acked before send %d, sent before finish %d)\n",
					s.rep.err, s.rep.cached, s.ackedBefore, s.sentBefore)
			}
		}
	}

	var readMs, updMs []float64
	rows, ok := 0, 0
	var last time.Time
	for _, s := range ph.samples {
		ms := s.latency.Seconds() * 1000
		if s.rep.err != nil {
			ms = failed
		} else {
			ok++
			rows += s.rep.rows
		}
		if s.req.write {
			updMs = append(updMs, ms)
		} else {
			readMs = append(readMs, ms)
		}
		if s.rep.done.After(last) {
			last = s.rep.done
		}
	}
	secs := last.Sub(ph.start).Seconds()

	pct := func(name string, v []float64, p float64) {
		rep.add(name, percentile(v, p), "ms", len(v), fmt.Sprintf("%d beyond", beyond(len(v), p)))
	}
	pct("read_p50_ms", readMs, 50)
	pct("read_p99_ms", readMs, 99)
	if len(updMs) > 0 {
		pct("update_p50_ms", updMs, 50)
		pct("update_p90_ms", updMs, 90)
	}
	rep.add("qps", float64(ok)/secs, "req/s", ok, fmt.Sprintf("over %.2fs", secs))
	rep.add("rows_per_s", float64(rows)/secs, "rows/s", ok, fmt.Sprintf("%d rows over %.2fs", rows, secs))
	rep.add("error_ratio", float64(bad)/float64(len(all)), "fraction", len(all), fmt.Sprintf("%d failed, %d durability misses", bad, durMisses))
	rep.add("peak_rss_mb", ph.rssMB, "MB", 1, "VmHWM of the server that served the timed phase")
	return len(all), bad
}

// liveMetrics reports the server's /healthz counter deltas over the warm-up
// and the timed phase, and the load generator's lateness.
func liveMetrics(rep *report, ph *phase) {
	d := func(a, b int64) float64 { return float64(b - a) }
	m0, m1 := ph.h0.Metrics, ph.h1.Metrics
	c0, c1 := ph.h0.ResultCache, ph.h1.ResultCache
	hits, prepHits := d(m0.CacheHits, m1.CacheHits), d(m0.PreparedHits, m1.PreparedHits)
	rep.add("engine.prepared_hit_ratio", ratio(prepHits, prepHits+d(m0.PreparedMisses, m1.PreparedMisses)), "fraction", 0, "live")
	rep.add("cache.hit_ratio", ratio(hits, hits+d(m0.CacheMisses, m1.CacheMisses)), "fraction", 0, "live")
	rep.add("cache.carry_forwards", d(c0.CarryForwards, c1.CarryForwards), "count", 0, "live")
	rep.add("cache.invalidated", d(c0.Invalidated, c1.Invalidated), "count", 0, "live")
	rep.add("cache.evictions", d(c0.Evictions, c1.Evictions), "count", 0, "live")
	rep.add("cache.bytes", float64(c1.Bytes), "bytes", 0, "live, end of run")
	rep.add("server.queries_failed", d(m0.QueriesFailed, m1.QueriesFailed), "count", 0, "live")
	rep.add("server.queries_cancelled", d(m0.QueriesCancelled, m1.QueriesCancelled), "count", 0, "live")
	rep.add("server.heap_mb", float64(ph.h1.HeapAlloc)/(1<<20), "MB", 0, "live, end of run")
	if ph.lag != nil {
		var lagMs []float64
		for _, l := range ph.lag {
			lagMs = append(lagMs, l.Seconds()*1000)
		}
		rep.add("loadgen.lag_p99_ms", percentile(lagMs, 99), "ms", len(lagMs), "live")
	}
}

// propertyChecks returns why the run does not exercise what its workload
// claims to, if it does not; such a run is invalid whatever its numbers.
func propertyChecks(rep *report, wl string, seed int64) []string {
	var invalid []string
	if seqDigest(newSequence(wl, seed), digestLen) != seqDigest(newSequence(wl, seed), digestLen) {
		invalid = append(invalid, "request sequence is not reproducible from the seed")
	}
	if n := rep.samples("read_p99_ms"); n < minReads {
		invalid = append(invalid, fmt.Sprintf("%d reads, need %d for p99", n, minReads))
	}
	hit := rep.value("cache.hit_ratio")
	switch wl {
	case "bsbm-explore":
		if hit > bsbmMaxHitRatio {
			invalid = append(invalid, fmt.Sprintf("cache.hit_ratio %.3f > %.2f", hit, bsbmMaxHitRatio))
		}
	case "lubm-hot":
		if ev := rep.value("cache.evictions"); hit < hotMinHitRatio || ev > 0 {
			invalid = append(invalid, fmt.Sprintf("cache.hit_ratio %.3f (want >= %.2f), %v evictions (want 0)", hit, hotMinHitRatio, ev))
		}
	case "lubm-rw":
		if carry, inval := rep.value("cache.carry_forwards"), rep.value("cache.invalidated"); carry == 0 || inval == 0 {
			invalid = append(invalid, fmt.Sprintf("carry_forwards %v, invalidated %v: both must be > 0", carry, inval))
		}
		if p := rep.value("loadgen.lag_p99_ms"); p > rwMaxLagP99Ms {
			invalid = append(invalid, fmt.Sprintf("loadgen.lag_p99_ms %.1f > %.0f", p, rwMaxLagP99Ms))
		}
		if n := rep.samples("update_p90_ms"); n < minUpdates {
			invalid = append(invalid, fmt.Sprintf("%d updates, need %d for p90", n, minUpdates))
		}
	}
	return invalid
}

// liveSeries returns, for k = 0..writes, the number of live student batches
// after the first k writes of reqs.
func liveSeries(reqs []request) []int {
	var live []int
	for _, r := range reqs {
		if r.write {
			if live == nil {
				live = []int{0}
			}
			live = append(live, r.liveAfter)
		}
	}
	return live
}

// durabilityCheck reopens the killed server's directory and checks that
// every acknowledged insert not later deleted is present and every
// acknowledged delete is absent. It returns the number of writes whose
// effect is wrong.
func durabilityCheck(ctx context.Context, bin, snapDir string, samples []sample) (int, error) {
	p, _, err := startServer(ctx, bin, "-load", snapDir)
	if err != nil {
		return 0, fmt.Errorf("reopening after kill: %w", err)
	}
	defer p.kill()
	c := newClient(p.addr, 1)
	defer c.close()
	q := request{text: fmt.Sprintf("SELECT ?X WHERE { ?X <%sadvisor> <%s> . }", lubmUB, lubmAdvis)}
	var buf bytes.Buffer
	if r := c.do(ctx, &q, &buf, ""); r.err != nil {
		return 0, fmt.Errorf("durability probe: %w", r.err)
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value string } `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return 0, fmt.Errorf("durability probe: %w", err)
	}
	present := map[string]bool{}
	for _, b := range doc.Results.Bindings {
		if v := b["X"].Value; strings.HasPrefix(v, studentPrefix) {
			present[v] = true
		}
	}

	// Replay the acknowledged writes: the final state of each batch.
	liveNow := map[int]bool{}
	for _, s := range samples {
		if s.req.write && s.rep.err == nil {
			liveNow[s.req.batch] = s.req.insert
		}
	}
	misses := 0
	seen := map[string]bool{}
	for _, s := range samples {
		if !s.req.write || s.rep.err != nil {
			continue
		}
		want := s.req.insert && liveNow[s.req.batch] // deleted later: must be absent
		for i := 0; i < studentsPerBatch; i++ {
			iri := studentIRI(s.req.batch, i)
			seen[iri] = true
			if present[iri] != want {
				misses++
				break
			}
		}
	}
	for iri := range present {
		if !seen[iri] {
			misses++ // a student no acknowledged write put there
		}
	}
	return misses, nil
}

func dedup(s []string) []string {
	sort.Strings(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func writeNT(path string, data []rdf.Triple) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := rdf.WriteAll(w, data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func datasetName(wl string) string {
	if wl == "bsbm-explore" {
		return fmt.Sprintf("bsbm products=%d", bsbmProducts)
	}
	return fmt.Sprintf("lubm universities=%d", lubmUniversities)
}

// printHeader prints what a reader needs to compare two runs: the machine,
// the toolchain, the code and the inputs.
func printHeader(cfg config, conns int) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s connections=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), conns)
	fmt.Printf("# commit=%s source-sha256=%s\n", cfg.commit, sourceDigest("."))
	fmt.Printf("# request sequence sha256[:16] of first %d: %s\n", digestLen, seqDigest(newSequence(cfg.workload, cfg.seed), digestLen))
}

// sourceDigest hashes the Go sources and module files under root, skipping
// dot-directories (build output, VCS metadata), to identify the code a run
// measured when the checkout carries no commit.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error { //nolint:errcheck // best-effort identification
		if err != nil {
			return nil
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if n := e.Name(); !e.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			fmt.Fprintf(h, "%s\n", path)
			io.Copy(h, f) //nolint:errcheck // best-effort identification
			f.Close()
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

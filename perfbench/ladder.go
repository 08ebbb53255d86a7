package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	turbohom "repro"
	"repro/internal/rdf"
	"repro/internal/server"
	"repro/internal/sparql"
)

// Ladder prefix lengths: how many requests of the workload's seeded
// sequence the traced run replays, one at a time.
const (
	ladderBSBM = 150
	ladderLUBM = 300
)

// tracedHandler wraps the server's handler in a server.handle span, a child
// of the client's round-trip span named in the request header.
type tracedHandler struct {
	h   http.Handler
	rec *recorder
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, parent := -1, -1
	fmt.Sscanf(r.Header.Get(hdrSpan), "%d/%d", &req, &parent) //nolint:errcheck // absent header: a root span
	a0, b0 := t.rec.mem()
	id := t.rec.begin("server.handle", parent, req)
	t.h.ServeHTTP(w, r)
	t.rec.end(id)
	a1, b1 := t.rec.mem()
	t.rec.annotate(id, func(s *span) {
		s.Note = w.Header().Get(hdrCache)
		s.Allocs, s.Alloc = a1-a0, b1-b0
	})
}

// ladderEnv is what one ladder pass runs against.
type ladderEnv struct {
	served *turbohom.Store // the store behind the in-process server
	twin   *turbohom.Store // lubm-rw: an in-memory store receiving the same writes
	walDir string          // lubm-rw: the served store's directory
}

// passStats are the counters a pass gathers outside spans.
type passStats struct {
	reads, failures int
	firstRows       int                    // reads whose first Next produced a row
	prof            turbohom.ProfileResult // summed over reads
	written         int                    // triples inserted plus deleted
	walBytes        int64                  // lubm-rw: WAL size after the pass
}

// ladder replays a prefix of the workload's request sequence through the
// layers one call at a time: warm-up pass, traced pass, untraced pass. The
// traced pass's spans give the per-layer metrics; the wall-time ratio of the
// traced to the untraced pass is the tracing overhead.
func ladder(ctx context.Context, cfg config, dir, ntPath string, orc *oracle, rep *report) error {
	wl := cfg.workload
	n := ladderLUBM
	if wl == "bsbm-explore" {
		n = ladderBSBM
	}
	seq := newSequence(wl, cfg.seed)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = seq.next()
	}
	rec := newRecorder(true)

	// Set-up through the calls serve makes at start (rdf.ReadAll and New
	// for -data, OpenDir for -load), plus a snapshot round trip so every
	// workload reports the storage layer.
	f, err := os.Open(ntPath)
	if err != nil {
		return err
	}
	sp := rec.begin("rdf.parse", -1, -1)
	triples, err := rdf.ReadAll(f)
	rec.end(sp)
	f.Close()
	if err != nil {
		return err
	}
	sp = rec.begin("transform.build", -1, -1)
	mem := turbohom.New(triples, nil)
	rec.end(sp)
	defer mem.Close()
	snap := filepath.Join(dir, "ladder-snapshot")
	if err := mem.Save(snap); err != nil {
		return err
	}
	sp = rec.begin("storage.open", -1, -1)
	dur, err := turbohom.OpenDir(snap, nil)
	rec.end(sp)
	if err != nil {
		return err
	}
	if err := dur.Close(); err != nil {
		return err
	}
	st, err := os.Stat(filepath.Join(snap, "snapshot.thb"))
	if err != nil {
		return err
	}
	setupSpans := append([]span(nil), rec.spans...)

	// Each pass gets fresh stores on lubm-rw, whose writes change them.
	env := func(pass int) (ladderEnv, func(), error) {
		if wl != "lubm-rw" {
			return ladderEnv{served: mem}, func() {}, nil
		}
		pdir := filepath.Join(dir, fmt.Sprintf("ladder-pass%d", pass))
		if err := copyDir(snap, pdir); err != nil {
			return ladderEnv{}, nil, err
		}
		d, err := turbohom.OpenDir(pdir, nil)
		if err != nil {
			return ladderEnv{}, nil, err
		}
		twin := turbohom.New(triples, nil)
		return ladderEnv{served: d, twin: twin, walDir: pdir}, func() { d.Close(); twin.Close() }, nil
	}

	var walls [3]time.Duration
	var stats passStats
	for pass := 0; pass < 3; pass++ {
		e, done, err := env(pass)
		if err != nil {
			return err
		}
		r := newRecorder(false)
		if pass == 1 {
			r = rec
		}
		ps, wall, err := ladderPass(ctx, e, reqs, r, orc)
		done()
		if err != nil {
			return err
		}
		walls[pass] = wall
		if pass == 1 {
			stats = ps
		}
		if ps.failures > 0 {
			return fmt.Errorf("ladder pass %d: %d reads disagreed with the oracle or the engine", pass, ps.failures)
		}
	}

	tracePath := filepath.Join(filepath.Dir(cfg.work), "traces", fmt.Sprintf("%s-seed%d.jsonl", wl, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return err
	}
	if err := rec.write(tracePath); err != nil {
		return err
	}
	fmt.Printf("# trace: %d spans written to %s\n", len(rec.spans), tracePath)

	ladderMetrics(rec.spans, setupSpans, stats, int64(st.Size()), len(triples), walls, wl, rep)
	return nil
}

// ladderPass replays reqs once against a fresh in-process server.
func ladderPass(ctx context.Context, e ladderEnv, reqs []request, rec *recorder, orc *oracle) (passStats, time.Duration, error) {
	var ps passStats
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ps, 0, err
	}
	hs := &http.Server{Handler: &tracedHandler{h: server.New(e.served, turbohom.ServerOptions{}), rec: rec}}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newClient(ln.Addr().String(), 1)
	defer func() {
		c.close()
		hs.Close()
		<-served
	}()

	var buf bytes.Buffer
	live := 0
	start := time.Now()
	for i := range reqs {
		if ctx.Err() != nil {
			return ps, 0, ctx.Err()
		}
		r := &reqs[i]
		rq := rec.begin("request", -1, i)
		if r.write {
			sp := rec.begin("storage.update", rq, i)
			ins, del, err := e.served.Update(r.text)
			rec.end(sp)
			if err != nil {
				return ps, 0, err
			}
			sp = rec.begin("transform.apply", rq, i)
			_, _, err = e.twin.Update(r.text)
			rec.end(sp)
			if err != nil {
				return ps, 0, err
			}
			ps.written += ins + del
			live = r.liveAfter
			rec.end(rq)
			continue
		}
		ps.reads++

		// Through the engine calls.
		sp := rec.begin("sparql.parse", rq, i)
		_, err := sparql.Parse(r.text)
		rec.end(sp)
		if err != nil {
			return ps, 0, err
		}
		sp = rec.begin("engine.prepare", rq, i)
		p, err := e.served.Prepare(r.text)
		rec.end(sp)
		if err != nil {
			return ps, 0, err
		}
		var prof turbohom.ProfileResult
		a0, b0 := rec.mem()
		fr := rec.begin("engine.first_row", rq, i)
		rows := p.SelectProfiled(ctx, &prof)
		more := rows.Next()
		rec.end(fr)
		a1, b1 := rec.mem()
		dr := rec.begin("engine.drain", rq, i)
		got := 0
		for ; more; more = rows.Next() {
			got++
		}
		drained := max(got-1, 0)
		err = rows.Err()
		rows.Close()
		rec.end(dr)
		a2, b2 := rec.mem()
		if err != nil {
			return ps, 0, err
		}
		rec.annotate(fr, func(s *span) { s.Allocs, s.Alloc = a1-a0, b1-b0 })
		rec.annotate(dr, func(s *span) { s.Rows, s.Allocs, s.Alloc = drained, a2-a1, b2-b1 })
		addProfile(&ps.prof, prof)
		if got > 0 {
			ps.firstRows++
		}

		// Through the handler, over loopback. A miss is sent once more, so
		// every workload also times a replay from the result cache.
		base, err := orc.count(r.text)
		if err != nil {
			return ps, 0, err
		}
		want := base + orc.perBatch[r.text]*live
		for attempt := 0; attempt < 2; attempt++ {
			rt := rec.begin("http.roundtrip", rq, i)
			rp := c.do(ctx, r, &buf, fmt.Sprintf("%d/%d", i, rt))
			rec.endAt(rt, rp.done)
			rec.add("client.decode", rq, i, rp.done, rp.done.Add(rp.decode))
			rec.annotate(rt, func(s *span) { s.Rows, s.Bytes = rp.rows, rp.bytes })
			if rp.err != nil || rp.rows != got || got != want {
				ps.failures++
			}
			if rp.cached {
				break
			}
		}
		rec.end(rq)
	}
	wall := time.Since(start)
	if e.walDir != "" {
		fi, err := os.Stat(filepath.Join(e.walDir, "wal.thl"))
		if err != nil {
			return ps, 0, err
		}
		ps.walBytes = fi.Size()
	}
	return ps, wall, nil
}

func addProfile(sum *turbohom.ProfileResult, p turbohom.ProfileResult) {
	sum.Regions += p.Regions
	sum.ExploredCandidates += p.ExploredCandidates
	sum.SearchNodes += p.SearchNodes
	sum.SignatureChecked += p.SignatureChecked
	sum.SignatureKilled += p.SignatureKilled
}

// ladderMetrics turns the traced pass's spans into per-layer metrics.
func ladderMetrics(spans, setup []span, ps passStats, snapBytes int64, triples int, walls [3]time.Duration, wl string, rep *report) {
	byName := map[string][]span{}
	for _, s := range setup {
		byName[s.Name] = append(byName[s.Name], s)
	}
	// perReq[req][name] is the request's first span of that name.
	perReq := map[int]map[string]span{}
	for _, s := range spans[len(setup):] {
		byName[s.Name] = append(byName[s.Name], s)
		if perReq[s.Req] == nil {
			perReq[s.Req] = map[string]span{}
		}
		if _, dup := perReq[s.Req][s.Name]; !dup {
			perReq[s.Req][s.Name] = s
		}
	}
	self := selfTimes(spans)
	meanDur := func(name string) float64 {
		var v []float64
		for _, s := range byName[name] {
			v = append(v, float64(s.dur()))
		}
		return mean(v)
	}
	count := func(name string) int { return len(byName[name]) }
	sec, us := 1e-9, 1e-3

	rep.add("rdf.parse_s", meanDur("rdf.parse")*sec, "s", 1, "rdf.ReadAll of the generated file")
	rep.add("transform.build_s", meanDur("transform.build")*sec, "s", 1, "turbohom.New")
	rep.add("storage.open_s", meanDur("storage.open")*sec, "s", 1, "turbohom.OpenDir of a fresh snapshot")
	rep.add("storage.snapshot_bytes_per_triple", ratio(float64(snapBytes), float64(triples)), "bytes", triples, "snapshot.thb size / triples")
	rep.add("sparql.parse_us", meanDur("sparql.parse")*us, "us", count("sparql.parse"), "sparql.Parse")
	rep.add("engine.prepare_us", (meanDur("engine.prepare")-meanDur("sparql.parse"))*us, "us", count("engine.prepare"), "Store.Prepare minus parse")
	rep.add("engine.first_row_us", meanDur("engine.first_row")*us, "us", count("engine.first_row"), "SelectProfiled to first Next")

	var drainNs, drainRows, drainAllocs, drainBytes float64
	for _, s := range byName["engine.drain"] {
		drainNs += float64(s.dur())
		drainRows += float64(s.Rows)
		drainAllocs += float64(s.Allocs)
		drainBytes += float64(s.Alloc)
	}
	rep.add("engine.drain_ns_per_row", ratio(drainNs, drainRows), "ns", int(drainRows), "rest of the drain")
	rep.add("engine.allocs_per_row", ratio(drainAllocs, drainRows), "count", int(drainRows), "MemStats during the drain")
	rep.add("engine.bytes_per_row", ratio(drainBytes, drainRows), "bytes", int(drainRows), "MemStats during the drain")

	reads := float64(ps.reads)
	rep.add("core.search_nodes_per_read", ratio(float64(ps.prof.SearchNodes), reads), "count", ps.reads, "ProfileResult")
	rep.add("core.regions_per_read", ratio(float64(ps.prof.Regions), reads), "count", ps.reads, "ProfileResult")
	rep.add("core.explored_candidates_per_read", ratio(float64(ps.prof.ExploredCandidates), reads), "count", ps.reads, "ProfileResult")
	rep.add("core.solutions_per_search_node", ratio(drainRows+float64(ps.firstRows), float64(ps.prof.SearchNodes)), "fraction", ps.reads, "rows delivered / ProfileResult search nodes")
	rep.add("core.signature_kill_ratio", ratio(float64(ps.prof.SignatureKilled), float64(ps.prof.SignatureChecked)), "fraction", ps.reads, "ProfileResult")

	// Handler spans, split by how the result cache answered.
	var (
		handleNs                             []float64
		hitNs, hitRows                       float64
		serNs, serRows, serAllocs, respBytes float64
		overheadNs                           []float64
	)
	for _, h := range byName["server.handle"] {
		handleNs = append(handleNs, float64(h.dur()))
		rt := spans[h.Parent]
		overheadNs = append(overheadNs, float64(self[rt.ID]))
		switch h.Note {
		case "hit":
			hitNs += float64(h.dur())
			hitRows += float64(rt.Rows)
		case "miss":
			r := perReq[h.Req]
			fr, dr := r["engine.first_row"], r["engine.drain"]
			serNs += float64(h.dur() - fr.dur() - dr.dur())
			serAllocs += float64(h.Allocs) - float64(fr.Allocs+dr.Allocs)
			serRows += float64(rt.Rows)
			respBytes += float64(rt.Bytes)
		}
	}
	rep.add("cache.replay_ns_per_row", ratio(hitNs, hitRows), "ns", int(hitRows), "handler span of cache hits")
	rep.add("server.handle_us", mean(handleNs)*us, "us", len(handleNs), "wrapped Server.ServeHTTP")
	rep.add("server.serialize_ns_per_row", ratio(serNs, serRows), "ns", int(serRows), "misses: handler minus first row and drain")
	rep.add("server.allocs_per_row", ratio(serAllocs, serRows), "count", int(serRows), "misses: handler allocs minus engine allocs")
	rep.add("server.resp_bytes_per_row", ratio(respBytes, serRows), "bytes", int(serRows), "misses: body bytes")
	rep.add("http.overhead_us", mean(overheadNs)*us, "us", len(overheadNs), "round trip minus handler (self time)")
	rep.add("client.decode_us", meanDur("client.decode")*us, "us", count("client.decode"), "row-count scan")
	if wl == "lubm-rw" {
		apply := meanDur("transform.apply")
		rep.add("transform.apply_us", apply*us, "us", count("transform.apply"), "Store.Update on the in-memory twin")
		rep.add("storage.wal_us", (meanDur("storage.update")-apply)*us, "us", count("storage.update"), "durable Update minus twin")
		rep.add("storage.wal_bytes_per_triple", ratio(float64(ps.walBytes), float64(ps.written)), "bytes", ps.written, "wal.thl size / triples written")
	}
	rep.add("trace.overhead_ratio", ratio(walls[1].Seconds(), walls[2].Seconds()), "ratio", 2, "traced / untraced ladder wall time")
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the ordered parallel region pipeline (paper §5.2
// lifted from materialized fan-out to streaming) on top of the resumable
// search cursor: W workers claim contiguous batches of candidate regions
// from a shared counter and run each batch as one range-framed
// regionCursor, delivering solutions in bounded row *segments* instead of
// whole-batch buffers. The calling goroutine — the emitter — replays the
// segments in exact sequential order, so every sequential contract survives
// parallelism unchanged: rows arrive in the sequential enumeration order, a
// visitor returning false stops the run, and MaxSolutions cuts the stream at
// the same row it would cut a sequential run.
//
// Backpressure is per row. A segment holds at most quota rows (derived from
// Opts.StreamBuffer, which counts rows in flight); a worker that fills a
// segment hands it to its span's channel and, when the channel is full,
// blocks with its search *suspended in the cursor* — a pathological region
// that yields a hundred thousand rows therefore never buffers more than ~2
// segments of them, and the first rows reach the consumer after O(quota)
// search work, not after the region is exhausted. A second, coarser bound: a
// token semaphore keeps at most `window` batches in flight ahead of the
// emitter, so an early-terminated run abandons everything beyond the window.
//
// Work splitting is one protocol, split on request. A worker with no token
// and no batch sends a reply channel on the unbuffered ps.want. An owner
// serves requests between two resumes and while parked on backpressure:
// splitOff carves ⌈remaining/2⌉ iterations off its cursor's bottom-most
// pending loop — a tail of the batch's candidate range, or of a candidate
// loop inside the current region — and the piece's span is spliced directly
// after the owner's:
//
//	owner span ──▶ T2 ──▶ T1 ──▶ (the owner's old successor)
//
// Every loop below the split point is exhausted, so a later split's tail
// precedes every earlier one and the emitter replays rows in sequential
// order with no continuation spans. A split is made only for a worker that
// is already waiting to run it, and each piece feeds exactly one span, so no
// span in the chain is ever left without a goroutine to close it.

// maxPipelineChunk caps the candidate-region batch size. Batches amortize
// scheduling; splitting handles skew, but the cap still bounds how much
// work one token pins.
const maxPipelineChunk = 64

// segment is one bounded slice of a span's solution stream.
type segment struct {
	sols  []Match // solutions in sequential order, deep copies (nil when counting)
	count int     // solutions found (the NEC bulk count may exceed len(sols)==0 rows)
	err   error   // context error that cut the span short
}

// span is the delivery channel of one piece of work: a stream of segments
// plus the link to the span that follows it in sequential order.
type span struct {
	segs chan segment
	next *span // successor in region order; final once segs is closed
}

func newSpan() *span { return &span{segs: make(chan segment, 1)} }

// pipeState is the shared coordination state of one pipeline run.
type pipeState struct {
	m          *matcher
	cands      []uint32
	start      int
	skipBefore int
	sharedPlan *searchPlan
	chunk      int
	numBatches int
	collect    bool
	limit      int
	quota      int // max rows per segment

	stop   atomic.Bool   // emitter finished; abandon unclaimed work
	done   chan struct{} // closed with stop, releases blocked workers
	tokens chan struct{} // batch-window semaphore
	ring   []chan *span  // first span of batch bi arrives at ring[bi%window]

	// want carries split requests: an idle worker sends its reply channel
	// and the owner that receives it answers with a piece of its work.
	// Unbuffered, so a request exists only while its sender waits for the
	// answer.
	want chan chan *piece

	mu       sync.Mutex
	claimed  int           // batches claimed so far
	live     int           // pieces handed out and not yet finished
	finished chan struct{} // closed once every batch is claimed and no piece is live
	prof     *ProfileResult
}

// pipelineSplits counts pieces split off running cursors across all runs —
// a test hook for asserting that splitting engages on skewed instances.
var pipelineSplits atomic.Int64

// regionResumeChunk is the count-mode resume quota between suspensions:
// large enough to amortize the suspend, small enough that a waiting worker
// is served a split every few microseconds of counting.
const regionResumeChunk = 1024

// pipelineQuota derives the per-segment row cap from the StreamBuffer row
// budget: the window may hold one delivered segment per in-flight batch plus
// one in production, so quota ≈ StreamBuffer/window keeps rows in flight
// within a small constant factor of StreamBuffer.
func pipelineQuota(streamBuffer, window, workers int) int {
	if streamBuffer <= 0 {
		streamBuffer = 64 * workers
	}
	q := streamBuffer / window
	if q < 1 {
		q = 1
	}
	return q
}

// runPipeline executes the match with opts.Workers parallel workers while
// delivering solutions to visit in exactly the sequential enumeration order.
// With a nil visitor it is a parallel count: per-segment totals are summed
// in region order, so MaxSolutions clamps as deterministically as it does
// sequentially.
func (m *matcher) runPipeline(visit Visitor) (int, error) {
	start, cands := m.startCandidates()
	if len(cands) == 0 {
		m.foldSigCounters()
		return 0, nil
	}
	// Point-shaped queries have no per-region work to distribute; the
	// sequential fast path is optimal and already ordered. The pipeline's
	// visitor contract hands out owned rows (worker-side deep copies), so
	// the delegation must clone what the sequential run lends it —
	// Collect appends pipeline rows without copying.
	if len(m.q.Vertices) == 1 && len(m.q.Edges) == 0 {
		// run repeats startCandidates and folds the signature counters
		// itself; drop this call's counts so they are not folded twice.
		m.sigChecked.Store(0)
		m.sigKilled.Store(0)
		if visit == nil {
			return m.run(nil)
		}
		return m.run(func(mt Match) bool { return visit(mt.Clone()) })
	}
	m.buildQueryTree(start)
	if m.opts.Profile != nil {
		defer m.foldSigCounters()
	}

	pr := m.opts.Profile
	if pr != nil {
		pr.StartVertex = start
		pr.StartCandidates = len(cands)
		if m.red != nil {
			pr.NECClasses = len(m.red.classes)
			pr.NECMergedVertices = m.red.mergedVertices()
		}
	}

	// Dynamic distribution (paper §5.2): small contiguous chunks claimed
	// from a shared counter; splitting re-splits whatever skew the static
	// chunking misjudged.
	workers := m.opts.Workers
	chunk := len(cands)/(workers*8) + 1
	if chunk > maxPipelineChunk {
		chunk = maxPipelineChunk
	}
	// Workers may exceed the batch count: the surplus cannot claim a batch,
	// but splitting still gives them work — a one-batch, one-region instance
	// (a single huge candidate region) parallelizes by splitting the
	// suspended search, not by distributing regions.
	numBatches := (len(cands) + chunk - 1) / chunk
	window := 2 * workers
	if window > numBatches {
		window = numBatches
	}
	quota := pipelineQuota(m.opts.StreamBuffer, window, workers)

	// +REUSE pins every region to the matching order of the first region
	// that survives exploration — the first in SEQUENTIAL order, because the
	// emitted row order depends on the plan. The pre-pass stops at that
	// region and hands the failures before it to the workers as known
	// skips, so total exploration work stays within one region of the
	// sequential run.
	var sharedPlan *searchPlan
	skipBefore := 0
	if m.opts.ReuseOrder {
		rg := newRegion(len(m.q.Vertices))
		for i, vs := range cands {
			if err := m.ctx.Err(); err != nil {
				return 0, err
			}
			rg.reset(vs)
			ckBase, klBase := m.sigChecked.Load(), m.sigKilled.Load()
			if m.explore(rg, start, vs) {
				// The surviving region is explored again by the worker that
				// claims it; drop this exploration's signature counts so the
				// run total matches a sequential run exactly. (The failed
				// explorations before it stay counted: workers skip those
				// regions, while a sequential run pays for them once — here.)
				m.sigChecked.Add(ckBase - m.sigChecked.Load())
				m.sigKilled.Add(klBase - m.sigKilled.Load())
				sharedPlan = m.buildPlan(rg)
				skipBefore = i
				break
			}
			skipBefore = i + 1
		}
	}

	ps := &pipeState{
		m:          m,
		cands:      cands,
		start:      start,
		skipBefore: skipBefore,
		sharedPlan: sharedPlan,
		chunk:      chunk,
		numBatches: numBatches,
		collect:    visit != nil,
		limit:      m.opts.MaxSolutions,
		quota:      quota,
		done:       make(chan struct{}),
		tokens:     make(chan struct{}, window),
		ring:       make([]chan *span, window),
		want:       make(chan chan *piece),
		finished:   make(chan struct{}),
		prof:       pr,
	}
	for i := range ps.ring {
		ps.ring[i] = make(chan *span, 1)
	}
	for i := 0; i < window; i++ {
		ps.tokens <- struct{}{}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps.worker()
		}()
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	const maxInt = int(^uint(0) >> 1)
	limit := m.opts.MaxSolutions
	emitted := 0
	var err error
emit:
	for bi := 0; bi < numBatches; bi++ {
		var sp *span
		select {
		case sp = <-ps.ring[bi%window]:
		case <-workersDone:
			// All workers exited before announcing this batch — the context
			// was cancelled before it was claimed. The non-blocking re-check
			// covers the race where the announcement and the last exit landed
			// together.
			select {
			case sp = <-ps.ring[bi%window]:
			default:
				err = m.ctx.Err()
				break emit
			}
		}
		for sp != nil {
			for seg := range sp.segs {
				if visit == nil {
					// bulkCount saturates per segment; keep the sum saturating.
					if seg.count > maxInt-emitted {
						emitted = maxInt
					} else {
						emitted += seg.count
					}
				} else {
					for _, mt := range seg.sols {
						emitted++
						if !visit(mt) {
							break emit
						}
						if limit > 0 && emitted >= limit {
							break emit
						}
					}
				}
				if seg.err != nil {
					err = seg.err
					break emit
				}
				if limit > 0 && emitted >= limit {
					break emit
				}
			}
			// segs closed: the span's piece is finished and next is final.
			sp = sp.next
		}
		// The batch chain is fully replayed: open the window one batch on.
		ps.tokens <- struct{}{}
	}
	ps.stop.Store(true)
	close(ps.done)
	// Wait for the workers so profile merging is complete and no goroutine
	// outlives the call (Close/cancel rely on this for prompt teardown).
	<-workersDone

	if limit > 0 && emitted > limit {
		emitted = limit
	}
	return emitted, err
}

// worker runs pieces until the run ends: a fresh batch whenever the window
// has a token, otherwise a split of some running piece, requested on
// ps.want. It exits when the emitter stops, the context is cancelled, or
// every batch is claimed and no piece is left that could split.
func (ps *pipeState) worker() {
	w := ps.newWorker()
	if w.localProf != nil {
		defer func() {
			ps.mu.Lock()
			ps.prof.merge(w.localProf)
			ps.mu.Unlock()
		}()
	}
	reply := make(chan *piece, 1)
	tokens := ps.tokens
	for {
		if ps.stop.Load() || ps.m.ctx.Err() != nil {
			return
		}
		var p *piece
		// A fresh batch first; only with the window full (or every batch
		// claimed) does the worker ask a running owner for part of its work.
		select {
		case <-tokens:
		default:
			select {
			case <-tokens:
			case ps.want <- reply:
				p = <-reply
			case <-ps.finished:
				return
			case <-ps.done:
				return
			}
		}
		if p == nil {
			if p = ps.claim(); p == nil {
				tokens = nil // every batch is claimed: only splits remain
				continue
			}
		}
		if !w.runSpan(p) {
			return
		}
	}
}

// claim takes the next batch, counts it live and announces its span to the
// emitter. It returns nil once every batch is claimed.
func (ps *pipeState) claim() *piece {
	ps.mu.Lock()
	bi := ps.claimed
	if bi >= ps.numBatches {
		ps.mu.Unlock()
		return nil
	}
	ps.claimed++
	ps.live++
	ps.mu.Unlock()
	lo := bi * ps.chunk
	p := &piece{lo: lo, hi: min(lo+ps.chunk, len(ps.cands)), sp: newSpan()}
	// The slot is guaranteed empty: batch bi is claimable only after batch
	// bi-window was fully replayed, which drained the slot.
	ps.ring[bi%len(ps.ring)] <- p.sp
	return p
}

// retire marks a piece finished. When it was the last live piece and every
// batch is claimed, no owner is left that could split, so the waiting
// workers are released through ps.finished.
func (ps *pipeState) retire() {
	ps.mu.Lock()
	ps.live--
	if ps.live == 0 && ps.claimed >= ps.numBatches {
		close(ps.finished)
	}
	ps.mu.Unlock()
}

// pipeWorker is one worker's private execution state: a reusable search
// state and range cursor, the span of the piece it is running, and the
// segment row buffer its visitor fills.
type pipeWorker struct {
	ps        *pipeState
	st        *searchState
	rc        regionCursor
	visit     Visitor // nil when counting
	sp        *span
	buf       []Match
	localProf *ProfileResult
}

func (ps *pipeState) newWorker() *pipeWorker {
	m := ps.m
	w := &pipeWorker{ps: ps}
	if ps.prof != nil {
		w.localProf = new(ProfileResult)
	}
	if ps.collect {
		w.visit = func(mt Match) bool {
			if ps.stop.Load() {
				return false
			}
			w.buf = append(w.buf, mt.Clone())
			return true
		}
	}
	w.st = newSearchState(m, w.visit, 0, nil)
	w.st.profile = w.localProf
	w.st.stop = &ps.stop
	w.rc.initRange(m, ps.cands, ps.start, ps.skipBefore, ps.sharedPlan)
	return w
}

// runSpan runs piece p, delivering its rows into p.sp in segments of at
// most quota rows and serving split requests as it goes. A range piece runs
// on the worker's own state and cursor; an in-region piece brings its own.
// p.sp is closed on return, after every split spliced behind it, and the
// result reports whether the worker may go on to another piece (false once
// the run is stopping).
func (w *pipeWorker) runSpan(p *piece) bool {
	ps := w.ps
	defer ps.retire()
	rc := p.rc
	if rc == nil {
		rc = &w.rc
		rc.start(w.st, p.lo, p.hi)
	} else {
		rc.st.visit, rc.st.profile = w.visit, w.localProf
	}
	st := rc.st
	base := st.count
	w.sp = p.sp
	// Span-local MaxSolutions cutoff: once THIS span alone has produced
	// limit solutions, its remaining work can never be emitted — the
	// emitter, replaying in order, reaches the cap at or before this span's
	// end — so the span closes early. The bound must be span-local, not
	// worker-cumulative: a worker may pick up a piece that precedes work it
	// already counted, and a cumulative cutoff there would leave a gap
	// before already-delivered rows.
	spanQuota := func() int {
		if ps.limit <= 0 {
			return 0 // unlimited
		}
		if q := ps.limit - (st.count - base); q > 0 {
			return q
		}
		return -1 // span produced MaxSolutions; the emitter cuts within it
	}
	done := false
	for {
		// Collect mode resumes row by row for eager delivery; count mode
		// runs in bounded chunks so the cursor suspends often enough to
		// serve split requests (and so one enormous region cannot blow past
		// a MaxSolutions cap by more than an NEC bulk batch).
		quota := 1
		if !ps.collect {
			if quota = spanQuota(); quota < 0 {
				break
			}
			if quota == 0 || quota > regionResumeChunk {
				quota = regionResumeChunk
			}
		}
		done = rc.resume(quota)
		if !done && !st.stopped && spanQuota() >= 0 {
			if !ps.collect {
				// Count mode has no channel operation between chunks, so on
				// a single P this loop would keep out-of-work workers from
				// ever reaching their request; one yield per chunk lets them
				// queue it. Collect mode yields through the flush below.
				runtime.Gosched()
			}
			w.serve(rc)
		}
		if ps.collect && len(w.buf) > 0 {
			// Eager per-row delivery: hand over whatever has accumulated
			// the moment the slot is free, so the emitter never waits for
			// a full segment; block only when the segment cap is hit —
			// that block is the per-row backpressure.
			if !w.flush(rc, false) && len(w.buf) >= ps.quota && !w.flush(rc, true) {
				st.stopped = true
			}
		}
		if done || st.stopped || spanQuota() < 0 {
			break
		}
	}
	if !done {
		// The piece is abandoned with the cursor suspended: unwind it so the
		// searchState carries no stale used[]/varBind[] bindings into later
		// pieces — which may precede the limit cut in region order and still
		// have rows to deliver.
		rc.abort()
	}
	// Final segment: leftover rows, the span's count contribution (counting
	// mode), and any context error that cut the search short.
	seg := segment{sols: w.buf, err: st.err}
	if !ps.collect {
		seg.count = st.count - base
	}
	w.buf = nil
	if len(seg.sols) > 0 || seg.count != 0 || seg.err != nil {
		select {
		case p.sp.segs <- seg:
		case <-ps.done:
		}
	}
	close(p.sp.segs)
	return !st.stopped
}

// serve answers a split request, if a worker is waiting and rc has work to
// spare. The check comes first so that a received request is always
// answered with a piece.
func (w *pipeWorker) serve(rc *regionCursor) {
	if rc.splitPoint() < 0 {
		return
	}
	select {
	case reply := <-w.ps.want:
		w.give(rc, reply)
	default:
	}
}

// give splits rc and hands the piece to the waiting worker. The piece's span
// goes directly after the owner's: the piece follows every row the owner
// still produces and precedes every earlier split's piece.
func (w *pipeWorker) give(rc *regionCursor, reply chan<- *piece) {
	ps := w.ps
	p := rc.splitOff()
	p.sp = newSpan()
	p.sp.next = w.sp.next
	w.sp.next = p.sp
	ps.mu.Lock()
	ps.live++
	ps.mu.Unlock()
	pipelineSplits.Add(1)
	reply <- p
}

// flush tries to deliver the accumulated rows as one segment. Without block
// it gives up when the slot is full. With block it waits for the slot —
// serving split requests meanwhile, so an owner parked on backpressure still
// gives work away — and reports false only when the run shuts down first.
func (w *pipeWorker) flush(rc *regionCursor, block bool) bool {
	seg := segment{sols: w.buf}
	if !block {
		select {
		case w.sp.segs <- seg:
			w.buf = nil
			return true
		default:
			return false
		}
	}
	for {
		var want chan chan *piece // nil: no spare work, no requests taken
		if rc.splitPoint() >= 0 {
			want = w.ps.want
		}
		select {
		case w.sp.segs <- seg:
			w.buf = nil
			return true
		case reply := <-want:
			w.give(rc, reply)
		case <-w.ps.done:
			return false
		}
	}
}

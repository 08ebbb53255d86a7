package core

import (
	"context"

	"repro/internal/graph"
)

// This file makes the subgraph search resumable: regionCursor re-expresses
// run()'s region loop and searchState.search's recursion as an explicit
// stack of loop frames, so an enumeration can be suspended after any emitted
// row and resumed later — by the same goroutine or, state in hand, by another
// scheduler entirely — and the work it has not started can be split off.
// Cursor wraps one range-framed cursor over every start candidate into a
// whole-run enumeration; the parallel pipeline runs one per claimed batch.
//
// The machine is a faithful transliteration of run() and the recursion in
// search.go, which remain the sequential production path and the reference
// oracle for the differential suite: for any pause/resume schedule, the
// cursor must deliver byte-identical rows, in the identical order, with
// identical profile counters. Each frame kind mirrors one loop:
//
//	cfRange  — run()'s loop over the start candidates cands[lo:hi): the
//	           context check, region exploration, the profile's region
//	           counters and the matching-order plan (shared under +REUSE);
//	cfSearch — the per-candidate loop of search(dc) at one matching-order
//	           position (including the +INT and IsJoinable paths);
//	cfWild   — the per-label loop of bindWild for one wildcard edge;
//	cfExpand — the per-candidate loop of expandClass/assign for one member
//	           of one NEC equivalence class during combination expansion.
//
// NEC representative positions (searchNEC) push no frame at all: their
// candidate filtering happens at push time and the search descends exactly
// once, so there is nothing to iterate when the subtree returns — just like
// the recursion.
//
// Suspend/resume invariants. All search state lives in the searchState
// arrays (mapping, edgeBind, varBind, used, classCands, fullMap/fullEdges,
// the per-depth scratch buffers) plus the frame stack; nothing lives on the
// goroutine stack between resume calls. Each frame records the bindings it
// owns (bound/setVar/expSet) and undoes them when control re-enters it after
// the subtree beneath finished — so resuming continues exactly where the
// last emit happened. A suspended cursor holds live bindings in those
// arrays: abandoning a region mid-search is only safe through abort(), which
// unwinds the stack undoing every frame's effects, unless the searchState is
// discarded with the cursor. One deliberate divergence from the recursion, invisible in every
// observable (rows, order, counters): the (u, v) vertex binding is placed
// before the position's wildcard labels are enumerated rather than beneath
// them, which keeps the binding's undo in the cfSearch frame; nothing inside
// the wildcard loop reads mapping[u] or used[v].
//
// Splitting. splitOff carves the tail of the bottom-most pending loop — the
// range frame or a cfSearch frame — into a piece another worker can run.
// Every frame below that loop is exhausted, so every row the cursor still
// produces precedes every row of the piece in sequential order.
type regionCursor struct {
	st    *searchState
	stack []cframe

	// The range frame's per-run inputs (initRange): the start candidates,
	// the start query vertex, the index below which every region is a known
	// explore failure (the pipeline's +REUSE pre-pass), the +REUSE plan (nil
	// until the first surviving region), and the reusable region object,
	// replaced on the next region once an in-region piece shares it.
	cands      []uint32
	startV     int
	skipBefore int
	plan       *searchPlan
	rg         *region
	rgShared   bool

	// NEC expansion accounting: the recursion computes
	// NECExpansionsSkipped from the solution count before/after one
	// reduced solution's expansion. The cursor's expansion interleaves
	// with suspensions, so the base is recorded when the first cfExpand
	// frame is pushed and folded in when the expansion's frames have all
	// popped (or the run stops mid-expansion).
	expActive   bool
	expBase     int
	expStackLen int
}

type cframeKind uint8

const (
	cfRange cframeKind = iota
	cfSearch
	cfWild
	cfExpand
)

// cframe is one suspended loop of the search recursion.
type cframe struct {
	kind cframeKind

	// cfSearch, cfWild: matching-order position and its query vertex.
	dc int
	u  int

	// list is the frame's iteration space: the start candidates up to the
	// range's end (cfRange, so i is a run-wide candidate index), candidate
	// vertices (cfSearch), edge labels (cfWild), or the class candidate
	// snapshot (cfExpand). i indexes the next element to try.
	list []uint32
	i    int

	// cfSearch: the data vertex currently bound to u (undone on re-entry),
	// and the membership-test edges (nil when +INT already intersected).
	v          uint32
	bound      bool
	constJoins []int

	// cfWild: the wildcard edge (edge = query edge index, wi = position in
	// plan.wild[dc]), the vertex being placed, the predicate-variable
	// binding observed on entry (NoID = unbound), and whether this frame
	// bound the variable for the current label.
	edge      int
	wi        int
	wv        uint32
	prevBound uint32
	setVar    bool

	// cfExpand: class and member being assigned, plus the currently
	// assigned data vertex (isomorphism only; undone on re-entry).
	ci, mi int
	expCur uint32
	expSet bool
}

// initRange sets the run-wide inputs of the cursor's range frame (see the
// regionCursor fields); plan is the +REUSE plan when already known.
func (rc *regionCursor) initRange(m *matcher, cands []uint32, start, skipBefore int, plan *searchPlan) {
	rc.cands, rc.startV, rc.skipBefore, rc.plan = cands, start, skipBefore, plan
	rc.rg = newRegion(len(m.q.Vertices))
}

// start (re)initializes the cursor to enumerate the candidate regions
// cands[lo:hi) on st. The caller owns st's lifecycle; one searchState can
// serve many consecutive ranges through the same cursor.
func (rc *regionCursor) start(st *searchState, lo, hi int) {
	rc.st = st
	rc.stack = append(rc.stack[:0], cframe{kind: cfRange, list: rc.cands[:hi], i: lo})
	rc.expActive = false
}

// enter explores candidate region vs and, when it survives, descends into
// its search — the body of run()'s region loop. It reports whether the
// region survived exploration.
func (rc *regionCursor) enter(vs uint32) bool {
	st := rc.st
	m := st.m
	if rc.rgShared {
		rc.rg = newRegion(len(m.q.Vertices))
		rc.rgShared = false
	}
	rg := rc.rg
	rg.reset(vs)
	if !m.explore(rg, rc.startV, vs) {
		return false
	}
	if st.profile != nil {
		st.profile.Regions++
		for _, total := range rg.totals {
			st.profile.ExploredCandidates += total
		}
	}
	if rc.plan == nil || !m.opts.ReuseOrder {
		rc.plan = m.buildPlan(rg)
	}
	st.rg, st.plan = rg, rc.plan
	rc.descend(0)
	return true
}

// resume advances the search until maxRows more solutions have been emitted
// (counted the way the run counts them, so an NEC bulk count may overshoot),
// the cursor's work is exhausted, or the search stops (visitor false, limit,
// cancellation). It reports whether the cursor is finished; false means the
// cursor is suspended and resume can be called again. maxRows <= 0 runs to
// exhaustion.
func (rc *regionCursor) resume(maxRows int) bool {
	st := rc.st
	base := st.count
	for len(rc.stack) > 0 {
		if st.stopped {
			rc.abort()
			return true
		}
		rc.step()
		if maxRows > 0 && st.count-base >= maxRows && len(rc.stack) > 0 {
			if st.stopped {
				continue // deliver the stop verdict, not a suspension
			}
			return false
		}
	}
	rc.finishExpansion()
	return true
}

// undo reverts the bindings this frame currently holds — the cfSearch
// vertex binding, the cfWild predicate-variable and edge-label bindings,
// the cfExpand member assignment. It is the single undo site, shared by
// step()'s re-entry and abort()'s unwind, so the two cannot drift: a new
// binding added to one frame kind is undone on both paths or neither.
func (f *cframe) undo(st *searchState) {
	switch f.kind {
	case cfSearch:
		if f.bound {
			if st.used != nil {
				st.used[f.v] = false
			}
			f.bound = false
		}
	case cfWild:
		if f.setVar {
			st.varBind[st.m.q.Edges[f.edge].PredVar] = NoID
			f.setVar = false
		}
		st.edgeBind[f.edge] = NoID
	case cfExpand:
		if f.expSet {
			st.used[f.expCur] = false
			f.expSet = false
		}
	}
}

// revertInto clears, in dst, the bindings this frame currently holds —
// without touching the frame itself. It is the cross-state sibling of undo,
// used when an in-region split hands a CLONE of the searchState to a piece:
// the clone must not carry the bindings of the frames the piece is not
// taking, while the owner's frames keep their flags for their own undo.
func (f *cframe) revertInto(dst *searchState) {
	switch f.kind {
	case cfSearch:
		if f.bound && dst.used != nil {
			dst.used[f.v] = false
		}
	case cfWild:
		if f.setVar {
			dst.varBind[dst.m.q.Edges[f.edge].PredVar] = NoID
		}
		dst.edgeBind[f.edge] = NoID
	case cfExpand:
		if f.expSet {
			dst.used[f.expCur] = false
		}
	}
}

// abort abandons a suspended region mid-search, unwinding the frame stack
// and undoing every binding the frames still hold, exactly as each frame's
// own re-entry would. After abort the searchState is clean for the next
// region: required whenever the state outlives the abandoned region, as in
// the pipeline's span-quota cutoffs, where a worker that dropped a
// suspended cursor without unwinding would silently prune later spans
// against stale used[]/varBind[] entries.
func (rc *regionCursor) abort() {
	st := rc.st
	for i := len(rc.stack) - 1; i >= 0; i-- {
		rc.stack[i].undo(st)
	}
	rc.stack = rc.stack[:0]
	rc.finishExpansion()
}

// cloneForSplit copies the bindings of a suspended search into a fresh,
// independently resumable searchState for an in-region piece: the mapping/
// edge/variable/injectivity arrays and the NEC snapshots are deep copies, the
// scratch buffers are fresh (per-goroutine), and the visitor and profile
// sink are left for the receiving worker to install. The region, plan,
// matcher, context and run-wide stop flag stay shared.
func (st *searchState) cloneForSplit() *searchState {
	n := &searchState{
		m:        st.m,
		ctx:      st.ctx,
		rg:       st.rg,
		plan:     st.plan,
		mapping:  append([]uint32(nil), st.mapping...),
		edgeBind: append([]uint32(nil), st.edgeBind...),
		varBind:  append([]uint32(nil), st.varBind...),
		stop:     st.stop,
		candBuf:  make([][]uint32, len(st.candBuf)),
		adjBuf:   make([][]uint32, len(st.adjBuf)),
		listsBuf: make([][][]uint32, len(st.listsBuf)),
	}
	if st.used != nil {
		n.used = append([]bool(nil), st.used...)
	}
	if st.m.red != nil {
		// The class snapshots alias the owner's per-depth candBuf scratch,
		// which later owner regions overwrite — the piece needs owned copies.
		n.classCands = make([][]uint32, len(st.classCands))
		for i, c := range st.classCands {
			n.classCands[i] = append([]uint32(nil), c...)
		}
		n.fullMap = append([]uint32(nil), st.fullMap...)
		n.fullEdges = append([]uint32(nil), st.fullEdges...)
	}
	return n
}

// piece is work carved off a suspended cursor by splitOff: either the
// candidate regions [lo, hi) — rc nil, run on the receiver's own reusable
// state — or, from inside a region, a cursor over a cloned searchState. sp
// is the pipeline span the piece's rows are delivered into.
type piece struct {
	lo, hi int
	rc     *regionCursor
	sp     *span
}

// splitPoint returns the index of the frame splitOff would split — the
// bottom-most frame with pending iterations — or -1 when that frame is a
// wildcard label loop or an NEC expansion (cheap per iteration, not worth a
// piece) or when splitting it would leave the cursor no work of its own.
func (rc *regionCursor) splitPoint() int {
	for i := range rc.stack {
		f := &rc.stack[i]
		rem := len(f.list) - f.i
		if rem == 0 {
			continue
		}
		if f.kind != cfRange && f.kind != cfSearch {
			return -1
		}
		if rem >= 2 {
			return i // the cursor keeps ⌊rem/2⌋ iterations
		}
		for j := i + 1; j < len(rc.stack); j++ {
			if rc.stack[j].i < len(rc.stack[j].list) {
				return i // the cursor keeps a pending loop above
			}
		}
		return -1
	}
	return -1
}

// splitOff carves ⌈remaining/2⌉ iterations off the tail of the cursor's
// bottom-most pending loop and returns them as a piece, or nil when
// splitPoint finds nothing to split. Only the cursor's owner may call it,
// between two resumes.
//
// Every frame below the split point is exhausted, so every row the cursor
// still produces — the current subtree plus the head of the split loop —
// precedes every row of the piece in sequential order, and a later split of
// the cursor precedes an earlier one. A range piece is a plain index range.
// An in-region piece gets a clone of the cursor's bindings with the frames
// at and above the split point reverted: those belong to the cursor's
// current subtree, not to the piece.
func (rc *regionCursor) splitOff() *piece {
	si := rc.splitPoint()
	if si < 0 {
		return nil
	}
	f := &rc.stack[si]
	cut := len(f.list) - (len(f.list)-f.i+1)/2
	if f.kind == cfRange {
		p := &piece{lo: cut, hi: len(f.list)}
		f.list = f.list[:cut]
		return p
	}
	// The frame's list may alias per-depth scratch the cursor overwrites
	// later, so the piece owns a copy of its tail.
	stolen := append([]uint32(nil), f.list[cut:]...)
	f.list = f.list[:cut]
	nst := rc.st.cloneForSplit()
	for i := len(rc.stack) - 1; i >= si; i-- {
		rc.stack[i].revertInto(nst)
	}
	// The piece reads this region's candidate lists for as long as it runs,
	// so the cursor's next region needs a fresh region object.
	rc.rgShared = true
	nrc := &regionCursor{st: nst}
	nrc.stack = append(nrc.stack, cframe{
		kind: cfSearch, dc: f.dc, u: f.u, list: stolen, constJoins: f.constJoins,
	})
	return &piece{rc: nrc}
}

// step executes one iteration of the top frame's loop. Frames are addressed
// by index, never by retained pointer, because pushes may grow the stack's
// backing array.
func (rc *regionCursor) step() {
	st := rc.st
	top := len(rc.stack) - 1
	f := &rc.stack[top]
	f.undo(st)
	switch f.kind {
	case cfRange:
		for f.i < len(f.list) {
			ci := f.i
			f.i++
			if err := st.ctx.Err(); err != nil {
				st.err = err
				st.stopped = true
				return
			}
			if st.stop != nil && st.stop.Load() {
				st.stopped = true
				return
			}
			if ci >= rc.skipBefore && rc.enter(f.list[ci]) {
				return
			}
		}
		rc.stack = rc.stack[:top]

	case cfSearch:
		for f.i < len(f.list) {
			v := f.list[f.i]
			f.i++
			st.steps++
			if st.steps&2047 == 0 {
				if err := st.ctx.Err(); err != nil {
					st.err = err
					st.stopped = true
					return
				}
				if st.stop != nil && st.stop.Load() {
					st.stopped = true
					return
				}
			}
			if st.profile != nil {
				st.profile.SearchNodes++
			}
			if st.used != nil && st.used[v] {
				continue
			}
			if f.constJoins != nil && !st.checkConstJoins(f.u, v, f.constJoins) {
				continue
			}
			if !st.checkSelfLoops(v, st.plan.selfConst[f.dc]) {
				continue
			}
			// Bind u -> v and descend. The binding is undone when control
			// re-enters this frame.
			st.mapping[f.u] = v
			if st.used != nil {
				st.used[v] = true
			}
			f.v, f.bound = v, true
			dc, u := f.dc, f.u
			if len(st.plan.wild[dc]) == 0 {
				rc.descend(dc + 1)
			} else {
				rc.pushWild(dc, u, v, 0)
			}
			return
		}
		rc.stack = rc.stack[:top]

	case cfWild:
		e := &st.m.q.Edges[f.edge]
		for f.i < len(f.list) {
			lbl := f.list[f.i]
			f.i++
			if f.prevBound != NoID && lbl != f.prevBound {
				continue
			}
			st.edgeBind[f.edge] = lbl
			if e.PredVar >= 0 && f.prevBound == NoID {
				st.varBind[e.PredVar] = lbl
				f.setVar = true
			}
			dc, u, v, wi := f.dc, f.u, f.wv, f.wi
			rc.pushWild(dc, u, v, wi+1)
			return
		}
		rc.stack = rc.stack[:top]

	case cfExpand:
		members := st.m.red.classes[f.ci].members
		for f.i < len(f.list) {
			v := f.list[f.i]
			f.i++
			if st.used != nil {
				if st.used[v] {
					continue
				}
				st.used[v] = true
				f.expCur, f.expSet = v, true
			}
			st.fullMap[members[f.mi]] = v
			ci, mi := f.ci, f.mi
			rc.pushExpand(ci, mi+1)
			return
		}
		rc.stack = rc.stack[:top]
		rc.maybeFinishExpansion()
	}
}

// descend enters matching-order position dc, or emits a solution when the
// order is complete — search(dc)'s entry.
func (rc *regionCursor) descend(dc int) {
	st := rc.st
	if dc == len(st.plan.order) {
		rc.emit()
		return
	}
	rc.pushSearch(dc)
}

// pushSearch prepares position dc exactly as search(dc) does: candidate
// lookup, the +INT intersection, and the deferred-NEC snapshot (which
// descends without a frame).
func (rc *regionCursor) pushSearch(dc int) {
	st := rc.st
	plan := st.plan
	u := plan.order[dc]

	var cands []uint32
	if dc == 0 {
		st.rootBuf[0] = st.rg.root
		cands = st.rootBuf[:]
	} else {
		cands = st.rg.cand[rkey(u, st.mapping[st.m.parent[u]])]
	}

	constJoins := plan.constJoins[dc]
	if st.m.opts.Intersect && len(constJoins) > 0 {
		cands = st.intersectJoins(dc, u, cands, constJoins)
		constJoins = nil
	}

	if st.m.red != nil {
		if ci := st.m.red.classOf[u]; ci >= 0 {
			rc.pushNEC(dc, u, ci, cands, constJoins)
			return
		}
	}

	rc.stack = append(rc.stack, cframe{kind: cfSearch, dc: dc, u: u, list: cands, constJoins: constJoins})
}

// pushNEC mirrors searchNEC: filter the class candidates, snapshot the
// survivors, and descend once — no frame, because there is nothing to
// iterate at this position when the subtree returns.
func (rc *regionCursor) pushNEC(dc, u, ci int, cands []uint32, constJoins []int) {
	st := rc.st
	buf := st.candBuf[dc][:0]
	for _, v := range cands {
		st.steps++
		if st.steps&2047 == 0 {
			if err := st.ctx.Err(); err != nil {
				st.err = err
				st.stopped = true
				return
			}
			if st.stop != nil && st.stop.Load() {
				st.stopped = true
				return
			}
		}
		if st.profile != nil {
			st.profile.SearchNodes++
		}
		if st.used != nil && st.used[v] {
			continue
		}
		if constJoins != nil && !st.checkConstJoins(u, v, constJoins) {
			continue
		}
		buf = append(buf, v)
	}
	st.candBuf[dc] = buf
	k := st.m.red.classSize[u]
	if len(buf) == 0 || (st.used != nil && len(buf) < k) {
		return
	}
	st.classCands[ci] = buf
	rc.descend(dc + 1)
}

// pushWild enters wildcard edge wi of position dc for the candidate binding
// u -> v, or descends past the position when every wildcard edge is bound —
// bindWild's body.
func (rc *regionCursor) pushWild(dc, u int, v uint32, wi int) {
	st := rc.st
	edges := st.plan.wild[dc]
	if wi == len(edges) {
		rc.descend(dc + 1)
		return
	}
	m := st.m
	ei := edges[wi]
	e := &m.q.Edges[ei]
	vf, vt := v, v
	if e.From != u {
		vf = st.mapping[e.From]
	}
	if e.To != u {
		vt = st.mapping[e.To]
	}
	st.lblBuf = m.g.EdgeLabelsBetween(st.lblBuf[:0], vf, vt)
	if len(st.lblBuf) == 0 {
		return // dead end; edgeBind[ei] keeps its prior value, as in bindWild
	}
	bound := NoID
	if e.PredVar >= 0 {
		bound = st.varBind[e.PredVar]
	}
	// The frame outlives this call (and any suspension), so it owns a copy
	// of the label list — the recursion copies for the same reason.
	labels := append([]uint32(nil), st.lblBuf...)
	rc.stack = append(rc.stack, cframe{
		kind: cfWild, dc: dc, u: u, wv: v,
		edge: ei, wi: wi, list: labels, prevBound: bound,
	})
}

// pushExpand assigns member mi of NEC class ci (and onward), emitting the
// fully-expanded match when every class is assigned — expandClass/assign.
func (rc *regionCursor) pushExpand(ci, mi int) {
	st := rc.st
	red := st.m.red
	for ci < len(red.classes) && mi == len(red.classes[ci].members) {
		ci, mi = ci+1, 0
	}
	if ci == len(red.classes) {
		st.emitMatch(st.fullMap, st.fullEdges)
		return
	}
	rc.stack = append(rc.stack, cframe{kind: cfExpand, ci: ci, mi: mi, list: st.classCands[ci]})
}

// emit delivers the current reduced solution: directly, or through NEC
// combination expansion — searchState.emit's body, with expandClass turned
// into cfExpand frames so a huge expansion suspends like any other subtree.
func (rc *regionCursor) emit() {
	st := rc.st
	if st.m.red == nil {
		st.emitMatch(st.mapping, st.edgeBind)
		return
	}
	red := st.m.red

	if st.visit == nil && st.used == nil {
		// Count-only homomorphism: pure product, no enumeration (emitNEC's
		// fast path verbatim).
		total := 1
		for ci, cls := range red.classes {
			n := len(st.classCands[ci])
			for range cls.members {
				if n != 0 && total > int(^uint(0)>>1)/n {
					total = int(^uint(0) >> 1)
					break
				}
				total *= n
			}
		}
		if st.profile != nil {
			st.profile.NECExpansionsSkipped += total - 1
		}
		st.bulkCount(total)
		return
	}

	for ov := range red.orig.Vertices {
		rv := red.vertexMap[ov]
		if red.classSize[rv] == 1 {
			st.fullMap[ov] = st.mapping[rv]
		}
	}
	for oe, re := range red.edgeMap {
		if re >= 0 {
			st.fullEdges[oe] = st.edgeBind[re]
		}
	}
	rc.expActive = true
	rc.expBase = st.count
	rc.expStackLen = len(rc.stack)
	rc.pushExpand(0, 0)
	rc.maybeFinishExpansion() // the expansion may complete without frames
}

// maybeFinishExpansion folds the expansion-skipped counter in once the
// expansion's frames have all popped.
func (rc *regionCursor) maybeFinishExpansion() {
	if rc.expActive && len(rc.stack) == rc.expStackLen {
		rc.finishExpansion()
	}
}

func (rc *regionCursor) finishExpansion() {
	if !rc.expActive {
		return
	}
	rc.expActive = false
	st := rc.st
	if st.profile != nil && st.count > rc.expBase {
		st.profile.NECExpansionsSkipped += st.count - rc.expBase - 1
	}
}

// Cursor is a resumable whole-run enumeration: the same regions, in the same
// order, with the same counters as the sequential run(), but pausable after
// any emitted row. Non-point queries run one range-framed regionCursor over
// every start candidate — the same unit the pipeline schedules per batch,
// and the natural seam for distributed sharding: a suspended cursor
// describes exactly the work left to do.
//
// A Cursor is single-goroutine; it holds no locks and spawns nothing.
type Cursor struct {
	m      *matcher
	st     *searchState
	rc     regionCursor
	cands  []uint32
	next   int // point queries: next start-candidate index
	point  bool
	done   bool
	folded bool // signature counters folded into the profile
}

// foldSig folds the matcher's signature-filter counters into the profile,
// once, when the enumeration completes — the Cursor-shaped counterpart of
// run()'s deferred fold.
func (c *Cursor) foldSig() {
	if !c.folded {
		c.folded = true
		c.m.foldSigCounters()
	}
}

// NewCursor validates the query and prepares a resumable enumeration of all
// matches of q in g. Rows are delivered to visit (which may stop the run by
// returning false) during Resume calls, in exactly the sequential
// enumeration order; opts.Profile, MaxSolutions and the ctx-cancellation
// contract behave as in Stream. opts.Workers is ignored — a cursor is the
// sequential search made suspendable; parallelism schedules many cursors.
func NewCursor(ctx context.Context, g graph.View, q *QueryGraph, sem Semantics, opts Opts, visit Visitor) (*Cursor, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m := newMatcher(ctx, g, q, sem, opts)
	c := &Cursor{m: m}
	start, cands := m.startCandidates()
	c.cands = cands
	pr := opts.Profile
	if pr != nil {
		pr.StartVertex = start
		pr.StartCandidates = len(cands)
		if m.red != nil {
			pr.NECClasses = len(m.red.classes)
			pr.NECMergedVertices = m.red.mergedVertices()
		}
	}
	if len(cands) == 0 {
		c.done = true
		c.foldSig()
		return c, nil
	}
	c.st = newSearchState(m, visit, opts.MaxSolutions, nil)
	c.st.profile = pr
	c.point = len(m.q.Vertices) == 1 && len(m.q.Edges) == 0
	if !c.point {
		m.buildQueryTree(start)
		c.rc.initRange(m, cands, start, 0, nil)
		c.rc.start(c.st, 0, len(cands))
	}
	return c, nil
}

// Resume advances the enumeration until maxRows more rows have been emitted
// (maxRows <= 0 means: until exhaustion), then suspends. It returns the
// number of rows emitted by this call and whether the enumeration is
// complete. After done is reported true (or an error is returned), further
// calls return (0, true, err) idempotently.
func (c *Cursor) Resume(maxRows int) (int, bool, error) {
	if c.done {
		return 0, true, c.err()
	}
	before := c.clampedCount()
	if c.point {
		c.resumePoint(maxRows, before)
	} else if c.rc.resume(maxRows) {
		c.done = true
	}
	if c.done {
		c.foldSig()
	}
	return c.clampedCount() - before, c.done, c.err()
}

// resumePoint is the point-shaped-query fast path of run(), resumable.
func (c *Cursor) resumePoint(maxRows, before int) {
	st := c.st
	pr := st.profile
	for c.next < len(c.cands) {
		if st.stopped {
			c.done = true
			return
		}
		if maxRows > 0 && c.clampedCount()-before >= maxRows {
			return
		}
		if c.next&1023 == 0 {
			if err := c.m.ctx.Err(); err != nil {
				st.err = err
				c.done = true
				return
			}
		}
		v := c.cands[c.next]
		c.next++
		if pr != nil {
			pr.Regions++
			pr.SearchNodes++
		}
		st.mapping[0] = v
		st.emit()
	}
	c.done = true
}

// clampedCount is the run's solution count with the MaxSolutions overshoot
// clamp run() applies (an NEC bulk count can exceed the cap by one batch).
func (c *Cursor) clampedCount() int {
	n := c.st.count
	if limit := c.m.opts.MaxSolutions; limit > 0 && n > limit {
		n = limit
	}
	return n
}

// Count reports the total number of solutions emitted so far (clamped to
// MaxSolutions, like the run-level APIs).
func (c *Cursor) Count() int {
	if c.st == nil {
		return 0
	}
	return c.clampedCount()
}

func (c *Cursor) err() error {
	if c.st == nil {
		return nil
	}
	return c.st.err
}

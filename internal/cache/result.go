package cache

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/rdf"
)

// Byte-accounting constants: the budget charges an entry for its retained
// term bytes plus fixed overheads for slice headers and bookkeeping, so the
// configured budget tracks real heap retention instead of just payload.
const (
	entryOverhead = 256
	rowOverhead   = 48
	termOverhead  = 16

	// maxEntryRows caps admission: a result set larger than this is served
	// streaming-only and never cached, so one huge scan cannot thrash the
	// whole cache.
	maxEntryRows = 1 << 16

	// deltaRing is how many committed batches of invalidation history the
	// cache keeps. An entry older than the ring's reach cannot prove itself
	// disjoint from everything that happened since, and is dropped as stale.
	deltaRing = 64
)

// RowBytes is the accounted size of one cached row.
func RowBytes(row []rdf.Term) int64 {
	n := int64(rowOverhead)
	for _, t := range row {
		n += int64(len(t)) + termOverhead
	}
	return n
}

// Entry is one materialized result set: the projection and every row, tagged
// with the snapshot epoch it is valid at and the query's footprint. Rows are
// shared with every replay — callers must treat them as immutable.
type Entry struct {
	Vars []string
	Rows [][]rdf.Term

	fp    *Footprint
	epoch uint64
	bytes int64
	key   string
}

// NewEntry builds a cache entry for a result set computed against snapshot
// epoch, reading at most the given footprint.
func NewEntry(vars []string, rows [][]rdf.Term, fp *Footprint, epoch uint64) *Entry {
	e := &Entry{Vars: vars, Rows: rows, fp: fp, epoch: epoch}
	e.bytes = entryOverhead
	for _, v := range vars {
		e.bytes += int64(len(v)) + termOverhead
	}
	for _, r := range rows {
		e.bytes += RowBytes(r)
	}
	return e
}

// Epoch returns the snapshot epoch the entry is currently valid at (it moves
// forward as carry-forward re-tags the entry).
func (e *Entry) Epoch() uint64 { return e.epoch }

// Bytes returns the entry's accounted size.
func (e *Entry) Bytes() int64 { return e.bytes }

// Flight is one in-progress computation of a cache entry. The leader that
// started it publishes the resulting entry (or nil, when the result was not
// admissible) through Finish; followers Wait for it instead of running the
// same search concurrently.
type Flight struct {
	done  chan struct{}
	e     *Entry
	epoch uint64 // the snapshot epoch the leader observed when it started
}

// Wait blocks until the flight's leader finishes or ctx is cancelled. It
// returns the admitted entry, or nil when the leader produced nothing
// cacheable (the follower should then run the query itself, without
// re-entering the flight protocol — a second flight behind a failing leader
// would just serialize failures).
func (fl *Flight) Wait(ctx context.Context) *Entry {
	select {
	case <-fl.done:
		return fl.e
	case <-ctx.Done():
		return nil
	}
}

// Stats is a point-in-time snapshot of the cache's state and counters.
type Stats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	Budget        int64 `json:"budget"`
	Evictions     int64 `json:"evictions"`      // dropped for capacity (LRU)
	CarryForwards int64 `json:"carry_forwards"` // entries re-tagged across a disjoint batch
	Invalidated   int64 `json:"invalidated"`    // dropped by footprint intersection or staleness
}

// Cache is the snapshot-versioned result cache. A nil *Cache is a valid,
// always-missing cache (caching disabled). All methods are safe for
// concurrent use.
//
// Invalidation is lazy: Advance only records the committed batch's (epoch,
// delta footprint) in a bounded ring, and each lookup fast-forwards its
// entry through the recorded deltas — re-tagging it to the current epoch
// when every intervening batch is footprint-disjoint (carry-forward), and
// dropping it the moment one intersects. Writes therefore cost O(1)
// regardless of how many entries are cached.
type Cache struct {
	mu            sync.Mutex
	budget        int64
	maxEntryBytes int64

	used    int64
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flights map[string]*Flight
	deltas  []deltaRec // committed batches, ascending contiguous epochs

	evictions     int64
	carryForwards int64
	invalidated   int64
}

type deltaRec struct {
	epoch uint64
	fp    *Footprint
}

// New builds a cache with the given byte budget. A non-positive budget
// returns nil — the disabled cache.
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	maxEntry := budget / 16
	if maxEntry < 1<<16 {
		maxEntry = 1 << 16
	}
	if maxEntry > budget {
		maxEntry = budget
	}
	return &Cache{
		budget:        budget,
		maxEntryBytes: maxEntry,
		entries:       make(map[string]*list.Element),
		order:         list.New(),
		flights:       make(map[string]*Flight),
	}
}

// Limits returns the admission caps: the maximum accounted bytes and rows of
// one entry. A producer that exceeds either mid-stream can stop collecting.
func (c *Cache) Limits() (maxBytes int64, maxRows int) {
	if c == nil {
		return 0, 0
	}
	return c.maxEntryBytes, maxEntryRows
}

// Advance records that the store committed a batch moving the snapshot to
// epoch, touching the given delta footprint. Epochs must arrive in
// increasing order (the store notifies under its writer lock).
func (c *Cache) Advance(epoch uint64, fp *Footprint) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.deltas); n > 0 && epoch <= c.deltas[n-1].epoch {
		return
	}
	if len(c.deltas) == deltaRing {
		copy(c.deltas, c.deltas[1:])
		c.deltas = c.deltas[:deltaRing-1]
	}
	c.deltas = append(c.deltas, deltaRec{epoch: epoch, fp: fp})
}

// Get looks up key for a request observing snapshot epoch cur. A hit means
// the entry's rows are exactly the query's result set at cur.
func (c *Cache) Get(key string, cur uint64) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key, cur)
}

// GetOrStart is Get plus singleflight admission: on a miss with no
// computation in progress the caller becomes the leader (leader == true) and
// MUST call Finish exactly once with the flight; on a miss behind an
// in-progress computation the returned flight is to be Waited on.
//
// A flight whose leader observed an epoch older than cur is not joined: its
// rows may predate a write the caller has already seen acknowledged. Such a
// caller gets (nil, nil, false) — it runs on its own and may backfill the
// cache through Put.
func (c *Cache) GetOrStart(key string, cur uint64) (e *Entry, fl *Flight, leader bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.lookupLocked(key, cur); ok {
		return e, nil, false
	}
	if fl, ok := c.flights[key]; ok {
		if fl.epoch < cur {
			return nil, nil, false
		}
		return nil, fl, false
	}
	fl = &Flight{done: make(chan struct{}), epoch: cur}
	c.flights[key] = fl
	return nil, fl, true
}

// Finish resolves a flight started by GetOrStart: e non-nil admits the entry
// (subject to the byte budget and admission caps) and hands it to every
// waiting follower; nil releases the followers to run on their own.
func (c *Cache) Finish(key string, fl *Flight, e *Entry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.flights[key] == fl {
		delete(c.flights, key)
	}
	if e != nil && c.admitLocked(key, e) {
		fl.e = e
	}
	c.mu.Unlock()
	close(fl.done)
}

// Put admits an entry outside the flight protocol (a follower that ran solo
// after its leader failed can still backfill the cache). It reports whether
// the entry was admitted.
func (c *Cache) Put(key string, e *Entry) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitLocked(key, e)
}

// Stats returns the cache's counters and occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       len(c.entries),
		Bytes:         c.used,
		Budget:        c.budget,
		Evictions:     c.evictions,
		CarryForwards: c.carryForwards,
		Invalidated:   c.invalidated,
	}
}

// lookupLocked finds key and fast-forwards it to cur through the recorded
// deltas. Every intervening batch disjoint from the entry's footprint
// re-tags the entry (carry-forward); an intersecting batch — or history
// beyond the ring's reach — drops it.
func (c *Cache) lookupLocked(key string, cur uint64) (*Entry, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*Entry)
	if e.epoch >= cur {
		// The entry was computed at (or has been carried to) cur or later; a
		// request that read its epoch just before a concurrent admission may
		// see a newer entry, which is equivalent to arriving a moment later.
		c.order.MoveToFront(el)
		return e, true
	}
	reached := e.epoch
	for _, rec := range c.deltas {
		if rec.epoch <= e.epoch {
			continue
		}
		if rec.epoch != reached+1 {
			// The ring dropped batches between the entry's epoch and this
			// record: the entry cannot prove itself current anymore.
			c.removeLocked(el)
			c.invalidated++
			return nil, false
		}
		if rec.fp.Intersects(e.fp) {
			c.removeLocked(el)
			c.invalidated++
			return nil, false
		}
		reached = rec.epoch
	}
	if reached > e.epoch {
		e.epoch = reached
		c.carryForwards++
	}
	if reached < cur {
		// Batches up to cur exist that Advance has not delivered yet (the
		// notification runs under the store's writer lock, a hair behind the
		// snapshot publication). Miss without dropping: the records may
		// arrive and prove the entry disjoint.
		return nil, false
	}
	c.order.MoveToFront(el)
	return e, true
}

func (c *Cache) admitLocked(key string, e *Entry) bool {
	if e.bytes > c.maxEntryBytes || len(e.Rows) > maxEntryRows {
		return false
	}
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	e.key = key
	c.entries[key] = c.order.PushFront(e)
	c.used += e.bytes
	for c.used > c.budget {
		oldest := c.order.Back()
		if oldest == nil || oldest.Value.(*Entry) == e {
			break
		}
		c.removeLocked(oldest)
		c.evictions++
	}
	return true
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*Entry)
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.used -= e.bytes
}

package main

import (
	"fmt"
	"sync"

	"repro/internal/baseline/bitmat"
	"repro/internal/rdf"
)

// oracle gives the expected row count of every read, computed by the BitMat
// baseline over the same generated triples the server loaded.
type oracle struct {
	bm   *bitmat.Store
	mu   sync.Mutex
	memo map[string]int
	// perBatch is, for lubm-rw, the rows one live synthetic-student batch
	// adds to each query text's answer; 0 for the texts writes cannot affect.
	perBatch map[string]int
}

func newOracle(data []rdf.Triple) *oracle {
	return &oracle{bm: bitmat.Load(data), memo: map[string]int{}}
}

// count returns the text's row count on the base data.
func (o *oracle) count(text string) (int, error) {
	o.mu.Lock()
	n, ok := o.memo[text]
	o.mu.Unlock()
	if ok {
		return n, nil
	}
	n, err := o.bm.Count(text)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	o.mu.Lock()
	o.memo[text] = n
	o.mu.Unlock()
	return n, nil
}

// countAll fills the memo for texts using workers goroutines.
func (o *oracle) countAll(texts []string, workers int) error {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		ferr error
	)
	ch := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if _, err := o.count(t); err != nil {
					mu.Lock()
					ferr = err
					mu.Unlock()
				}
			}
		}()
	}
	for _, t := range texts {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return ferr
}

// measureBatches sets perBatch for texts: it counts each text again on the
// base data plus two student batches and halves the difference. An odd
// difference would mean the batches interact, which breaks the linear
// model the range checks rely on.
func (o *oracle) measureBatches(data []rdf.Triple, texts []string) error {
	withTwo := append(append(append([]rdf.Triple(nil), data...), studentBatch(-1)...), studentBatch(-2)...)
	bm2 := bitmat.Load(withTwo)
	o.perBatch = map[string]int{}
	for _, t := range texts {
		base, err := o.count(t)
		if err != nil {
			return err
		}
		n, err := bm2.Count(t)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if (n-base)%2 != 0 || n < base {
			return fmt.Errorf("oracle: student batches add %d rows to a query, not a multiple of 2", n-base)
		}
		o.perBatch[t] = (n - base) / 2
	}
	return nil
}

// expect returns the row-count range a read may return. live[k] is the
// number of live student batches after the first k writes; a read saw the
// state after some prefix between ackedBefore and sentBefore writes. Reads
// that writes cannot affect get an exact, single-value range.
func (o *oracle) expect(s *sample, live []int) (lo, hi int, err error) {
	base, err := o.count(s.req.text)
	if err != nil {
		return 0, 0, err
	}
	per := o.perBatch[s.req.text]
	if per == 0 || len(live) == 0 {
		return base, base, nil
	}
	minL, maxL := live[s.ackedBefore], live[s.ackedBefore]
	for k := s.ackedBefore; k <= s.sentBefore && k < len(live); k++ {
		minL = min(minL, live[k])
		maxL = max(maxL, live[k])
	}
	return base + per*minL, base + per*maxL, nil
}

// check marks every successful read whose row count falls outside the
// oracle's range as failed. It returns the number of mismatches.
func (o *oracle) check(samples []sample, live []int) (int, error) {
	bad := 0
	for i := range samples {
		s := &samples[i]
		if s.req.write || s.rep.err != nil {
			continue
		}
		lo, hi, err := o.expect(s, live)
		if err != nil {
			return bad, err
		}
		if s.rep.rows < lo || s.rep.rows > hi {
			s.rep.err = fmt.Errorf("%s: %d rows, want %d..%d", s.req.tmpl, s.rep.rows, lo, hi)
			bad++
		}
	}
	return bad, nil
}

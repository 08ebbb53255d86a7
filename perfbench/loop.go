package main

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed request.
type sample struct {
	req     request
	latency time.Duration // closed loop: from send; open loop: from when it was due
	rep     reply
	// lubm-rw reads: writes acknowledged before the read was sent, and
	// writes sent before it finished. The read saw the state after some
	// write prefix between the two.
	ackedBefore, sentBefore int
}

// closedLoop runs conns clients, each sending its next request only after
// the previous one completed, until d has elapsed. Requests come from seq in
// order, whichever client takes them. It returns the samples and the start
// time.
func closedLoop(ctx context.Context, c *client, seq sequence, conns int, d time.Duration) ([]sample, time.Time) {
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				mu.Lock()
				if !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				r := seq.next()
				mu.Unlock()
				t := time.Now()
				rep := c.do(ctx, &r, &buf, "")
				s := sample{req: r, latency: rep.done.Sub(t), rep: rep}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, start
}

// openLoop sends reqs on a fixed schedule, request i due at i/rate after
// the start, each from its own goroutine so a slow response never holds
// back later sends; the client's connection limit queues them instead.
// Each request's latency runs from its due time, so queueing behind a stall
// is charged to the requests that waited; lag records how late each send
// started. Writes are applied one at a time in sequence order: write k goes
// out only once write k-1 has completed.
func openLoop(ctx context.Context, c *client, reqs []request, rate float64) (samples []sample, lag []time.Duration, start time.Time) {
	samples = make([]sample, len(reqs))
	lag = make([]time.Duration, len(reqs))
	// writeDone[k] closes when write k has completed; writeIdx maps a
	// request to its write ordinal.
	writeIdx := make([]int, len(reqs))
	var writeDone []chan struct{}
	for i, r := range reqs {
		if r.write {
			writeIdx[i] = len(writeDone)
			writeDone = append(writeDone, make(chan struct{}))
		}
	}
	var acked, sent atomic.Int64

	start = time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	send := func(i int) {
		var buf bytes.Buffer
		r := reqs[i]
		s := sample{req: r}
		lag[i] = time.Since(due(i))
		if r.write {
			k := writeIdx[i]
			if k > 0 {
				<-writeDone[k-1]
			}
			sent.Add(1)
			s.rep = c.do(ctx, &r, &buf, "")
			acked.Add(1)
			close(writeDone[k])
		} else {
			s.ackedBefore = int(acked.Load())
			s.rep = c.do(ctx, &r, &buf, "")
			s.sentBefore = int(sent.Load())
		}
		s.latency = s.rep.done.Sub(due(i))
		samples[i] = s
	}
	var wg sync.WaitGroup
	for i := range reqs {
		if d := time.Until(due(i)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(i)
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return nil, nil, start
	}
	return samples, lag, start
}

package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's concurrency: two keep-alive connections,
// each sending its next request only after the previous reply, as every
// specd caller in the repository does.
const clients = 2

// outcome is one request's result in the closed loop. Times are
// nanoseconds since the loop started.
type outcome struct {
	start, end int64
	status     int
	body       []byte
	err        error
}

func (o outcome) ok() bool { return o.err == nil && o.status == 200 }

// sliceLen is the length of the slices the window is cut into; the
// per-slice rates' median is robust to a short stall on a shared host.
const sliceLen = time.Second

// closedLoop sends seq in order from `clients` goroutines until d has
// passed, and returns the outcomes of the requests it sent (a prefix of
// seq) and the time the last one finished. It calls tick at the start
// of the window and at the end of every slice. Running out of seq
// before the deadline is an error: the sequence was generated too short.
func closedLoop(ctx context.Context, s *specd, seq []*request, d time.Duration, tick func()) ([]outcome, time.Duration, error) {
	outs := make([]outcome, len(seq))
	var next atomic.Int64
	var exhausted atomic.Bool
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	tick()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; time.Duration(i)*sliceLen <= d; i++ {
			select {
			case <-time.After(time.Until(t0.Add(time.Duration(i) * sliceLen))):
				tick()
			case <-ctx.Done():
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					exhausted.Store(true)
					return
				}
				o := &outs[i]
				o.start = int64(time.Since(t0))
				o.status, o.body, o.err = s.post(ctx, seq[i].path, seq[i].body)
				o.end = int64(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if exhausted.Load() {
		return nil, 0, fmt.Errorf("request sequence of %d exhausted before the %s window ended", len(seq), d)
	}
	n := min(int(next.Load()), len(seq))
	outs = outs[:n]
	var last int64
	for _, o := range outs {
		last = max(last, o.end)
	}
	return outs, time.Duration(last), nil
}

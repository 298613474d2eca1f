package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/sosrnet"
)

// writerPool draws 64 child sets of shape.poolChild fresh elements each.
// Cycling through them keeps the hosted data within the readers' known d.
func writerPool(seed uint64, sh shape) [][]uint64 {
	src := prng.New(seed)
	pool := make([][]uint64, 64)
	for i := range pool {
		cs := make([]uint64, sh.poolChild)
		for j := range cs {
			cs[j] = src.Uint64() % universe
		}
		pool[i] = setutil.Canonical(cs)
	}
	return pool
}

// writer applies a fixed update schedule to one hosted sets-of-sets dataset
// on an open-loop clock: update j is due at start + j·every, whether or not
// update j−1 has returned. The schedule adds pool child sets and removes
// them two updates later, so at most two are hosted beyond base at once.
type writer struct {
	srv   *sosrnet.Server
	name  string
	base  [][]uint64 // hosted parent before the first update
	pool  [][]uint64
	every time.Duration
	// spin marks the post-window probe, which runs with nothing beside it
	// and so can wait for each due time by yielding in a loop (waitUntil).
	// The writer beside the readers sleeps instead: a yielding goroutine
	// queues behind busy ones and would run up to a scheduler quantum late.
	spin bool

	mu    sync.Mutex
	steps int    // updates applied so far
	v0    uint64 // dataset version before the first update
}

// updateRec is one update's timing: lateness is how late the generator
// issued it, latency runs from when it was due to when it returned, and
// call is the time inside UpdateSetsOfSets.
type updateRec struct {
	lateMs, latMs, callMs float64
	err                   error
}

func newWriter(srv *sosrnet.Server, name string, base, pool [][]uint64, every time.Duration, spin bool) *writer {
	return &writer{srv: srv, name: name, base: base, pool: pool, every: every, spin: spin}
}

// step returns the pool item update j touches and whether it adds it.
// Items 0 and 1 are added first; after that even updates remove the oldest
// live item and odd ones add the next.
func step(j int) (item int, add bool) {
	switch {
	case j < 2:
		return j, true
	case j%2 == 0:
		return (j - 2) / 2, false
	default:
		return (j + 1) / 2, true
	}
}

// update returns the add and remove lists of update j.
func (w *writer) update(j int) (add, remove [][]uint64) {
	item, isAdd := step(j)
	cs := [][]uint64{w.pool[item%len(w.pool)]}
	if isAdd {
		return cs, nil
	}
	return nil, cs
}

// installed returns the hosted parent after k updates, sorted.
func (w *writer) installed(k int) [][]uint64 {
	lo, hi := 0, 0
	for j := 0; j < k; j++ {
		if _, add := step(j); add {
			hi++
		} else {
			lo++
		}
	}
	out := append([][]uint64(nil), w.base...)
	for i := lo; i < hi; i++ {
		out = append(out, w.pool[i%len(w.pool)])
	}
	return sortedParents(out)
}

// checkInstalled accepts a recovered parent equal to a state the writer
// installed while the session ran: any version from before to after.
func (w *writer) checkInstalled(got [][]uint64, before, after uint64) error {
	w.mu.Lock()
	v0, started := w.v0, w.steps > 0
	w.mu.Unlock()
	if !started {
		return checkParents(sortedParents(w.base), got)
	}
	lo, hi := int(before)-int(v0), int(after)-int(v0)
	lo = max(lo, 0)
	for k := lo; k <= hi; k++ {
		if checkParents(w.installed(k), got) == nil {
			return nil
		}
	}
	return &checkError{"sos_result", fmt.Sprintf("recovered parent matches no state installed between versions %d and %d", before, after)}
}

// run issues updates on the open-loop clock from start until n have been
// issued (n ≤ 0: no limit) or stop closes. Each update is wrapped in a span
// when tr is non-nil.
func (w *writer) run(tr *spans, start time.Time, n int, stop <-chan struct{}) []updateRec {
	var recs []updateRec
	for i := 0; n <= 0 || i < n; i++ {
		due := start.Add(time.Duration(i) * w.every)
		if w.spin {
			waitUntil(due)
		} else {
			t := time.NewTimer(time.Until(due))
			select {
			case <-stop:
				t.Stop()
				return recs
			case <-t.C:
			}
		}
		w.mu.Lock()
		j := w.steps
		if j == 0 {
			w.v0, _ = w.srv.DatasetVersion(w.name)
		}
		w.mu.Unlock()
		add, remove := w.update(j)
		sp := tr.root("bench/update")
		sp.SetInt("step", int64(j))
		t0 := time.Now()
		err := w.srv.UpdateSetsOfSets(w.name, add, remove)
		t1 := time.Now()
		sp.Fail(err)
		sp.Finish()
		if err == nil {
			w.mu.Lock()
			w.steps++
			w.mu.Unlock()
		}
		recs = append(recs, updateRec{
			lateMs: ms(t0.Sub(due)), latMs: ms(t1.Sub(due)), callMs: ms(t1.Sub(t0)), err: err,
		})
	}
	return recs
}

// spinWindow is how long before a due time the generator stops sleeping and
// yields in a loop instead: waking from a sleep on an idle virtual CPU is
// late by up to a millisecond, which would otherwise dominate the lateness
// of sub-millisecond updates.
const spinWindow = time.Millisecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

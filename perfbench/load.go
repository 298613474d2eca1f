package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sosr/internal/enccache"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/sosrnet"
)

// sessionRec is one session as its reader saw it.
type sessionRec struct {
	kind     string
	ms       float64 // call to return; the check runs after
	ok       bool    // returned without error and passed every check
	returned bool    // the last try returned without error (NetStats below are its)
	wire     int64   // WireIn + WireOut
	proto    int64   // Protocol.TotalBytes
	overhead int64
	attempts int  // the protocol's attempts, plus one per failed try
	retried  bool // the first try returned an error
	traceID  obs.TraceID
}

// windowStats is one measured window.
type windowStats struct {
	sessions []sessionRec
	updates  []updateRec
	elapsed  time.Duration
	cpu      time.Duration
	srvCache [2]enccache.Stats // before, after
	cliCache [2]enccache.Stats
	stages   [2]map[string]histSnap
	server   [2]serverCounts
}

// histSnap is one sosr_stage_seconds series' running totals.
type histSnap struct {
	sum   float64
	count uint64
}

var stageNames = []string{"hello", "encode", "transfer", "done"}

func (r *rig) stageSnap() map[string]histSnap {
	out := make(map[string]histSnap, len(stageNames))
	for _, st := range stageNames {
		if h := r.srv.Registry().GetHistogram("sosr_stage_seconds", st); h != nil {
			out[st] = histSnap{sum: h.Sum(), count: h.Count()}
		}
	}
	return out
}

// serverCounts are the server's own byte and session counters, summed over
// their labels: the account of every connection kept at its other end.
type serverCounts struct {
	wire   uint64 // sosr_wire_bytes_total
	proto  uint64 // sosr_protocol_bytes_total
	ok     uint64 // sosr_sessions_total{status="ok"}
	failed uint64 // sosr_sessions_total{status="error" or "client_failed"}
}

func (r *rig) serverCounts() serverCounts {
	var buf bytes.Buffer
	_ = r.srv.Registry().WriteProm(&buf)
	var c serverCounts
	for _, line := range strings.Split(buf.String(), "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if !ok {
			continue
		}
		labels, val, ok := strings.Cut(rest, "} ")
		v, err := strconv.ParseUint(val, 10, 64)
		if !ok || err != nil {
			continue
		}
		switch {
		case name == "sosr_wire_bytes_total":
			c.wire += v
		case name == "sosr_protocol_bytes_total":
			c.proto += v
		case name == "sosr_sessions_total" && strings.Contains(labels, `status="ok"`):
			c.ok += v
		case name == "sosr_sessions_total":
			c.failed += v
		}
	}
	return c
}

func (r *rig) clientCache() enccache.Stats {
	var t enccache.Stats
	for _, c := range r.readers {
		s := c.CacheStats()
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Shared += s.Shared
	}
	return t
}

// dispenser hands out session indices to the readers. After the deadline
// it stops at the next whole rotation, so every window covers the same
// session mix.
type dispenser struct {
	mu       sync.Mutex
	next     int
	round    int
	deadline time.Time
	stopped  bool
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped || (d.next%d.round == 0 && !time.Now().Before(d.deadline)) {
		d.stopped = true
		return 0, false
	}
	i := d.next
	d.next++
	return i, true
}

// settle waits (up to two seconds) until the server has finished every
// session issued so far: a client returns before the server reads its
// closing frame, and stage counters and spans land only then.
func (r *rig) settle() {
	deadline := time.Now().Add(2 * time.Second)
	for r.stageSnap()["done"].count < uint64(r.issued.Load()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// window runs the readers closed-loop (and the writer, if any, open-loop)
// for dur. Failures are recorded in fails by check name. sp, when non-nil,
// records a span tree per session.
func (r *rig) window(dur time.Duration, sp *spans, fails *failures) *windowStats {
	ws := &windowStats{}
	r.settle()
	ws.srvCache[0], ws.cliCache[0], ws.stages[0] = r.srv.CacheStats(), r.clientCache(), r.stageSnap()
	ws.server[0] = r.serverCounts()
	cpu0 := cpuTime()
	start := time.Now()
	disp := &dispenser{round: r.round, deadline: start.Add(dur)}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range r.readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := disp.take()
				if !ok {
					return
				}
				rec := r.session(i, c, sp, fails)
				mu.Lock()
				ws.sessions = append(ws.sessions, rec)
				mu.Unlock()
			}
		}()
	}
	// The writer runs until the last reader is done, not until the deadline:
	// a session that ran with no updates due could let the server keep a live
	// digest it would otherwise drop. stop closes when the last reader
	// returns; the writer owns ws.updates until it has returned.
	stop := make(chan struct{})
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		if r.writer != nil {
			ws.updates = r.writer.run(sp, start, 0, stop)
		}
	}()
	wg.Wait()
	ws.elapsed = time.Since(start)
	close(stop)
	<-wrote
	r.settle()
	ws.cpu = cpuTime() - cpu0
	ws.srvCache[1], ws.cliCache[1], ws.stages[1] = r.srv.CacheStats(), r.clientCache(), r.stageSnap()
	ws.server[1] = r.serverCounts()
	checkAccounting(ws, fails)
	for _, u := range ws.updates {
		if u.err != nil {
			fails.add("update_error", u.err.Error())
		}
	}
	return ws
}

// checkAccounting compares the clients' account of a window with the
// server's counters. A try that returned counted its bytes on the client; a
// try that failed did not. So the server must have seen exactly the tries
// the clients saw return and fail, and its byte totals must exceed the
// clients' sums exactly when some try failed.
func checkAccounting(ws *windowStats, fails *failures) {
	var wire, proto int64
	var returned, failed uint64
	for _, s := range ws.sessions {
		if s.returned {
			returned++
			wire += s.wire
			proto += s.proto
		}
		failed += uint64(s.failedTries())
	}
	s0, s1 := ws.server[0], ws.server[1]
	srvOK, srvFailed := s1.ok-s0.ok, s1.failed-s0.failed
	if srvOK != returned || srvFailed != failed {
		fails.add("wire_accounting", fmt.Sprintf("server saw %d returned and %d failed tries, clients %d and %d",
			srvOK, srvFailed, returned, failed))
		return
	}
	wasteWire, wasteProto := int64(s1.wire-s0.wire)-wire, int64(s1.proto-s0.proto)-proto
	if (failed == 0 && (wasteWire != 0 || wasteProto != 0)) || (failed > 0 && (wasteWire <= 0 || wasteProto < 0)) {
		fails.add("wire_accounting", fmt.Sprintf("server moved %d wire and %d protocol bytes, clients %d and %d, over %d failed tries",
			s1.wire-s0.wire, s1.proto-s0.proto, wire, proto, failed))
	}
}

// failedTries is how many of a session's tries returned an error.
func (s sessionRec) failedTries() int {
	n := 0
	if s.retried {
		n++
	}
	if !s.returned {
		n++
	}
	return n
}

// retryLimit is how many sessions of one kind may be retried after a decode
// failure before the run counts as failed: 2% of the kind's sessions plus
// four. The one-shot set, graph and forest protocols fail to decode for
// 0.3–0.7% of seeds; the sets-of-sets protocols retry inside the session.
func retryLimit(sessions int) int { return sessions/50 + 4 }

// checkRetries applies retryLimit to every kind over the given windows.
func checkRetries(fails *failures, windows ...*windowStats) {
	n, retried := map[string]int{}, map[string]int{}
	for _, ws := range windows {
		for _, s := range ws.sessions {
			n[s.kind]++
			if s.retried {
				retried[s.kind]++
			}
		}
	}
	for k, c := range retried {
		if c > retryLimit(n[k]) {
			fails.add("retry_rate", fmt.Sprintf("%s: %d of %d sessions retried, limit %d", k, c, n[k], retryLimit(n[k])))
		}
	}
}

// session runs and checks session i on client c. A session that returns
// an error is retried once with fresh coins derived from its seed: only the
// sets-of-sets protocols amplify their success probability themselves
// (§3.2), and the set, graph and forest sessions fail to decode for a small
// share of seeds. The retry is timed as part of the session and adds one to
// its attempts; checkRetries bounds how often it may happen, and the failed
// try's bytes count in the server's totals. A session whose retry fails too,
// or whose result fails a check, is a failed session.
func (r *rig) session(i int, c *sosrnet.Client, sp *spans, fails *failures) sessionRec {
	j := r.job(i)
	r.issued.Add(1)
	rec := sessionRec{kind: j.kind}
	root := sp.root("bench/session")
	root.SetInt("sid", int64(i))
	root.SetStr("kind", j.kind)
	rec.traceID = root.TraceID()
	call := root.Child("bench/call")
	ctx := obs.ContextWithSpan(context.Background(), call)
	t0 := time.Now()
	ns, res, err := j.call(ctx, c, j.seed)
	if err != nil {
		rec.retried = true
		r.issued.Add(1)
		call.SetStr("retried_after", err.Error())
		ns, res, err = j.call(ctx, c, hashing.NewCoins(j.seed).Seed("retry", 0))
	}
	rec.ms = ms(time.Since(t0))
	call.Fail(err)
	call.Finish()
	rec.returned = err == nil
	if rec.returned {
		rec.wire, rec.proto, rec.overhead = ns.WireIn+ns.WireOut, int64(ns.Protocol.TotalBytes), ns.Overhead
		rec.attempts = ns.Attempts
	}
	rec.attempts += rec.failedTries()
	if err == nil {
		vsp := root.Child("bench/verify")
		err = j.check(res)
		vsp.Fail(err)
		vsp.Finish()
	}
	root.Fail(err)
	root.Finish()
	if err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			fails.add(ce.check, ce.detail)
		} else {
			fails.add("session_error", j.kind+": "+err.Error())
		}
		return rec
	}
	rec.ok = true
	return rec
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// failures counts failed checks by name, keeping the first detail of each.
type failures struct {
	mu     sync.Mutex
	counts map[string]int
	first  map[string]string
}

func (f *failures) add(check, detail string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counts == nil {
		f.counts, f.first = map[string]int{}, map[string]string{}
	}
	if f.counts[check] == 0 {
		f.first[check] = detail
	}
	f.counts[check]++
}

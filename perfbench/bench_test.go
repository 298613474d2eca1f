package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"sosr"
	"sosr/sosrnet"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyOpts(t *testing.T, trace bool) runOpts {
	return runOpts{seed: 7, window: time.Second, trace: trace, scratch: t.TempDir(), shape: tinyShape}
}

// A tiny run of every workload, untraced and traced, passes its checks and
// emits exactly the metrics BENCHMARK.json names, with their units.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		wl := workloadByName(w.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			res, err := runWorkload(wl, tinyOpts(t, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// dropChild removes one child set from a recovered parent.
func dropChild(res any) {
	switch v := res.(type) {
	case *sosr.Result:
		v.Recovered = v.Recovered[1:]
	case versionedResult:
		v.res.Recovered = v.res.Recovered[1:]
	}
}

// A recovered parent with one child set dropped is a failed session, on the
// fixed-data check of hot-sync and the installed-state check of
// mutating-sync alike.
func TestTamperedResultCountsAsFailed(t *testing.T) {
	for _, name := range []string{"hot-sync", "mutating-sync"} {
		r, err := workloadByName(name).build(tinyOpts(t, false), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.writer != nil {
			r.writer.run(nil, time.Now(), 3, nil)
		}
		orig := r.job
		r.job = func(i int) job {
			j := orig(i)
			call := j.call
			j.call = func(ctx context.Context, c *sosrnet.Client, seed uint64) (*sosrnet.NetStats, any, error) {
				ns, res, err := call(ctx, c, seed)
				if err == nil {
					dropChild(res)
				}
				return ns, res, err
			}
			return j
		}
		fails := &failures{}
		rec := r.session(0, r.readers[0], nil, fails)
		r.close()
		if rec.ok || fails.counts["sos_result"] != 1 {
			t.Errorf("%s: tampered session ok=%v, failures %v", name, rec.ok, fails.counts)
		}
	}
}

// The writer's model of the hosted data after k updates holds at most two
// pool child sets beyond the base, so the readers' known d always covers it.
func TestWriterScheduleStaysWithinTwoPoolSets(t *testing.T) {
	w := &writer{base: [][]uint64{{1, 2}}, pool: writerPool(1, tinyShape)}
	for k := 0; k < 200; k++ {
		if extra := len(w.installed(k)) - len(w.base); extra < 0 || extra > 2 || (k > 0 && extra == 0) {
			t.Fatalf("after %d updates %d pool child sets are hosted", k, extra)
		}
	}
}

// The window's byte account must agree with the server's counters: equal
// when no try failed, larger on the server by the failed tries' bytes when
// some did, and a try the server did not see is a mismatch either way.
func TestAccountingComparesWithServerCounters(t *testing.T) {
	ok := sessionRec{returned: true, wire: 1000, proto: 900}
	retried := sessionRec{returned: true, retried: true, wire: 500, proto: 400}
	srv := func(wire, proto, okN, failed uint64) [2]serverCounts {
		return [2]serverCounts{{wire: 7, proto: 5, ok: 3, failed: 1},
			{wire: 7 + wire, proto: 5 + proto, ok: 3 + okN, failed: 1 + failed}}
	}
	cases := []struct {
		name     string
		sessions []sessionRec
		server   [2]serverCounts
		wantFail bool
	}{
		{"equal", []sessionRec{ok, ok}, srv(2000, 1800, 2, 0), false},
		{"byte off", []sessionRec{ok, ok}, srv(2001, 1800, 2, 0), true},
		{"protocol off", []sessionRec{ok, ok}, srv(2000, 1799, 2, 0), true},
		{"retry wasted bytes", []sessionRec{ok, retried}, srv(1800, 1500, 2, 1), false},
		{"retry moved nothing", []sessionRec{ok, retried}, srv(1500, 1300, 2, 1), true},
		{"failed try unseen", []sessionRec{ok, retried}, srv(1800, 1500, 2, 0), true},
	}
	for _, c := range cases {
		fails := &failures{}
		checkAccounting(&windowStats{sessions: c.sessions, server: c.server}, fails)
		if got := fails.counts["wire_accounting"] > 0; got != c.wantFail {
			t.Errorf("%s: wire_accounting failed=%v, want %v", c.name, got, c.wantFail)
		}
	}
}

// More retries of one kind than retryLimit allows fail the run.
func TestRetryRateIsBounded(t *testing.T) {
	ws := &windowStats{}
	for i := 0; i < 500; i++ {
		ws.sessions = append(ws.sessions, sessionRec{kind: "graph/degree", retried: i < retryLimit(500)})
	}
	fails := &failures{}
	checkRetries(fails, ws)
	if fails.counts["retry_rate"] != 0 {
		t.Fatalf("%d retries of 500 failed the run", retryLimit(500))
	}
	ws.sessions[len(ws.sessions)-1].retried = true
	checkRetries(fails, ws)
	if fails.counts["retry_rate"] != 1 {
		t.Fatalf("%d retries of 500 passed", retryLimit(500)+1)
	}
}

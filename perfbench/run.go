package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Every metric the benchmark reports, with its unit. endToEnd are printed
// by the untraced pass, perLayer by the traced pass.
var endToEnd = []struct{ name, unit string }{
	{"sessions_per_s", "1/s"},
	{"session_p50_ms", "ms"},
	{"session_tail_ms", "ms"},
	{"wire_bytes_per_session", "bytes"},
	{"cpu_ms_per_session", "ms"},
	{"update_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"sosrnet.stage_hello_ms", "ms"},
	{"sosrnet.stage_encode_ms", "ms"},
	{"sosrnet.stage_transfer_ms", "ms"},
	{"sosrnet.stage_done_ms", "ms"},
	{"sosrnet.overhead_bytes_per_session", "bytes"},
	{"sosrnet.attempts_per_session", "count"},
	{"sosrnet.update_ms", "ms"},
	// update_tail_ms is end-to-end in kind, but its run-to-run spread on a
	// shared 2-vCPU machine exceeds any bound an end-to-end metric may have,
	// so only the traced pass reports it.
	{"update_tail_ms", "ms"},
	{"enccache.hit_ratio", "frac"},
	{"enccache.misses_per_session", "count"},
	{"enccache.client_hit_ratio", "frac"},
	{"core.alice_msg_ms.naive", "ms"},
	{"core.alice_msg_ms.nested", "ms"},
	{"core.alice_msg_ms.cascade", "ms"},
	{"core.apply_msg_ms.naive", "ms"},
	{"core.apply_msg_ms.nested", "ms"},
	{"core.apply_msg_ms.cascade", "ms"},
	{"core.bob_sketch_ms.naive", "ms"},
	{"core.bob_sketch_ms.nested", "ms"},
	{"core.bob_sketch_ms.cascade", "ms"},
	{"core.apply_cached_ms.naive", "ms"},
	{"core.apply_cached_ms.nested", "ms"},
	{"core.apply_cached_ms.cascade", "ms"},
	{"core.multiround_ms", "ms"},
	{"core.incremental_build_ms", "ms"},
	{"core.incremental_patch_us", "us"},
	{"core.snapshot_us", "us"},
	{"core.peel_iterations", "count"},
	{"setrecon.build_ms", "ms"},
	{"setrecon.apply_ms", "ms"},
	{"graphrecon.alice_ms", "ms"},
	{"graphrecon.apply_ms", "ms"},
	{"forest.alice_ms", "ms"},
	{"forest.apply_ms", "ms"},
	{"store.append_us", "us"},
	{"store.wal_bytes_per_update", "bytes"},
	{"wire.roundtrip_ms", "ms"},
	{"bench.residual_ms", "ms"},
	{"bench.writer_lateness_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.failed_frac", "frac"},
}

func metricUnit(name string) string {
	for _, m := range append(endToEnd, perLayer...) {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// setupRuns is how many times the untraced pass sets the workload up, each
// from a collected heap; it reports the median and measures the last rig.
const setupRuns = 5

// updateTail is the update tail percentile. A probe burst holds 400 or 500
// updates and a mutating-sync window about 1250, so p95 leaves at least ten
// beyond it.
const updateTail = 0.95

// Every pass runs its load unmeasured for window/rampDiv first, so the
// caches reach the state they keep for the rest of the run: cold-mix fills
// the server's and clients' caches with payloads nothing reuses, and only
// then starts evicting.
const rampDiv = 4

func runWorkload(wl *workloadDef, o runOpts, out io.Writer) (*result, error) {
	printHost(out, wl, o)
	fails := &failures{}
	var res *result
	var err error
	if o.trace {
		res, err = tracedPass(wl, o, out, fails)
	} else {
		res, err = endToEndPass(wl, o, out, fails)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(fails.counts))
	for n := range fails.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "FAILED %s: %d (first: %s)\n", n, fails.counts[n], fails.first[n])
		res.Failed += fails.counts[n]
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = len(names) == 0
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			fmt.Fprintf(out, "FAILED metric %s is not finite\n", n)
			res.Metrics[n] = metric{Value: 0, Unit: m.Unit}
		}
	}
	return res, nil
}

func endToEndPass(wl *workloadDef, o runOpts, out io.Writer, fails *failures) (*result, error) {
	var setups []float64
	var r *rig
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		rr, err := wl.build(o, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			rr.close()
		} else {
			r = rr
		}
	}
	defer r.close()
	ramp := r.window(o.window/rampDiv, nil, fails)
	attempted := len(ramp.sessions) + len(ramp.updates)
	// The window runs as equal slices back to back. A workload with a probe
	// runs a burst of probe updates after each slice, so its updates are
	// spread over the run like its sessions. Only the first slice starts
	// from a collected heap: a collection forced between slices would take
	// the collector's work out of the measured time.
	runtime.GC()
	var slices []*windowStats
	var updates [][]updateRec
	for i := 0; i < wl.slices; i++ {
		ws := r.window(o.window/time.Duration(wl.slices), nil, fails)
		u := ws.updates
		if r.probe != nil {
			u = r.runProbe(nil, o.shape.probeUpdates/wl.slices, fails)
		}
		slices, updates = append(slices, ws), append(updates, u)
		attempted += len(ws.sessions) + len(u)
	}
	checkRetries(fails, append([]*windowStats{ramp}, slices...)...)

	var rate, p50, tail, cpu, up50 []float64
	var wire uint64
	var sessions, verified int
	minBeyond := math.MaxInt
	var late []float64
	for i, ws := range slices {
		ok, lat := sessionSummary(ws)
		sessions, verified = sessions+len(ws.sessions), verified+ok
		// The server's count includes the bytes of tries that failed and
		// were retried, which no client NetStats carries.
		wire += ws.server[1].wire - ws.server[0].wire
		rate, p50, tail = append(rate, float64(ok)/ws.elapsed.Seconds()), append(p50, percentile(lat, 0.5)), append(tail, percentile(lat, wl.tail))
		cpu = append(cpu, ms(ws.cpu)/float64(ok))
		minBeyond = min(minBeyond, beyond(len(lat), wl.tail))
		ulat := updateLatencies(updates[i])
		up50 = append(up50, percentile(ulat, 0.5))
		for _, u := range updates[i] {
			late = append(late, u.lateMs)
		}
		fmt.Fprintf(out, "slice %d: %d sessions in %.3fs, %.2f/s, p50 %.3f ms, p%.0f %.3f ms (%d beyond), cpu %.3f ms/session; "+
			"%d updates, p50 %.3f ms, p%.0f %.3f ms (%d beyond)\n",
			i, len(lat), ws.elapsed.Seconds(), rate[i], p50[i], 100*wl.tail, tail[i], beyond(len(lat), wl.tail), cpu[i],
			len(ulat), up50[i], 100*updateTail, percentile(ulat, updateTail), beyond(len(ulat), updateTail))
	}
	if minBeyond < 10 {
		fmt.Fprintf(out, "warning: a slice has only %d sessions beyond p%.0f, fewer than ten\n", minBeyond, 100*wl.tail)
	}

	m := map[string]metric{}
	put := func(name string, v float64) { m[name] = metric{Value: v, Unit: metricUnit(name)} }
	put("sessions_per_s", median(rate))
	put("session_p50_ms", median(p50))
	put("session_tail_ms", median(tail))
	put("cpu_ms_per_session", median(cpu))
	put("wire_bytes_per_session", float64(wire)/float64(verified))
	put("update_p50_ms", median(up50))
	put("setup_s", median(setups))
	put("peak_rss_mb", peakRSSMB())

	fmt.Fprintf(out, "window: %d sessions (%d verified) in %d slices; metrics are slice medians; "+
		"generator late p50 %.3f max %.3f ms; setups: %v s\n",
		sessions, verified, wl.slices, percentile(late, 0.5), percentile(late, 1), roundAll(setups))
	printKinds(out, slices...)
	return &result{Attempted: attempted, Metrics: m}, nil
}

// runProbe issues n updates of the workload's probe on its clock.
func (r *rig) runProbe(tr *spans, n int, fails *failures) []updateRec {
	recs := r.probe.run(tr, time.Now(), n, nil)
	for _, u := range recs {
		if u.err != nil {
			fails.add("update_error", u.err.Error())
		}
	}
	return recs
}

// sessionSummary counts verified sessions and returns every session's
// latency, failures as +Inf (a failed session misses any latency limit).
func sessionSummary(ws *windowStats) (ok int, lat []float64) {
	for _, s := range ws.sessions {
		if s.ok {
			ok++
			lat = append(lat, s.ms)
		} else {
			lat = append(lat, math.Inf(1))
		}
	}
	return ok, lat
}

func updateLatencies(recs []updateRec) []float64 {
	var out []float64
	for _, u := range recs {
		if u.err != nil {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, u.latMs)
		}
	}
	return out
}

// percentile is the nearest-rank q-quantile.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// beyond is how many of n samples lie past the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// printKinds prints per-kind session counts, medians and mean wire bytes.
func printKinds(out io.Writer, windows ...*windowStats) {
	byKind := map[string][]sessionRec{}
	var kinds []string
	for _, ws := range windows {
		for _, s := range ws.sessions {
			if _, seen := byKind[s.kind]; !seen {
				kinds = append(kinds, s.kind)
			}
			byKind[s.kind] = append(byKind[s.kind], s)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		var lat []float64
		var wire int64
		attempts, retried := 0, 0
		for _, s := range byKind[k] {
			lat = append(lat, s.ms)
			wire += s.wire
			attempts += s.attempts
			if s.retried {
				retried++
			}
		}
		fmt.Fprintf(out, "  kind %-22s n=%-5d p50=%9.3f ms  wire=%9.0f bytes  attempts=%-5d retried=%d\n",
			k, len(lat), percentile(lat, 0.5), float64(wire)/float64(len(lat)), attempts, retried)
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// printHost records the run's settings and the machine it ran on.
func printHost(out io.Writer, wl *workloadDef, o runOpts) {
	info := map[string]any{
		"workload":   wl.name,
		"seed":       o.seed,
		"seconds":    o.window.Seconds(),
		"trace":      o.trace,
		"link":       "loopback",
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest("."),
	}
	b, _ := json.Marshal(info)
	fmt.Fprintf(out, "host %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and go.mod file under root, so a
// result from a tree without VCS data still names the code it measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func tracedPass(wl *workloadDef, o runOpts, out io.Writer, fails *failures) (*result, error) {
	sp := newSpans()
	r, err := wl.build(o, sp)
	if err != nil {
		return nil, err
	}
	defer r.close()
	ramp := r.window(o.window/rampDiv, nil, fails)
	// Both halves start from a collected heap, so they compare like for like.
	runtime.GC()
	plain := r.window(o.window/2, nil, fails)
	runtime.GC()
	traced := r.window(o.window/2, sp, fails)
	checkRetries(fails, ramp, plain, traced)
	updates := traced.updates
	if r.probe != nil {
		updates = r.runProbe(sp, o.shape.probeUpdates, fails)
	}
	layers, replayed, err := replayLayers(r.layers, o, sp, fails)
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	for name, v := range layers {
		m[name] = v
	}
	put := func(name string, v float64) { m[name] = metric{Value: v, Unit: metricUnit(name)} }
	stages := traced.stageDelta()
	for _, st := range stageNames {
		h := stages[st]
		put("sosrnet.stage_"+st+"_ms", 1000*h.sum/float64(max(h.count, 1)))
	}
	ok, lat := sessionSummary(traced)
	var overhead, attempts float64
	for _, s := range traced.sessions {
		if s.ok {
			overhead += float64(s.overhead)
		}
		attempts += float64(s.attempts)
	}
	put("sosrnet.overhead_bytes_per_session", overhead/float64(ok))
	put("sosrnet.attempts_per_session", attempts/float64(len(traced.sessions)))
	var call, late []float64
	for _, u := range updates {
		call, late = append(call, u.callMs), append(late, u.lateMs)
	}
	put("sosrnet.update_ms", median(call))
	put("update_tail_ms", percentile(updateLatencies(updates), updateTail))
	put("bench.writer_lateness_ms", mean(late))

	sc0, sc1 := traced.srvCache[0], traced.srvCache[1]
	hits, lookups := sc1.Hits-sc0.Hits, (sc1.Hits+sc1.Misses+sc1.Shared)-(sc0.Hits+sc0.Misses+sc0.Shared)
	put("enccache.hit_ratio", ratio(hits, lookups))
	put("enccache.misses_per_session", float64(sc1.Misses-sc0.Misses)/float64(len(traced.sessions)))
	cc0, cc1 := traced.cliCache[0], traced.cliCache[1]
	chits, clookups := cc1.Hits-cc0.Hits, (cc1.Hits+cc1.Misses+cc1.Shared)-(cc0.Hits+cc0.Misses+cc0.Shared)
	put("enccache.client_hit_ratio", ratio(chits, clookups))

	b := sp.budget(traced, lat, layers["wire.roundtrip_ms"].Value)
	put("bench.residual_ms", b.residual)
	plainOK, _ := sessionSummary(plain)
	plainRate, tracedRate := float64(plainOK)/plain.elapsed.Seconds(), float64(ok)/traced.elapsed.Seconds()
	put("bench.trace_overhead_frac", 1-tracedRate/plainRate)

	attempted := len(ramp.sessions) + len(ramp.updates) + len(plain.sessions) + len(plain.updates) +
		len(traced.sessions) + len(updates) + replayed
	failed := 0
	for _, n := range fails.counts {
		failed += n
	}
	put("bench.failed_frac", float64(failed)/float64(attempted))

	fmt.Fprintf(out, "untraced window: %d sessions in %.3fs (%.2f/s); traced window: %d sessions in %.3fs (%.2f/s)\n",
		len(plain.sessions), plain.elapsed.Seconds(), plainRate, len(traced.sessions), traced.elapsed.Seconds(), tracedRate)
	fmt.Fprintf(out, "enccache.hit_ratio = %d hits / %d server lookups; enccache.client_hit_ratio = %d hits / %d client lookups; misses = %d over %d sessions\n",
		hits, lookups, chits, clookups, sc1.Misses-sc0.Misses, len(traced.sessions))
	for _, st := range stageNames {
		h := stages[st]
		fmt.Fprintf(out, "sosrnet.stage_%s_ms = %.6f s / %d observations in the traced window\n", st, h.sum, h.count)
	}
	fmt.Fprintf(out, "updates: %d timed (sosrnet.update_ms, bench.writer_lateness_ms)\n", len(updates))
	printKinds(out, traced)
	b.print(out, wl.name)

	path := filepath.Join(o.scratch, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, o.seed))
	if err := sp.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	return &result{Attempted: attempted, Metrics: m}, nil
}

// stageDelta is each sosr_stage_seconds series over the window alone.
func (ws *windowStats) stageDelta() map[string]histSnap {
	out := make(map[string]histSnap, len(stageNames))
	for _, st := range stageNames {
		a, b := ws.stages[0][st], ws.stages[1][st]
		out[st] = histSnap{sum: b.sum - a.sum, count: b.count - a.count}
	}
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

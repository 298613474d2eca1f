package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"sosr/internal/obs"
)

// spans records the traced pass. It is the program's own obs.Tracer with
// sampling off, so servers record spans only for sessions whose hello
// carries a benchmark span; the benchmark opens every root itself through
// Join, numbering traces 1, 2, 3, … so the run can dump them all at the end.
type spans struct {
	tr   *obs.Tracer
	last atomic.Uint64
}

func newSpans() *spans {
	return &spans{tr: &obs.Tracer{MaxTraces: 1 << 20, MaxSpans: 4096}}
}

// root opens a new trace; nil (and free) on a nil receiver.
func (s *spans) root(name string) *obs.Span {
	if s == nil {
		return nil
	}
	return s.tr.Join(obs.TraceID(s.last.Add(1)), 0, name)
}

func (s *spans) tracer() *obs.Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// write dumps every recorded trace, one JSON span tree per line: each span
// has its name, start, duration and parent, and its trace ID is the
// session (or update, or replayed call) it belongs to.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for id := uint64(1); id <= s.last.Load(); id++ {
		if d := s.tr.Get(obs.TraceID(id)); d != nil {
			if err := enc.Encode(d); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// budget splits the traced window's session p50 into layer parts. The
// hello, estimate, encode and decode parts are means over the sessions with
// latency from p40 to p60 of the server's and client's spans that joined
// each session's trace, so they describe a session of about p50 latency;
// the wire part is the replayed wire.roundtrip_ms.
type budget struct {
	sessions                              int
	hello, estimate, encode, decode, wire float64
	p50, residual                         float64
}

func (s *spans) budget(ws *windowStats, lat []float64, wireMs float64) budget {
	b := budget{p50: percentile(lat, 0.5), wire: wireMs}
	lo, hi := percentile(lat, 0.4), percentile(lat, 0.6)
	for _, rec := range ws.sessions {
		if !rec.ok || rec.ms < lo || rec.ms > hi {
			continue
		}
		d := s.tr.Get(rec.traceID)
		if d == nil {
			continue
		}
		var hello, est, enc, dec float64
		walk(d.Roots, func(sd *obs.SpanDump) {
			switch sd.Name {
			case "hello":
				hello += sd.Ms
			case "estimate":
				est += sd.Ms
			case "encode":
				enc += sd.Ms
			case "decode":
				dec += sd.Ms
			}
		})
		b.sessions++
		b.hello += hello
		b.estimate += est
		b.encode += enc
		b.decode += dec
	}
	if b.sessions > 0 {
		n := float64(b.sessions)
		b.hello, b.estimate, b.encode, b.decode = b.hello/n, b.estimate/n, b.encode/n, b.decode/n
	}
	b.residual = b.p50 - (b.hello + b.estimate + b.encode + b.decode + b.wire)
	return b
}

func walk(sds []*obs.SpanDump, f func(*obs.SpanDump)) {
	for _, sd := range sds {
		f(sd)
		walk(sd.Children, f)
	}
}

// print writes the per-layer table: the parts plus the residual equal the
// session p50.
func (b budget) print(out io.Writer, workload string) {
	fmt.Fprintf(out, "per-layer session budget, %s (ms; means of joined spans over the %d traced sessions from p40 to p60)\n", workload, b.sessions)
	rows := []struct {
		name string
		v    float64
		src  string
	}{
		{"sosrnet hello", b.hello, "server span hello: accept to validated handshake"},
		{"sosrnet estimate", b.estimate, "server spans estimate (unknown-d probes)"},
		{"enccache/core encode", b.encode, "server spans encode (cache misses only)"},
		{"core decode", b.decode, "client spans decode"},
		{"wire", b.wire, "wire.roundtrip_ms: the session's frames replayed over loopback"},
		{"bench.residual_ms", b.residual, "p50 minus the parts: dial, marshalling, waiting for a CPU"},
	}
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(out, "  %-22s %10.4f  %s\n", r.name, r.v, r.src)
		sum += r.v
	}
	fmt.Fprintf(out, "  %-22s %10.4f  (session p50 %.4f)\n", "= sum", sum, b.p50)
}

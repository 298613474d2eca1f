package sosrnet

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sosr"
	"sosr/internal/wire"
)

var updateTranscripts = flag.Bool("update", false, "rewrite sosrnet/testdata golden transcripts")

// transcriptConn records every frame crossing a client connection as
// "direction label payload-length". Writes are logged before they reach the
// socket, so a server reply (which needs the written frame first) is always
// logged after it: the log order is the session's causal order.
type transcriptConn struct {
	net.Conn
	mu      *sync.Mutex
	lines   *[]string
	in, out []byte
}

func (c *transcriptConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in = c.log("s2c", append(c.in, p[:n]...))
	c.mu.Unlock()
	return n, err
}

func (c *transcriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out = c.log("c2s", append(c.out, p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// log consumes the complete frames at the front of buf.
func (c *transcriptConn) log(dir string, buf []byte) []byte {
	for {
		label, payload, n, err := wire.ReadFrame(bytes.NewReader(buf), wire.DefaultMaxPayload)
		if err != nil {
			return buf // incomplete: wait for more bytes
		}
		*c.lines = append(*c.lines, fmt.Sprintf("%s %s %d", dir, label, len(payload)))
		buf = buf[n:]
	}
}

// TestSetsOfSetsWireTranscript pins the sets-of-sets wire protocol frame by
// frame — direction, label, order and payload length, control frames
// included — across every protocol, both difference regimes, replication
// retries and a give-up. The golden file is the protoVersion 2 wire
// protocol as deployed peers speak it, so a passing run means this client
// and server interoperate with any other implementation of that version.
// Regenerate with `go test ./sosrnet -run WireTranscript -update` only for
// an intended wire change, and bump protoVersion with it.
func TestSetsOfSetsWireTranscript(t *testing.T) {
	alice, bob := sosPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSetsOfSets("docs", alice); err != nil {
			t.Fatal(err)
		}
	})
	cases := []struct {
		name string
		cfg  sosr.Config
	}{
		{"naive-known", sosr.Config{Seed: 1, Protocol: sosr.ProtocolNaive, KnownDiff: 24}},
		{"naive-unknown", sosr.Config{Seed: 2, Protocol: sosr.ProtocolNaive}},
		{"nested-known", sosr.Config{Seed: 3, Protocol: sosr.ProtocolNested, KnownDiff: 24}},
		{"nested-unknown", sosr.Config{Seed: 4, Protocol: sosr.ProtocolNested}},
		{"cascade-known", sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 24}},
		{"cascade-unknown", sosr.Config{Seed: 6, Protocol: sosr.ProtocolCascade}},
		{"multiround-known", sosr.Config{Seed: 7, Protocol: sosr.ProtocolMultiRound, KnownDiff: 24}},
		{"multiround-unknown", sosr.Config{Seed: 8, Protocol: sosr.ProtocolMultiRound}},
		{"naive-retry", sosr.Config{Seed: 4, Protocol: sosr.ProtocolNaive, KnownDiff: 4, Replicas: 4}},
		{"nested-retry", sosr.Config{Seed: 1, Protocol: sosr.ProtocolNested, KnownDiff: 4, Replicas: 4}},
		{"cascade-retry", sosr.Config{Seed: 4, Protocol: sosr.ProtocolCascade, KnownDiff: 4, Replicas: 4}},
		{"multiround-retry", sosr.Config{Seed: 1, Protocol: sosr.ProtocolMultiRound, KnownDiff: 4, Replicas: 4}},
		{"cascade-give-up", sosr.Config{Seed: 5, Protocol: sosr.ProtocolCascade, KnownDiff: 1, Replicas: 2}},
	}
	var got strings.Builder
	for _, tc := range cases {
		var mu sync.Mutex
		var lines []string
		c := Dial(addr)
		c.Timeout = 60 * time.Second
		c.dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return &transcriptConn{Conn: conn, mu: &mu, lines: &lines}, nil
		}
		_, _, err := c.SetsOfSets(context.Background(), "docs", bob, tc.cfg)
		if (err != nil) != strings.HasSuffix(tc.name, "give-up") {
			t.Fatalf("%s: unexpected outcome %v", tc.name, err)
		}
		mu.Lock()
		fmt.Fprintf(&got, "== %s\n%s\n", tc.name, strings.Join(lines, "\n"))
		mu.Unlock()
	}
	golden := filepath.Join("testdata", "sos_transcripts.golden")
	if *updateTranscripts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("wire transcript diverges from %s:\n--- got\n%s\n--- want\n%s", golden, got.String(), want)
	}
}

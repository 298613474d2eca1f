package sosrnet

import (
	"bytes"
	"context"
	"errors"
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

// transcriptCase is one recorded session: run drives it through a client
// whose connection logs every frame; gaveUp marks a session expected to fail.
type transcriptCase struct {
	name   string
	gaveUp bool
	run    func(c *Client) error
}

// checkTranscripts runs the cases against addr and compares their frame logs
// with testdata/golden (rewritten first under -update).
func checkTranscripts(t *testing.T, addr, golden string, cases []transcriptCase) {
	t.Helper()
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
		if err := tc.run(c); (err != nil) != tc.gaveUp {
			t.Fatalf("%s: unexpected outcome %v", tc.name, err)
		}
		mu.Lock()
		// A client that gives up on its own closes at once: whether the
		// server's closing ctl/error is read before that is a race.
		if n := len(lines); tc.gaveUp && n > 0 && strings.HasPrefix(lines[n-1], "s2c "+lblError+" ") {
			lines = lines[:n-1]
		}
		fmt.Fprintf(&got, "== %s\n%s\n", tc.name, strings.Join(lines, "\n"))
		mu.Unlock()
	}
	path := filepath.Join("testdata", golden)
	if *updateTranscripts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("wire transcript diverges from %s:\n--- got\n%s\n--- want\n%s", path, got.String(), want)
	}
}

// TestSetsOfSetsWireTranscript pins the sets-of-sets wire protocol frame by
// frame — direction, label, order and payload length, control frames
// included — across every protocol, both difference regimes, replication
// retries and a give-up. The golden files are the protoVersion 2 wire
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
	var cases []transcriptCase
	for _, tc := range []struct {
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
	} {
		cases = append(cases, transcriptCase{tc.name, strings.HasSuffix(tc.name, "give-up"), func(c *Client) error {
			_, _, err := c.SetsOfSets(context.Background(), "docs", bob, tc.cfg)
			return err
		}})
	}
	checkTranscripts(t, addr, "sos_transcripts.golden", cases)
}

// TestSetWireTranscript pins the set sessions: Corollary 2.2 with a known
// bound, the Corollary 3.2 estimator round, and Theorem 2.3.
func TestSetWireTranscript(t *testing.T) {
	alice, bob := setPair()
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostSets("ids", alice); err != nil {
			t.Fatal(err)
		}
	})
	var cases []transcriptCase
	for _, tc := range []struct {
		name string
		cfg  sosr.SetConfig
	}{
		{"iblt-known", sosr.SetConfig{Seed: 7, KnownDiff: 16}},
		{"iblt-unknown", sosr.SetConfig{Seed: 8}},
		{"charpoly", sosr.SetConfig{Seed: 9, KnownDiff: 12, UseCharPoly: true}},
	} {
		cases = append(cases, transcriptCase{tc.name, false, func(c *Client) error {
			_, _, err := c.Sets(context.Background(), "ids", bob, tc.cfg)
			return err
		}})
	}
	checkTranscripts(t, addr, "set_transcripts.golden", cases)
}

// TestMultisetWireTranscript pins the §3.4 multiset sessions, known and
// unknown bound.
func TestMultisetWireTranscript(t *testing.T) {
	alice := []uint64{1, 1, 1, 2, 5, 5, 9, 9, 9, 9, 40}
	bob := []uint64{1, 1, 2, 2, 5, 9, 9, 9, 9, 40, 41}
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostMultiset("bag", alice); err != nil {
			t.Fatal(err)
		}
	})
	multiset := func(d int, seed uint64) func(c *Client) error {
		return func(c *Client) error {
			_, _, err := c.Multiset(context.Background(), "bag", bob, d, seed)
			return err
		}
	}
	checkTranscripts(t, addr, "multiset_transcripts.golden", []transcriptCase{
		{"known", false, multiset(16, 3)},
		{"unknown", false, multiset(0, 4)},
	})
}

// TestGraphWireTranscript pins the two §5 graph schemes.
func TestGraphWireTranscript(t *testing.T) {
	base, h, err := sosr.PlantedSeparatedGraph(600, 2, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := sosr.PerturbGraph(base, 1, 12), sosr.PerturbGraph(base, 1, 13)
	nbrA := sosr.PerturbGraph(sosr.RandomGraph(128, 0.5, 1), 1, 21)
	nbrB := sosr.RandomGraph(128, 0.5, 1)
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostGraph("net", ga); err != nil {
			t.Fatal(err)
		}
		if err := s.HostGraph("soc", nbrA); err != nil {
			t.Fatal(err)
		}
	})
	graph := func(name string, local sosr.Graph, cfg sosr.GraphConfig) func(c *Client) error {
		return func(c *Client) error {
			_, _, err := c.Graph(context.Background(), name, local, cfg)
			return err
		}
	}
	checkTranscripts(t, addr, "graph_transcripts.golden", []transcriptCase{
		{"degree", false, graph("net", gb, sosr.GraphConfig{Seed: 14, Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: h})},
		{"neighborhood", false, graph("soc", nbrB, sosr.GraphConfig{Seed: 22, Scheme: sosr.SchemeDegreeNeighborhood, MaxEdits: 1, DegreeThreshold: 96})},
	})
}

// TestForestWireTranscript pins the Theorem 6.1 forest sessions: a known
// budget, budget doubling with a retry, and doubling that gives up once the
// budget reaches the server's MaxBound.
func TestForestWireTranscript(t *testing.T) {
	fa := sosr.RandomForest(120, 0.15, 51)
	fb := sosr.PerturbForest(fa, 3, 52)
	big := sosr.RandomForest(400, 0.05, 51)
	bigB := sosr.PerturbForest(big, 40, 52)
	_, addr, _ := startServer(t, func(s *Server) {
		if err := s.HostForest("tree", fa); err != nil {
			t.Fatal(err)
		}
		if err := s.HostForest("big", big); err != nil {
			t.Fatal(err)
		}
	})
	// Budgets 16 and 32 both fail on a 30-vertex replica of a 400-vertex forest.
	_, lowAddr, _ := startServer(t, func(s *Server) {
		s.MaxBound = 32
		if err := s.HostForest("big", big); err != nil {
			t.Fatal(err)
		}
	})
	forestCase := func(addr, name string, local sosr.Forest, cfg sosr.ForestConfig) func(c *Client) error {
		return func(c *Client) error {
			c.Addr = addr
			_, _, err := c.Forest(context.Background(), name, local, cfg)
			return err
		}
	}
	checkTranscripts(t, addr, "forest_transcripts.golden", []transcriptCase{
		{"known", false, forestCase(addr, "tree", fb, sosr.ForestConfig{Seed: 53, MaxEdits: 3})},
		{"auto", false, forestCase(addr, "tree", fb, sosr.ForestConfig{Seed: 63})},
		{"auto-retry", false, forestCase(addr, "big", bigB, sosr.ForestConfig{Seed: 63})},
		{"auto-give-up", true, func(c *Client) error {
			err := forestCase(lowAddr, "big", sosr.RandomForest(30, 0.1, 71), sosr.ForestConfig{Seed: 73})(c)
			if err != nil && !errors.Is(err, ErrGaveUp) {
				t.Errorf("give-up error %v does not wrap ErrGaveUp", err)
			}
			return err
		}},
	})
}

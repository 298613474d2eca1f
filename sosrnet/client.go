package sosrnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setrecon"
	"sosr/internal/setutil"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// NetStats reports one wire session's communication.
type NetStats struct {
	// Protocol is the reconciliation traffic: frame for frame, byte for
	// byte, what the in-process simulation's Stats report for the same
	// configuration and data.
	Protocol sosr.Stats
	// WireIn and WireOut are the total connection bytes this client read and
	// wrote, framing and handshake included.
	WireIn, WireOut int64
	// Overhead is WireIn+WireOut − Protocol.TotalBytes: the deterministic
	// cost of framing plus the control frames (hello/accept/done/retry).
	Overhead int64
	// Attempts counts protocol attempts (replication or doubling).
	Attempts int
}

// Client reconciles local replicas against a sosrd server. Each method runs
// one session on its own TCP connection and takes a context as its first
// parameter: cancellation (or a context deadline) severs the connection, so a
// hedged or failed-over session releases its resources immediately. The zero
// Timeout means no per-session deadline beyond the context's. A Client is
// safe for concurrent use.
type Client struct {
	// Addr is the server's "host:port".
	Addr string
	// Timeout bounds each whole session (dial through close) when positive.
	Timeout time.Duration
	// MaxFrame bounds accepted frame payloads (0 = wire.DefaultMaxPayload).
	MaxFrame int
	// ShardID/ShardCount/ShardEpoch/ShardFingerprint are sent with every
	// hello when ShardCount > 0: the canonical shard-identity hash
	// (shardmap.Topology.ShardIDHash) of the slice the client believes Addr
	// hosts, the topology's shard count, its epoch, and its order-invariant
	// fingerprint (shardmap.Topology.Fingerprint). A structural mismatch
	// with the server's configuration fails the handshake with ErrMisrouted;
	// an epoch mismatch alone fails it with ErrStaleEpoch (both wrapped in
	// ErrServer). The sosrshard fan-out client sets these; leave zero for
	// unsharded datasets.
	ShardID          uint64
	ShardCount       int
	ShardEpoch       uint64
	ShardFingerprint uint64
	// Obs, when set, receives decode-stage metrics: sketch-cache hits/misses
	// and a peel-iterations histogram.
	Obs *obs.Registry
	// Trace, when set, samples a distributed trace per session: the root span
	// covers the whole session (wire accounting as attributes), "decode"
	// children cover Bob-side applies, and the span identity rides the hello
	// frame so the server's stage spans join the same trace. A span already in
	// the call's context (the sosrshard fan-out propagates one per attempt)
	// takes precedence over sampling: the session becomes a child of it.
	Trace *obs.Tracer
	// CacheBytes bounds the client's Bob-sketch cache: repeated sets-of-sets
	// sessions against the same dataset with the same local data subtract a
	// memoized child-encoding aggregate instead of re-encoding per session.
	// 0 selects enccache.DefaultMaxBytes; negative disables caching.
	CacheBytes int64

	cacheOnce sync.Once
	cache     *enccache.Cache
	metOnce   sync.Once
	met       *clientMetrics
	// sketchFor, when non-nil, overrides the sketch cache as the source of Bob
	// sketches (the server pull path keys sketches on dataset versions).
	sketchFor sketchProvider
	// dial, when non-nil, replaces the TCP dial — tests use it to count and
	// track the connections a session path opens and closes.
	dial func(ctx context.Context, addr string) (net.Conn, error)
}

// Dial returns a client for the given server address. No connection is made
// until a reconcile method runs.
func Dial(addr string) *Client { return &Client{Addr: addr} }

// session opens one connection and wraps it as Bob's endpoint with pipelined
// reads: the server's next frame is decoded off the socket while the client
// is still applying the previous one. The returned cleanup is idempotent and
// must run on every exit path — it detaches the context watchdog, retires the
// read-ahead goroutine, and closes the connection, so no handshake-rejection
// or mid-protocol error branch can leak the TCP conn (a leak per rejected
// retry would exhaust fds during a failover storm).
func (c *Client) session(ctx context.Context) (*wire.Endpoint, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	dial := c.dial
	if dial == nil {
		dial = func(ctx context.Context, addr string) (net.Conn, error) {
			d := net.Dialer{Timeout: c.Timeout}
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	conn, err := dial(ctx, c.Addr)
	if err != nil {
		return nil, nil, err
	}
	if c.Timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(c.Timeout))
	}
	// A blocked read or write observes cancellation only through the socket:
	// sever it the moment ctx is done.
	stop := context.AfterFunc(ctx, func() { _ = conn.Close() })
	ep := wire.NewEndpoint(conn, transport.Bob)
	ep.SetMaxPayload(c.MaxFrame)
	ep.StartReadAhead()
	var once sync.Once
	cleanup := func() {
		once.Do(func() {
			stop()
			ep.StopReadAhead()
			_ = conn.Close()
		})
	}
	return ep, cleanup, nil
}

// ctxErr re-labels an error once ctx is done: a severed connection surfaces
// as an opaque IO failure, but the caller's truth is the cancellation.
func ctxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w (%v)", ctx.Err(), err)
	}
	return err
}

func (c *Client) hello(ep *wire.Endpoint, h *helloMsg, sp *obs.Span) (*acceptMsg, error) {
	h.V = protoVersion
	h.ShardID, h.ShardCount, h.ShardEpoch, h.ShardSet = c.ShardID, c.ShardCount, c.ShardEpoch, c.ShardFingerprint
	if sp != nil {
		h.TraceID, h.SpanID = uint64(sp.TraceID()), uint64(sp.ID())
	}
	if err := ep.SendFrame(lblHello, marshalCtl(h)); err != nil {
		return nil, err
	}
	payload, err := transport.Expect(serverPeer{ep}, lblAccept)
	if err != nil {
		return nil, err
	}
	var acc acceptMsg
	if err := json.Unmarshal(payload, &acc); err != nil {
		return nil, fmt.Errorf("sosrnet: malformed accept frame: %v", err)
	}
	return &acc, nil
}

// sendDone reports the client's view; the protocol stats mirror the
// endpoint's recorder.
func sendDone(ep *wire.Endpoint, ok bool, cause error, attempts int) {
	st := ep.Stats()
	d := doneMsg{OK: ok, Rounds: st.Rounds, Bytes: st.TotalBytes, Messages: st.Messages, Attempts: attempts}
	if cause != nil {
		d.Error = cause.Error()
	}
	_ = ep.SendFrame(lblDone, marshalCtl(&d))
}

func netStats(ep *wire.Endpoint, attempts int) *NetStats {
	st := ep.Stats()
	in, out := ep.WireBytes()
	return &NetStats{
		Protocol: sosr.Stats{
			Rounds:     st.Rounds,
			TotalBytes: st.TotalBytes,
			AliceBytes: st.AliceBytes,
			BobBytes:   st.BobBytes,
			Messages:   st.Messages,
		},
		WireIn:   in,
		WireOut:  out,
		Overhead: in + out - int64(st.TotalBytes),
		Attempts: attempts,
	}
}

// startSpan opens a session's client span: a child of the caller's context
// span when one is present (the sosrshard fan-out propagates one per shard
// attempt), otherwise a sampled root from c.Trace. Nil — and free — when
// tracing is off.
func (c *Client) startSpan(ctx context.Context, name string, kind Kind) *obs.Span {
	sp := obs.SpanFromContext(ctx).Child("client/session")
	if sp == nil {
		sp = c.Trace.StartRoot("client/session")
	}
	sp.SetStr("dataset", name)
	sp.SetStr("kind", string(kind))
	sp.SetStr("server", c.Addr)
	return sp
}

// finishSpan closes a session span with the accounting the session returns.
// The byte attributes are read from the same NetStats value the caller hands
// back, so a trace root's wire bytes equal the reported Stats exactly — by
// construction, not by a parallel tally.
func (c *Client) finishSpan(sp *obs.Span, ns *NetStats, err error) {
	if sp == nil {
		return
	}
	if ns != nil {
		sp.SetInt("proto_bytes", int64(ns.Protocol.TotalBytes))
		sp.SetInt("wire_in", ns.WireIn)
		sp.SetInt("wire_out", ns.WireOut)
		sp.SetInt("overhead", ns.Overhead)
		sp.SetInt("attempts", int64(ns.Attempts))
		sp.SetInt("rounds", int64(ns.Protocol.Rounds))
	}
	sp.Fail(err)
	sp.Finish()
}

// traced runs one session under its client span (startSpan/finishSpan),
// re-labelling its error once ctx is done.
func traced[T any](c *Client, ctx context.Context, name string, kind Kind, run func(sp *obs.Span) (T, *NetStats, error)) (T, *NetStats, error) {
	sp := c.startSpan(ctx, name, kind)
	res, ns, err := run(sp)
	err = ctxErr(ctx, err)
	c.finishSpan(sp, ns, err)
	return res, ns, err
}

// bobSession runs one session as Bob: dial, hello, then bob — an engine's
// Bob half over the server's peer — and ctl/done. A decode failure
// (*transport.FailedError) is reported to the server as a failed done; a
// broken link or a server error ends the session as it is.
func bobSession[T any](c *Client, ctx context.Context, h *helloMsg, sp *obs.Span, bob func(peer transport.Peer, acc *acceptMsg) (T, int, error)) (T, *NetStats, error) {
	var zero T
	ep, cleanup, err := c.session(ctx)
	if err != nil {
		return zero, nil, err
	}
	defer cleanup()
	acc, err := c.hello(ep, h, sp)
	if err != nil {
		return zero, nil, err
	}
	res, attempts, err := bob(serverPeer{ep}, acc)
	if err != nil {
		var fe *transport.FailedError
		if errors.As(err, &fe) {
			err = netErr(fe.Err)
			sendDone(ep, false, err, fe.Attempts)
			return zero, nil, err
		}
		return zero, nil, netErr(err)
	}
	sendDone(ep, true, nil, attempts)
	return res, netStats(ep, attempts), nil
}

// Sets reconciles a local set against the hosted set `name`: the client ends
// up with the server's set. cfg mirrors sosr.ReconcileSets. Cancelling ctx
// severs the session.
func (c *Client) Sets(ctx context.Context, name string, local []uint64, cfg sosr.SetConfig) (*sosr.SetResult, *NetStats, error) {
	return traced(c, ctx, name, KindSet, func(sp *obs.Span) (*sosr.SetResult, *NetStats, error) {
		if cfg.UseCharPoly && cfg.KnownDiff <= 0 {
			return nil, nil, errors.New("sosrnet: UseCharPoly requires KnownDiff > 0")
		}
		bob := setutil.Canonical(local)
		h := &helloMsg{Dataset: name, Kind: KindSet, Seed: cfg.Seed, D: cfg.KnownDiff, CharPoly: cfg.UseCharPoly}
		pl := setrecon.Plan{D: cfg.KnownDiff, Estimate: cfg.KnownDiff <= 0, CharPoly: cfg.UseCharPoly}
		res, ns, err := bobSession(c, ctx, h, sp, func(peer transport.Peer, _ *acceptMsg) (*setrecon.Result, int, error) {
			res, err := setrecon.Bob(peer, hashing.NewCoins(cfg.Seed), bob, pl)
			return res, 1, err
		})
		if err != nil {
			return nil, nil, err
		}
		return &sosr.SetResult{Recovered: res.Recovered, OnlyA: res.OnlyA, OnlyB: res.OnlyB, Stats: ns.Protocol}, ns, nil
	})
}

// Multiset reconciles a local multiset against the hosted multiset `name`
// via the §3.4 packing, mirroring sosr.ReconcileMultisets: diffBound bounds
// the packed-set difference (pass 2× the multiset edit distance), and
// diffBound ≤ 0 runs the estimator round first.
func (c *Client) Multiset(ctx context.Context, name string, local []uint64, diffBound int, seed uint64) ([]uint64, *NetStats, error) {
	return traced(c, ctx, name, KindMultiset, func(sp *obs.Span) ([]uint64, *NetStats, error) {
		packed, err := setrecon.MultisetToSet(local)
		if err != nil {
			return nil, nil, err
		}
		h := &helloMsg{Dataset: name, Kind: KindMultiset, Seed: seed, D: diffBound}
		pl := setrecon.Plan{D: diffBound, Estimate: diffBound <= 0}
		return bobSession(c, ctx, h, sp, func(peer transport.Peer, _ *acceptMsg) ([]uint64, int, error) {
			res, err := setrecon.Bob(peer, hashing.NewCoins(seed), packed, pl)
			if err != nil {
				return nil, 0, err
			}
			return setrecon.SetToMultiset(res.Recovered), 1, nil
		})
	})
}

// SetsOfSets reconciles a local parent set against the hosted sets-of-sets
// `name`, mirroring sosr.ReconcileSetsOfSets (all four protocol families,
// known- and unknown-d variants). Cancelling ctx severs the session.
func (c *Client) SetsOfSets(ctx context.Context, name string, local [][]uint64, cfg sosr.Config) (*sosr.Result, *NetStats, error) {
	return traced(c, ctx, name, KindSetsOfSets, func(sp *obs.Span) (*sosr.Result, *NetStats, error) {
		bob := make([][]uint64, len(local))
		for i, cs := range local {
			bob[i] = setutil.Canonical(cs)
		}
		h := &helloMsg{
			Dataset: name, Kind: KindSetsOfSets, Seed: cfg.Seed,
			D: cfg.KnownDiff, Protocol: cfg.Protocol.String(), DHat: cfg.KnownChildDiff,
			Replicas: cfg.Replicas, S: cfg.MaxChildSets, H: cfg.MaxChildSize, U: cfg.Universe,
			CS: len(bob), CH: maxChildLen(bob), Validate: cfg.Validate,
		}
		var proto core.Protocol
		res, ns, err := bobSession(c, ctx, h, sp, func(peer transport.Peer, acc *acceptMsg) (*core.Result, int, error) {
			p, err := core.Params{S: acc.S, H: acc.H, U: acc.U}.Normalized()
			if err != nil {
				return nil, 0, err
			}
			if cfg.Validate {
				if err := core.Validate(bob, p); err != nil {
					return nil, 0, &transport.FailedError{Err: err}
				}
			}
			var ok bool
			if proto, ok = core.ParseProtocol(acc.Protocol); !ok || proto == core.ProtocolAuto {
				return nil, 0, fmt.Errorf("%w: server resolved protocol %q", ErrUnsupported, acc.Protocol)
			}
			pl := core.Plan{Protocol: proto, P: p, D: acc.D, DHat: acc.DHat, Replicas: acc.Replicas}
			ap := c.newSOSApply(name, bob, p)
			ap.sp = sp
			res, err := core.Bob(peer, hashing.NewCoins(cfg.Seed), bob, pl, core.BobOpts{Apply: ap.apply, Finished: ap.finished})
			if err != nil {
				return nil, 0, err
			}
			return res, res.Attempts, nil
		})
		if err != nil {
			return nil, nil, err
		}
		return &sosr.Result{
			Recovered: res.Recovered,
			Added:     res.Added,
			Removed:   res.Removed,
			Stats:     ns.Protocol,
			Attempts:  res.Attempts,
			Protocol:  sosr.Protocol(proto),
		}, ns, nil
	})
}

// Graph reconciles a local graph against the hosted graph `name`: the client
// ends up with a graph isomorphic to the server's. cfg mirrors
// sosr.ReconcileGraphs (degree-ordering and degree-neighborhood schemes).
// Cancelling ctx severs the session.
func (c *Client) Graph(ctx context.Context, name string, local sosr.Graph, cfg sosr.GraphConfig) (*sosr.GraphResult, *NetStats, error) {
	return traced(c, ctx, name, KindGraph, func(sp *obs.Span) (*sosr.GraphResult, *NetStats, error) {
		gb := toGraph(local)
		pl := graphrecon.Plan{D: max(cfg.MaxEdits, 1)}
		h := &helloMsg{Dataset: name, Kind: KindGraph, Seed: cfg.Seed, D: pl.D, N: gb.N}
		var side *graphrecon.NbrSide
		switch cfg.Scheme {
		case sosr.SchemeDegreeOrdering:
			if cfg.TopDegrees < 1 {
				return nil, nil, errors.New("sosrnet: SchemeDegreeOrdering requires TopDegrees (h)")
			}
			pl.Scheme, pl.H = graphrecon.SchemeDegreeOrdering, cfg.TopDegrees
			h.Scheme, h.TopH = "degree", cfg.TopDegrees
		case sosr.SchemeDegreeNeighborhood:
			if cfg.DegreeThreshold < 1 {
				return nil, nil, errors.New("sosrnet: SchemeDegreeNeighborhood requires DegreeThreshold (m)")
			}
			var err error
			if side, err = graphrecon.NeighborhoodEncode(gb, cfg.DegreeThreshold); err != nil {
				return nil, nil, err
			}
			pl.Scheme, pl.M = graphrecon.SchemeNeighborhood, cfg.DegreeThreshold
			h.Scheme, h.M, h.MaxSig = "neighborhood", cfg.DegreeThreshold, side.MaxSig
		default:
			return nil, nil, fmt.Errorf("%w: graph scheme %d has no wire protocol (use the in-process API)", ErrUnsupported, cfg.Scheme)
		}
		g, ns, err := bobSession(c, ctx, h, sp, func(peer transport.Peer, acc *acceptMsg) (*graph.Graph, int, error) {
			pl.MaxSig = acc.MaxSig
			g, err := graphrecon.Bob(peer, hashing.NewCoins(cfg.Seed), gb, side, pl)
			return g, 1, err
		})
		if err != nil {
			return nil, nil, err
		}
		return &sosr.GraphResult{Recovered: sosr.Graph{N: g.N, Edges: g.Edges()}, Stats: ns.Protocol}, ns, nil
	})
}

// Forest reconciles a local rooted forest against the hosted forest `name`:
// the client ends up with a forest isomorphic to the server's. cfg mirrors
// sosr.ReconcileForests (known-budget and auto-doubling variants).
// Cancelling ctx severs the session.
func (c *Client) Forest(ctx context.Context, name string, local sosr.Forest, cfg sosr.ForestConfig) (*sosr.ForestResult, *NetStats, error) {
	return traced(c, ctx, name, KindForest, func(sp *obs.Span) (*sosr.ForestResult, *NetStats, error) {
		fb := toForest(local)
		if err := fb.Validate(); err != nil {
			return nil, nil, err
		}
		info := forest.Measure(fb)
		h := &helloMsg{
			Dataset: name, Kind: KindForest, Seed: cfg.Seed,
			D: cfg.MaxEdits, Sigma: cfg.Depth,
			N: info.N, Depth: info.Depth, MaxChild: info.MaxChild,
		}
		rec, ns, err := bobSession(c, ctx, h, sp, func(peer transport.Peer, acc *acceptMsg) (*forest.Forest, int, error) {
			return forest.Bob(peer, hashing.NewCoins(cfg.Seed), fb, forest.Session{
				A:         forest.SideInfo{N: acc.N, Depth: acc.Depth, MaxChild: acc.MaxChild},
				B:         info,
				Req:       forest.ReconParams{Sigma: cfg.Depth, D: cfg.MaxEdits},
				MaxBudget: acc.MaxBudget,
			})
		})
		if err != nil {
			return nil, nil, err
		}
		return &sosr.ForestResult{Recovered: sosr.Forest{Parent: rec.Parent}, Stats: ns.Protocol}, ns, nil
	})
}

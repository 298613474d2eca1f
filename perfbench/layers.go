package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"sosr"
	"sosr/internal/core"
	"sosr/internal/forest"
	"sosr/internal/graph"
	"sosr/internal/graphrecon"
	"sosr/internal/hashing"
	"sosr/internal/setrecon"
	"sosr/internal/store"
	"sosr/internal/transport"
	"sosr/internal/wire"
)

// layerInputs are what the traced pass replays through each layer's public
// calls: the workload's hosted sets-of-sets data and Bob copy, its writer
// pool, and cold-mix's set, graph and forest inputs.
type layerInputs struct {
	alice, bob [][]uint64
	d          int
	pool       [][]uint64
	mix        *mixInputs // nil: generated from the seed when replayed
}

// replayer times public calls, each inside its own span, and keeps every
// sample of each named measurement.
type replayer struct {
	tr       *spans
	samples  map[string][]float64
	fails    *failures
	attempts int
}

// time runs f n times, each under a span named after the metric, and
// records each duration scaled from milliseconds (1 = ms, 1000 = µs).
func (rp *replayer) time(metricName string, scale float64, n int, f func() error) {
	for i := 0; i < n; i++ {
		rp.attempts++
		sp := rp.tr.root("bench/replay/" + metricName)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		sp.Fail(err)
		sp.Finish()
		if err != nil {
			var ce *checkError
			if errors.As(err, &ce) {
				rp.fails.add(ce.check, metricName+": "+ce.detail)
			} else {
				rp.fails.add("replay_error", metricName+": "+err.Error())
			}
			return
		}
		rp.samples[metricName] = append(rp.samples[metricName], ms(d)*scale)
	}
}

var digestKinds = []struct {
	name string
	kind core.DigestKind
}{{"naive", core.DigestNaive}, {"nested", core.DigestNested}, {"cascade", core.DigestCascade}}

// replayLayers replays each layer's public calls on the workload's inputs
// and returns the per-layer metrics they give.
func replayLayers(in layerInputs, o runOpts, tr *spans, fails *failures) (map[string]metric, int, error) {
	sh := o.shape
	rp := &replayer{tr: tr, samples: map[string][]float64{}, fails: fails}
	reps := sh.reps
	out := map[string]metric{}
	coins := hashing.NewCoins(hashing.NewCoins(o.seed).Seed("replay", 0))
	p, err := core.Params{
		S: max(len(in.alice), len(in.bob)),
		H: max(maxChildLen(in.alice), maxChildLen(in.bob)),
		U: universe,
	}.Normalized()
	if err != nil {
		return nil, 0, err
	}
	d, dHat := in.d, core.DHat(in.d, p.S)
	want := sortedParents(in.alice)
	recovered := func(name string, res *core.Result) error {
		if err := checkParents(want, res.Recovered); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	// core: one-round encode and decode, uncached and with Bob's sketch.
	var cascadeMsg []byte
	for _, dk := range digestKinds {
		var msg []byte
		rp.time("core.alice_msg_ms."+dk.name, 1, reps, func() (err error) {
			msg, err = core.AliceMsg(dk.kind, coins, in.alice, p, d, dHat)
			return err
		})
		if msg == nil {
			continue
		}
		if dk.kind == core.DigestCascade {
			cascadeMsg = msg
		}
		rp.time("core.apply_msg_ms."+dk.name, 1, reps, func() error {
			res, err := core.ApplyMsg(dk.kind, coins, msg, in.bob, p, d, dHat)
			if err != nil {
				return err
			}
			if dk.kind == core.DigestCascade {
				rp.samples["core.peel_iterations"] = append(rp.samples["core.peel_iterations"], float64(res.PeelIterations))
			}
			return recovered("apply", res)
		})
		var sk *core.BobSketch
		rp.time("core.bob_sketch_ms."+dk.name, 1, reps, func() (err error) {
			sk, err = core.NewBobSketch(dk.kind, coins, in.bob, p, d, dHat)
			return err
		})
		if sk == nil {
			continue
		}
		rp.time("core.apply_cached_ms."+dk.name, 1, reps, func() error {
			res, err := core.ApplyMsgCached(dk.kind, coins, msg, in.bob, p, d, dHat, sk)
			if err != nil {
				return err
			}
			return recovered("apply cached", res)
		})
	}

	// core: the multiround steps, Alice's and Bob's, end to end.
	rp.time("core.multiround_ms", 1, reps, func() error {
		m1 := core.MRAlice1(coins, in.alice, dHat)
		m2, st, err := core.MRBob2(coins, in.bob, p, m1)
		if err != nil {
			return err
		}
		m3, _, err := core.MRAlice3(coins, in.alice, p, d, m2)
		if err != nil {
			return err
		}
		res, err := core.MRBobFinish(coins, in.bob, st, m3)
		if err != nil {
			return err
		}
		return recovered("multiround", res)
	})

	// core: the live cascade digest the server patches on every update.
	var dig *core.IncrementalDigest
	rp.time("core.incremental_build_ms", 1, reps, func() (err error) {
		dig, err = core.NewIncrementalDigest(core.DigestCascade, coins, p, d, dHat)
		if err != nil {
			return err
		}
		for _, cs := range in.alice {
			if err := dig.Add(cs); err != nil {
				return err
			}
		}
		return nil
	})
	if dig != nil {
		rp.time("core.snapshot_us", 1000, reps, func() error {
			if body := dig.SnapshotMsg(); cascadeMsg != nil && !bytes.Equal(body, cascadeMsg) {
				return &checkError{"digest_parity", "incremental snapshot differs from AliceMsg"}
			}
			return nil
		})
		for i := 0; i < 2*len(in.pool); i++ {
			cs := in.pool[(i/2)%len(in.pool)]
			rp.time("core.incremental_patch_us", 1000, 1, func() error {
				if i%2 == 0 {
					return dig.Add(cs)
				}
				return dig.Remove(cs)
			})
		}
	}

	// set, graph and forest layers on cold-mix's inputs.
	mix := in.mix
	if mix == nil {
		if mix, err = genMix(o.seed, sh); err != nil {
			return nil, 0, err
		}
	}
	var setMsg []byte
	rp.time("setrecon.build_ms", 1, reps, func() error {
		setMsg = setrecon.BuildIBLTMsg(coins, mix.setA, sh.setD)
		return nil
	})
	rp.time("setrecon.apply_ms", 1, reps, func() error {
		res, err := setrecon.ApplyIBLTMsg(coins, setMsg, mix.setB)
		if err != nil {
			return err
		}
		return checkSet(mix.setA, res.Recovered)
	})

	ga, gb := internalGraph(mix.ga), internalGraph(mix.gb)
	gp := graphrecon.DegreeOrderParams{H: mix.gh, D: 2}
	var gm *graphrecon.GraphMsgs
	rp.time("graphrecon.alice_ms", 1, reps, func() (err error) {
		gm, err = graphrecon.DegreeOrderAlice(coins, ga, gp)
		return err
	})
	if gm != nil {
		rp.time("graphrecon.apply_ms", 1, reps, func() error {
			g, err := graphrecon.DegreeOrderApply(coins, gb, gp, gm.Sig, gm.Edges)
			if err != nil {
				return err
			}
			if !graph.IsIsomorphic(g, ga) {
				return &checkError{"graph_isomorphic", "replayed graph apply is not isomorphic to Alice's graph"}
			}
			return nil
		})
	}

	fa, fb := &forest.Forest{Parent: mix.fa.Parent}, &forest.Forest{Parent: mix.fb.Parent}
	rpar, fparams := forest.Plan(forest.Measure(fa), forest.Measure(fb), forest.ReconParams{
		Sigma: max(fa.Depth(), fb.Depth()), D: sh.forestD,
	})
	var sig, meta []byte
	rp.time("forest.alice_ms", 1, reps, func() (err error) {
		sig, meta, err = forest.AliceMsg(coins, fa, rpar, fparams)
		return err
	})
	if sig != nil {
		rp.time("forest.apply_ms", 1, reps, func() error {
			f, err := forest.Apply(coins, fb, rpar, fparams, sig, meta)
			if err != nil {
				return err
			}
			if !forest.IsIsomorphic(f, fa) {
				return &checkError{"forest_isomorphic", "replayed forest apply is not isomorphic to Alice's forest"}
			}
			return nil
		})
	}

	// store: the writer's update records through a separate Disk store.
	walBytes, err := replayStore(rp, in, o)
	if err != nil {
		return nil, 0, err
	}

	// wire: one session's frames over a loopback endpoint pair.
	if cascadeMsg != nil {
		if err := replayWire(rp, cascadeMsg); err != nil {
			return nil, 0, err
		}
	}

	for name, vals := range rp.samples {
		out[name] = metric{Value: median(vals), Unit: metricUnit(name)}
	}
	out["store.wal_bytes_per_update"] = metric{Value: walBytes, Unit: "bytes"}
	return out, rp.attempts, nil
}

func maxChildLen(parent [][]uint64) int {
	n := 0
	for _, cs := range parent {
		n = max(n, len(cs))
	}
	return n
}

func internalGraph(g sosr.Graph) *graph.Graph {
	out := graph.New(g.N)
	for _, e := range g.Edges {
		if e[0] != e[1] {
			out.AddEdge(e[0], e[1])
		}
	}
	return out
}

// storeUpdates is how many writer records the store replay appends, and
// wireExchanges how many times the wire replay sends one session's frames.
const (
	storeUpdates  = 200
	wireExchanges = 20
)

// replayStore snapshots the workload's dataset into a fresh NoSync Disk
// store and appends the writer's first storeUpdates records, timing each
// append. It returns the WAL bytes written per update.
func replayStore(rp *replayer, in layerInputs, o runOpts) (float64, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(o.scratch, "replay-store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	disk, err := store.Open(dir, store.Options{NoSync: true, CompactBytes: -1})
	if err != nil {
		return 0, err
	}
	defer disk.Close()
	if err := disk.SaveSnapshot(&store.Record{Name: "replay", Kind: store.KindSetsOfSets, Parents: in.alice}); err != nil {
		return 0, err
	}
	w := &writer{pool: in.pool}
	for j := 0; j < storeUpdates; j++ {
		add, remove := w.update(j)
		rp.time("store.append_us", 1000, 1, func() error {
			_, err := disk.AppendUpdate("replay", &store.Update{Version: uint64(j + 1), AddSets: add, RemoveSets: remove})
			return err
		})
	}
	var wal int64
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || e.Name() != "wal" {
			return err
		}
		info, err := e.Info()
		if err == nil {
			wal += info.Size()
		}
		return err
	})
	return float64(wal) / storeUpdates, err
}

// replayWire sends one session's frames (hello, accept, the cascade
// payload, done) over a loopback TCP endpoint pair, timing each exchange
// from the hello send to the done send.
func replayWire(rp *replayer, payload []byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	hello, accept, done := make([]byte, 256), make([]byte, 160), make([]byte, 96)
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		ep := wire.NewEndpoint(conn, transport.Alice)
		for {
			if _, _, err := ep.RecvFrame(); err != nil {
				served <- nil // the client hung up
				return
			}
			if err := ep.SendFrame(wire.CtlPrefix+"accept", accept); err != nil {
				served <- err
				return
			}
			if err := ep.SendFrame("cascade-iblts", payload); err != nil {
				served <- err
				return
			}
			if _, _, err := ep.RecvFrame(); err != nil {
				served <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	ep := wire.NewEndpoint(conn, transport.Bob)
	rp.time("wire.roundtrip_ms", 1, wireExchanges, func() error {
		if err := ep.SendFrame(wire.CtlPrefix+"hello", hello); err != nil {
			return err
		}
		if _, _, err := ep.RecvFrame(); err != nil {
			return err
		}
		if _, got, err := ep.RecvFrame(); err != nil || len(got) != len(payload) {
			return fmt.Errorf("payload frame: %d bytes, %v", len(got), err)
		}
		return ep.SendFrame(wire.CtlPrefix+"done", done)
	})
	conn.Close()
	return <-served
}

// median of a sample (0 for an empty one).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

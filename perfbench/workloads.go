package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sosr"
	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/store"
	"sosr/internal/workload"
	"sosr/sosrnet"
)

// universe is u for every generated sets-of-sets instance (2^40).
const universe = 1 << 40

// shape fixes every input size. fullShape is the benchmark; the self-test
// runs the same code on tinyShape.
type shape struct {
	hotS, mixS, mutS int // child sets hosted by hot-sync, cold-mix, mutating-sync
	h                int // child-set size bound the generator uses
	d                int // known d of every sets-of-sets session
	mutPlanted       int // planted d between mutating-sync's hosted data and the reader
	poolChild        int // elements per child set in the writer's pool
	setN, setD       int // cold-mix set size and planted difference
	graphN           int // cold-mix planted-separated graph order
	forestN, forestD int // cold-mix forest order and edits
	forestDepth      int // cold-mix forest depth σ
	writeEvery       time.Duration
	probeUpdates     int
	probeEvery       time.Duration
	reps             int // repetitions of each replayed layer call
}

var fullShape = shape{
	hotS: 2000, mixS: 500, mutS: 4000, h: 32, d: 32, mutPlanted: 16, poolChild: 6,
	setN: 20000, setD: 64, graphN: 480, forestN: 600, forestD: 3, forestDepth: 11,
	writeEvery: 20 * time.Millisecond, probeUpdates: 2000, probeEvery: 2 * time.Millisecond,
	reps: 5,
}

var tinyShape = shape{
	hotS: 120, mixS: 60, mutS: 120, h: 12, d: 12, mutPlanted: 4, poolChild: 3,
	setN: 500, setD: 8, graphN: 400, forestN: 80, forestD: 2, forestDepth: 6,
	writeEvery: 20 * time.Millisecond, probeUpdates: 40, probeEvery: 2 * time.Millisecond,
	reps: 2,
}

// runOpts are one invocation's settings.
type runOpts struct {
	seed    uint64
	window  time.Duration
	trace   bool
	scratch string
	shape   shape
}

// workloadDef names a workload, fixes how its window is sliced and its
// session tail percentile, and builds its rig: generate inputs, host them,
// warm up.
type workloadDef struct {
	name   string
	slices int
	tail   float64 // session tail percentile
	build  func(o runOpts, sp *spans) (*rig, error)
}

// The end-to-end pass reports the median over equal slices of its window,
// so a burst of interference from outside the process moves one slice, not
// the result. The session tail is the highest of p99/p95/p90 that leaves at
// least ten sessions beyond it in every slice of a 25 s window at the
// slowest rate seen on the 2-vCPU reference machine, whose speed drifts by
// up to 3×: hot-sync at 86 sessions/s gives five slices of 430, enough for
// p95 but not p99; cold-mix at 36/s gives four slices of 225, enough for
// p95. mutating-sync runs 3–19 sessions/s, so its window is one slice and
// its tail p90, which holds down to 4/s; below that the run prints a warning.
var workloads = []*workloadDef{
	{name: "hot-sync", slices: 5, tail: 0.95, build: buildHot},
	{name: "cold-mix", slices: 4, tail: 0.95, build: buildColdMix},
	{name: "mutating-sync", slices: 1, tail: 0.90, build: buildMutating},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// job is one session of a workload's deterministic sequence. call runs it
// with the given seed (the timed region) and returns the client's result;
// check verifies that result afterwards. The bytes each session moved are
// checked per window against the server's counters (checkAccounting).
type job struct {
	kind  string
	seed  uint64
	call  func(ctx context.Context, c *sosrnet.Client, seed uint64) (*sosrnet.NetStats, any, error)
	check func(res any) error
}

// newJob builds a job from a typed call and a check on its typed result.
func newJob[R any](kind string, seed uint64,
	call func(ctx context.Context, c *sosrnet.Client, seed uint64) (R, *sosrnet.NetStats, error),
	check func(R) error) job {
	return job{
		kind: kind,
		seed: seed,
		call: func(ctx context.Context, c *sosrnet.Client, seed uint64) (*sosrnet.NetStats, any, error) {
			res, ns, err := call(ctx, c, seed)
			return ns, res, err
		},
		check: func(res any) error { return check(res.(R)) },
	}
}

// rig is a hosted server plus what drives and checks load against it.
type rig struct {
	srv     *sosrnet.Server
	addr    string
	readers []*sosrnet.Client
	round   int             // sessions per rotation; windows end on a whole rotation
	job     func(i int) job // the i-th session of the sequence
	writer  *writer         // open-loop writer beside the readers, or nil
	probe   *writer         // update probe on a copy of the data, between windows, or nil
	layers  layerInputs
	closers []func()
	issued  atomic.Int64 // sessions started, warm-up included
}

func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// newRig starts a server on a loopback port. st, when non-nil, is attached
// before anything is hosted; sp, when non-nil, receives the server's spans
// for sessions whose hello carries a benchmark span.
func newRig(st store.Store, sp *spans) (*rig, error) {
	srv := sosrnet.NewServer()
	srv.Trace = sp.tracer()
	if st != nil {
		srv.UseStore(st)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	r := &rig{srv: srv, addr: ln.Addr().String()}
	r.closers = append(r.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return r, nil
}

// addReaders creates n clients, each with its own sketch cache.
func (r *rig) addReaders(n int) {
	for i := 0; i < n; i++ {
		r.readers = append(r.readers, sosrnet.Dial(r.addr))
	}
}

// warm runs the first n sessions of the sequence, session i on reader
// i mod len(readers), checked, so caches and lazy set-up are done before
// anything is timed. The measured sequence starts again at index 0.
func (r *rig) warm(n int) error {
	fails := &failures{}
	for i := 0; i < n; i++ {
		if rec := r.session(i, r.readers[i%len(r.readers)], nil, fails); !rec.ok {
			return fmt.Errorf("warm-up %s session failed: %v", rec.kind, fails.first)
		}
	}
	return nil
}

// ---- hot-sync ----

// buildHot: two readers reconcile one fixed Bob copy against one hosted
// dataset with one fixed seed, so after warm-up both the server's encode
// cache and each client's sketch cache hit on every session.
func buildHot(o runOpts, sp *spans) (*rig, error) {
	sh := o.shape
	coins := hashing.NewCoins(o.seed)
	alice, bob := workload.PlantedSetsOfSets(coins.Seed("hot/data", 0), sh.hotS, sh.h, universe, sh.d)
	r, err := newRig(nil, sp)
	if err != nil {
		return nil, err
	}
	// The update probe writes to a copy under another name, so it leaves
	// the readers' dataset and its cache entries as they are.
	for _, name := range []string{"hot", "hot-probe"} {
		if err := r.srv.HostSetsOfSets(name, alice); err != nil {
			r.close()
			return nil, err
		}
	}
	cfg := sosr.Config{Protocol: sosr.ProtocolCascade, KnownDiff: sh.d, Universe: universe}
	hot := sosJob("sos/cascade/known", "hot", coins.Seed("hot/session", 0), bob, cfg, sortedParents(alice))
	r.round = 1
	r.job = func(int) job { return hot }
	r.addReaders(2)
	r.probe = newWriter(r.srv, "hot-probe", alice, writerPool(coins.Seed("hot/pool", 0), sh), sh.probeEvery, true)
	r.layers = layerInputs{alice: alice, bob: bob, d: sh.d, pool: r.probe.pool}
	if err := r.warm(2 * len(r.readers)); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// ---- cold-mix ----

// mixInputs are cold-mix's hosted datasets and Bob copies; the traced pass
// of every workload replays the set, graph and forest layers on them.
type mixInputs struct {
	sosA, sosB [][]uint64
	setA, setB []uint64
	ga, gb     sosr.Graph
	gh         int
	fa, fb     sosr.Forest
}

func genMix(seed uint64, sh shape) (*mixInputs, error) {
	coins := hashing.NewCoins(seed)
	m := &mixInputs{}
	m.sosA, m.sosB = workload.PlantedSetsOfSets(coins.Seed("mix/sos", 0), sh.mixS, sh.h, universe, sh.d)

	src := prng.New(coins.Seed("mix/set", 0))
	seen := make(map[uint64]bool, sh.setN+sh.setD)
	fresh := func() uint64 {
		for {
			x := src.Uint64() & sosr.MaxElement
			if !seen[x] {
				seen[x] = true
				return x
			}
		}
	}
	common := make([]uint64, sh.setN-sh.setD/2)
	for i := range common {
		common[i] = fresh()
	}
	m.setA = append([]uint64(nil), common...)
	m.setB = append([]uint64(nil), common...)
	for i := 0; i < sh.setD/2; i++ {
		m.setA = append(m.setA, fresh())
		m.setB = append(m.setB, fresh())
	}
	m.setA, m.setB = setutil.Canonical(m.setA), setutil.Canonical(m.setB)

	base, h, err := sosr.PlantedSeparatedGraph(sh.graphN, 2, 0.4, coins.Seed("mix/graph", 0))
	if err != nil {
		return nil, fmt.Errorf("planting the cold-mix graph: %w", err)
	}
	m.gh = h
	m.ga = sosr.PerturbGraph(base, 1, coins.Seed("mix/graph-a", 0))
	m.gb = sosr.PerturbGraph(base, 1, coins.Seed("mix/graph-b", 0))

	// The forest protocol's cost grows with the depth σ, which a random
	// forest of this order spreads over 8–15; drawing until σ is the most
	// common value keeps every seed's forest sessions the same size.
	for i := 0; ; i++ {
		m.fa = sosr.RandomForest(sh.forestN, 0.2, coins.Seed("mix/forest", i))
		m.fb = sosr.PerturbForest(m.fa, sh.forestD, coins.Seed("mix/forest-b", i))
		if max(m.fa.Depth(), m.fb.Depth()) == sh.forestDepth {
			return m, nil
		}
	}
}

// buildColdMix: two readers walk a fixed rotation of every protocol path,
// each session with a fresh seed derived from the workload seed, so both
// caches miss on every session.
func buildColdMix(o runOpts, sp *spans) (*rig, error) {
	sh := o.shape
	m, err := genMix(o.seed, sh)
	if err != nil {
		return nil, err
	}
	r, err := newRig(nil, sp)
	if err != nil {
		return nil, err
	}
	host := []error{
		r.srv.HostSetsOfSets("mix-sos", m.sosA),
		r.srv.HostSetsOfSets("mix-probe", m.sosA), // the update probe's copy
		r.srv.HostSets("mix-set", m.setA),
		r.srv.HostGraph("mix-graph", m.ga),
		r.srv.HostForest("mix-forest", m.fa),
	}
	for _, err := range host {
		if err != nil {
			r.close()
			return nil, err
		}
	}
	wantSOS := sortedParents(m.sosA)
	type slot struct {
		kind string
		mk   func(seed uint64) job
	}
	var rot []slot
	for _, p := range []sosr.Protocol{sosr.ProtocolNaive, sosr.ProtocolNested, sosr.ProtocolCascade, sosr.ProtocolMultiRound, sosr.ProtocolAuto} {
		for _, known := range []bool{true, false} {
			d, variant := 0, "unknown"
			if known {
				d, variant = sh.d, "known"
			}
			kind := "sos/" + p.String() + "/" + variant
			cfg := sosr.Config{Protocol: p, KnownDiff: d, Universe: universe}
			rot = append(rot, slot{kind, func(seed uint64) job {
				return sosJob(kind, "mix-sos", seed, m.sosB, cfg, wantSOS)
			}})
		}
	}
	for _, known := range []bool{true, false} {
		d, kind := 0, "set/unknown"
		if known {
			d, kind = sh.setD, "set/known"
		}
		rot = append(rot, slot{kind, func(seed uint64) job {
			return setJob(kind, "mix-set", seed, m.setA, m.setB, sosr.SetConfig{KnownDiff: d})
		}})
	}
	rot = append(rot, slot{"graph/degree", func(seed uint64) job {
		return graphJob("graph/degree", "mix-graph", seed, m.ga, m.gb, sosr.GraphConfig{
			Scheme: sosr.SchemeDegreeOrdering, MaxEdits: 2, TopDegrees: m.gh})
	}})
	rot = append(rot, slot{"forest", func(seed uint64) job {
		return forestJob("forest", "mix-forest", seed, m.fa, m.fb, sosr.ForestConfig{MaxEdits: sh.forestD})
	}})

	coins := hashing.NewCoins(o.seed)
	r.round = len(rot)
	r.job = func(i int) job { return rot[i%len(rot)].mk(coins.Seed("mix/session", i)) }
	r.addReaders(2)
	r.probe = newWriter(r.srv, "mix-probe", m.sosA, writerPool(coins.Seed("mix/pool", 0), sh), sh.probeEvery, true)
	r.layers = layerInputs{alice: m.sosA, bob: m.sosB, d: sh.d, pool: r.probe.pool, mix: m}
	// One session of every kind, with warm-up seeds the window never uses.
	warmJob := r.job
	r.job = func(i int) job { return rot[i%len(rot)].mk(coins.Seed("mix/warm", i)) }
	err = r.warm(len(rot))
	r.job = warmJob
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// ---- mutating-sync ----

// buildMutating: one closed-loop reader (fixed seed, known d) beside one
// open-loop writer adding and removing pool child sets, against a server
// journaling every update to a Disk store (NoSync) in a scratch directory.
func buildMutating(o runOpts, sp *spans) (*rig, error) {
	sh := o.shape
	coins := hashing.NewCoins(o.seed)
	alice, bob := workload.PlantedSetsOfSets(coins.Seed("mut/data", 0), sh.mutS, sh.h, universe, sh.mutPlanted)
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, "store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.Open(filepath.Join(dir, "data"), store.Options{NoSync: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r, err := newRig(disk, sp)
	if err != nil {
		disk.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	r.closers = append([]func(){func() { os.RemoveAll(dir) }, func() { disk.Close() }}, r.closers...)
	// Hosting writes the dataset's first snapshot before it returns.
	if err := r.srv.HostSetsOfSets("mut", alice); err != nil {
		r.close()
		return nil, err
	}
	w := newWriter(r.srv, "mut", alice, writerPool(coins.Seed("mut/pool", 0), sh), sh.writeEvery, false)
	cfg := sosr.Config{Protocol: sosr.ProtocolCascade, KnownDiff: sh.d, Universe: universe}
	read := newJob("sos/cascade/known", coins.Seed("mut/session", 0),
		func(ctx context.Context, c *sosrnet.Client, seed uint64) (versionedResult, *sosrnet.NetStats, error) {
			cfg := cfg
			cfg.Seed = seed
			before, _ := r.srv.DatasetVersion("mut")
			res, ns, err := c.SetsOfSets(ctx, "mut", bob, cfg)
			after, _ := r.srv.DatasetVersion("mut")
			return versionedResult{res, before, after}, ns, err
		},
		func(v versionedResult) error { return w.checkInstalled(v.res.Recovered, v.before, v.after) })
	r.round = 1
	r.job = func(int) job { return read }
	r.addReaders(1)
	r.writer = w
	r.layers = layerInputs{alice: alice, bob: bob, d: sh.d, pool: w.pool}
	if err := r.warm(2); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// versionedResult is a mutating-sync read with the dataset versions seen
// just before and just after it.
type versionedResult struct {
	res           *sosr.Result
	before, after uint64
}

// ---- session jobs ----

func sosJob(kind, name string, seed uint64, bob [][]uint64, cfg sosr.Config, want [][]uint64) job {
	return newJob(kind, seed,
		func(ctx context.Context, c *sosrnet.Client, seed uint64) (*sosr.Result, *sosrnet.NetStats, error) {
			cfg := cfg
			cfg.Seed = seed
			return c.SetsOfSets(ctx, name, bob, cfg)
		},
		func(res *sosr.Result) error { return checkParents(want, res.Recovered) })
}

func setJob(kind, name string, seed uint64, alice, bob []uint64, cfg sosr.SetConfig) job {
	return newJob(kind, seed,
		func(ctx context.Context, c *sosrnet.Client, seed uint64) (*sosr.SetResult, *sosrnet.NetStats, error) {
			cfg := cfg
			cfg.Seed = seed
			return c.Sets(ctx, name, bob, cfg)
		},
		func(res *sosr.SetResult) error { return checkSet(alice, res.Recovered) })
}

func graphJob(kind, name string, seed uint64, alice, bob sosr.Graph, cfg sosr.GraphConfig) job {
	return newJob(kind, seed,
		func(ctx context.Context, c *sosrnet.Client, seed uint64) (*sosr.GraphResult, *sosrnet.NetStats, error) {
			cfg := cfg
			cfg.Seed = seed
			return c.Graph(ctx, name, bob, cfg)
		},
		func(res *sosr.GraphResult) error {
			if !sosr.GraphsExactlyIsomorphic(res.Recovered, alice) {
				return &checkError{"graph_isomorphic", "recovered graph is not isomorphic to the hosted graph"}
			}
			return nil
		})
}

func forestJob(kind, name string, seed uint64, alice, bob sosr.Forest, cfg sosr.ForestConfig) job {
	return newJob(kind, seed,
		func(ctx context.Context, c *sosrnet.Client, seed uint64) (*sosr.ForestResult, *sosrnet.NetStats, error) {
			cfg := cfg
			cfg.Seed = seed
			return c.Forest(ctx, name, bob, cfg)
		},
		func(res *sosr.ForestResult) error {
			if !sosr.ForestsIsomorphic(res.Recovered, alice) {
				return &checkError{"forest_isomorphic", "recovered forest is not isomorphic to the hosted forest"}
			}
			return nil
		})
}

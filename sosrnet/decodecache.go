package sosrnet

import (
	"fmt"
	"time"

	"sosr/internal/core"
	"sosr/internal/enccache"
	"sosr/internal/hashing"
	"sosr/internal/obs"
	"sosr/internal/setutil"
)

// Client-side decode caching: the Bob twin of the server's Alice encoding
// cache. A client that repeatedly reconciles the same local parent set
// against a hosted dataset re-derives the identical child encodings every
// session — a pure function of (local data, derived coins, instance shape,
// bounds) under the public-coin model. The client therefore memoizes
// core.BobSketch aggregates in a byte-bounded LRU and subtracts them per
// session instead of re-encoding, which is where the Bob-side decode spends
// most of its time. Sketches are read-only after construction, so concurrent
// sessions of one Client share them safely.

// bobFPSeed salts the parent-set fingerprint in sketch cache keys.
const bobFPSeed = 0x626f626670 // "bobfp"

// sketchProvider overrides where Bob sketches come from; the server's pull
// path supplies (dataset, version, seed)-keyed sketches from its own encoding
// cache. hit reports whether the sketch was served from memory.
type sketchProvider func(kind core.DigestKind, coins hashing.Coins, bob [][]uint64, p core.Params, d, dHat int) (sk *core.BobSketch, hit bool)

// orderedFP fingerprints the canonical parent set, sensitive to the parent
// ordering: BobSketch.bobHashes aligns with parent indexes, so two inputs
// holding the same child sets in different orders must never share a sketch.
func orderedFP(bob [][]uint64) uint64 {
	h := uint64(bobFPSeed)
	for _, cs := range bob {
		h = h*0x9E3779B97F4A7C15 + setutil.Hash(bobFPSeed, cs)
	}
	return h
}

// sosApply carries one sets-of-sets session's Bob state: the canonical local
// parent, the resolved instance shape, and the fingerprint the sketch cache
// keys on.
type sosApply struct {
	c    *Client
	name string
	bob  [][]uint64
	p    core.Params
	fp   uint64
	// sp is the session span decode children hang off; nil when untraced.
	sp *obs.Span
}

func (c *Client) newSOSApply(name string, bob [][]uint64, p core.Params) *sosApply {
	return &sosApply{c: c, name: name, bob: bob, p: p, fp: orderedFP(bob)}
}

// apply is Bob's apply hook: look up (or build) the sketch for this exact
// decode shape and subtract it instead of re-encoding the local data. With no
// d̂ (naive unknown-d, where the server derives it from the probe) there is
// no bound to key a sketch on, so the decode runs uncached. An attempt that
// fails to decode is an expected protocol outcome (it drives the
// replication/doubling retry loops), so the decode span records ok=false
// rather than a span error — only genuinely broken sessions flag traces.
func (a *sosApply) apply(kind core.DigestKind, coins hashing.Coins, body []byte, d, dHat int) (*core.Result, error) {
	dsp := a.sp.Child("decode")
	dsp.SetInt("d", int64(d))
	var sk *core.BobSketch
	if dHat > 0 {
		dsp.SetInt("dhat", int64(dHat))
		sk = a.sketch(kind, coins, d, dHat)
	}
	res, err := core.ApplyMsgCached(kind, coins, body, a.bob, a.p, d, dHat, sk)
	if err == nil {
		a.c.observePeels(res.PeelIterations)
		dsp.SetInt("peels", int64(res.PeelIterations))
	}
	dsp.SetBool("ok", err == nil)
	dsp.Finish()
	return res, err
}

// finished is Bob's multiround hook: multiround payloads depend on
// interactive per-session state, so the final step runs uncached; its decode
// span and peel metrics are still recorded.
func (a *sosApply) finished(start time.Time, attempt int, res *core.Result, err error) {
	dsp := a.sp.ChildAt("decode", start)
	dsp.SetInt("round", int64(attempt))
	dsp.SetBool("ok", err == nil)
	dsp.Finish()
	if err == nil {
		a.c.observePeels(res.PeelIterations)
	}
}

// sketch returns the Bob sketch for this decode shape, or nil when caching is
// disabled (the plain re-encoding path is always a correct fallback).
func (a *sosApply) sketch(kind core.DigestKind, coins hashing.Coins, d, dHat int) *core.BobSketch {
	if a.c.sketchFor != nil {
		sk, hit := a.c.sketchFor(kind, coins, a.bob, a.p, d, dHat)
		a.c.observeDecodeCache(hit)
		return sk
	}
	cache := a.c.sketchCache()
	if cache == nil {
		return nil
	}
	k := enccache.Key{
		Dataset: a.name, Proto: "bob/" + kind.String(), Seed: coins.Master(),
		S: a.p.S, H: a.p.H, U: a.p.U, D: d, DHat: dHat,
		Extra: fmt.Sprintf("fp=%016x,n=%d", a.fp, len(a.bob)),
	}
	v, hit, err := cache.GetOrComputeValue(k, func() (any, int64, error) {
		sk, err := core.NewBobSketch(kind, coins, a.bob, a.p, d, dHat)
		if err != nil {
			return nil, 0, err
		}
		return sk, sk.SizeBytes(), nil
	})
	a.c.observeDecodeCache(hit)
	if err != nil {
		return nil
	}
	sk, _ := v.(*core.BobSketch)
	return sk
}

// sketchCache lazily constructs the client's sketch cache, honoring
// CacheBytes at first use (0 = enccache.DefaultMaxBytes, negative disables).
func (c *Client) sketchCache() *enccache.Cache {
	if c.CacheBytes < 0 {
		return nil
	}
	c.cacheOnce.Do(func() { c.cache = enccache.New(c.CacheBytes) })
	return c.cache
}

// CacheStats reports the Bob-side sketch cache counters (zero value when
// caching is disabled).
func (c *Client) CacheStats() enccache.Stats {
	cache := c.sketchCache()
	if cache == nil {
		return enccache.Stats{}
	}
	return cache.Stats()
}

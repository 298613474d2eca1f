package core

import (
	"encoding/binary"
	"fmt"

	"sosr/internal/estimator"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// NaiveKnownD solves SSRK by ignoring that the items are sets (Theorem 3.3):
// each child set becomes one opaque fixed-width item from the universe of
// all possible child sets, and the parent sets are reconciled with a single
// vector-keyed IBLT of O(d̂) cells. One round, O(d̂ · min(h log u, u)) bits,
// O(n) time, success probability 1 - 1/poly(d̂).
func NaiveKnownD(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params, dHat int) (*Result, error) {
	// Any known d selects the one-shot path; the table is sized by d̂ alone.
	return Reconcile(sess, coins, alice, bob, Plan{Protocol: ProtocolNaive, P: p, D: 1, DHat: dHat})
}

func naiveBob(coins hashing.Coins, msg []byte, bob [][]uint64, codec naiveCodec, sk *BobSketch) (*Result, error) {
	if len(msg) < 8 {
		return nil, fmt.Errorf("core: short naive message")
	}
	wantParent := binary.LittleEndian.Uint64(msg[len(msg)-8:])
	var t iblt.Table
	if err := t.UnmarshalInto(msg[:len(msg)-8]); err != nil {
		return nil, err
	}
	if t.Width() != codec.width {
		return nil, fmt.Errorf("%w: parent key width %d != %d", ErrParentDecode, t.Width(), codec.width)
	}
	if sk != nil {
		if err := t.Subtract(sk.tables[0]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParentDecode, err)
		}
	} else {
		enc := codec.encoder()
		for _, cs := range bob {
			t.Delete(enc.encode(cs))
		}
	}
	var diff iblt.PackedDiff
	if err := t.DecodePacked(&diff); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParentDecode, err)
	}
	added := make([][]uint64, 0, len(diff.Added))
	for _, enc := range diff.Added {
		cs, err := codec.decode(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrChildDecode, err)
		}
		added = append(added, cs)
	}
	chs := childSeed(coins)
	removedHashes := make(map[uint64]bool, len(diff.Removed))
	removed := make([][]uint64, 0, len(diff.Removed))
	for _, enc := range diff.Removed {
		cs, err := codec.decode(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrChildDecode, err)
		}
		removed = append(removed, cs)
		removedHashes[setutil.Hash(chs, cs)] = true
	}
	recovered := assemble(bob, added, removedHashes, coins)
	if parentHash(coins, recovered) != wantParent {
		return nil, ErrVerify
	}
	return &Result{
		Recovered:      recovered,
		Added:          sortSets(added),
		Removed:        sortSets(removed),
		PeelIterations: t.PeelCount(),
	}, nil
}

// NaiveUnknownD solves SSRU naively (Theorem 3.4): Bob first sends a
// set-difference estimator over his child-set hashes; Alice uses the merged
// estimate (scaled for safety) as d̂ and runs the Theorem 3.3 protocol. Two
// rounds.
func NaiveUnknownD(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params) (*Result, error) {
	return Reconcile(sess, coins, alice, bob, Plan{Protocol: ProtocolNaive, P: p})
}

// BuildChildDiffProbe is Bob's half of the unknown-d̂ estimation: a
// set-difference estimator over his child-set hashes, usable as a standalone
// split-party message (see the digest API).
func BuildChildDiffProbe(coins hashing.Coins, bob [][]uint64, p Params) []byte {
	params := estimator.CompactParams(2 * p.S)
	eb := estimator.New(params, coins.Seed("sos/childdiff-est", 0))
	chs := childSeed(coins)
	for _, cs := range bob {
		eb.Add(setutil.Hash(chs, cs), estimator.SideB)
	}
	return eb.Marshal()
}

// EstimateChildDiff is Alice's half: merge the probe with her own child-set
// hashes and return a safe bound on the number of differing child sets. A
// garbled probe degrades only the bound (worst case p.S), never correctness.
func EstimateChildDiff(probe []byte, coins hashing.Coins, alice [][]uint64, p Params) int {
	params := estimator.CompactParams(2 * p.S)
	seed := coins.Seed("sos/childdiff-est", 0)
	ebRecv, err := estimator.Unmarshal(probe)
	if err != nil {
		return p.S
	}
	ea := estimator.New(params, seed)
	chs := childSeed(coins)
	for _, cs := range alice {
		ea.Add(setutil.Hash(chs, cs), estimator.SideA)
	}
	if err := ea.Merge(ebRecv); err != nil {
		return p.S
	}
	dHat := int(ea.Estimate())*EstimatorSafety + 2
	if dHat > p.S*2 {
		dHat = p.S * 2
	}
	return dHat
}

// EstimatorSafety scales estimator outputs used as difference bounds,
// absorbing Theorem 3.1's constant-factor slack.
const EstimatorSafety = 4

func u64le(x uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	return b[:]
}

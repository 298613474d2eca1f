package core

import (
	"encoding/binary"
	"fmt"

	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/transport"
)

// NestedKnownD solves SSRK with Algorithm 1, "IBLT of IBLTs" (Theorem 3.5):
// every child set is encoded as an O(d)-cell child IBLT plus an O(log s)-bit
// hash; the encodings are reconciled through an O(d̂)-cell parent IBLT; Bob
// cross-decodes each of Alice's extracted child IBLTs against his own
// differing child sets. One round, O(d̂·d log u + d̂ log s) bits,
// O(n + d̂²·d) time, success probability 1 - 1/poly(d̂).
//
// d bounds the total element differences; dHat the number of differing child
// sets (pass DHat(d, p.S) when no better bound is known).
func NestedKnownD(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params, d, dHat int) (*Result, error) {
	return Reconcile(sess, coins, alice, bob, Plan{Protocol: ProtocolNested, P: p, D: max(d, 1), DHat: dHat})
}

func nestedBob(coins hashing.Coins, msg []byte, bob [][]uint64, codec childCodec, sk *BobSketch) (*Result, error) {
	if len(msg) < 8 {
		return nil, fmt.Errorf("core: short nested message")
	}
	wantParent := binary.LittleEndian.Uint64(msg[len(msg)-8:])
	var parent iblt.Table
	if err := parent.UnmarshalInto(msg[:len(msg)-8]); err != nil {
		return nil, err
	}
	if parent.Width() != codec.width {
		return nil, fmt.Errorf("%w: parent key width %d != %d", ErrParentDecode, parent.Width(), codec.width)
	}
	bobHashes := make([]uint64, len(bob))
	for i, cs := range bob {
		bobHashes[i] = codec.setHash(cs)
	}
	// Delete EB, decode to find EA \ EB (added) and EB \ EA (removed).
	if sk != nil {
		if err := parent.Subtract(sk.tables[0]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrParentDecode, err)
		}
	} else {
		benc := codec.encoder()
		for _, cs := range bob {
			parent.Delete(benc.encode(cs))
		}
	}
	var diff iblt.PackedDiff
	if err := parent.DecodePacked(&diff); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParentDecode, err)
	}

	// D_B: Bob's child sets whose hashes appear among the removed encodings.
	byHash := make(map[uint64][]uint64, len(bob))
	for i, cs := range bob {
		byHash[bobHashes[i]] = cs
	}
	removedHashes := make(map[uint64]bool, len(diff.Removed))
	var dB [][]uint64
	for _, enc := range diff.Removed {
		h, err := codec.encHash(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrChildDecode, err)
		}
		cs, ok := byHash[h]
		if !ok {
			return nil, fmt.Errorf("%w: removed encoding matches none of Bob's child sets", ErrChildDecode)
		}
		dB = append(dB, cs)
		removedHashes[h] = true
	}

	// For each of Alice's child IBLTs, attempt decoding against each IBLT in
	// D_B (the O(d̂²) pair loop of Theorem 3.5).
	rec := childRecoverer{c: codec}
	var dA [][]uint64
	for _, enc := range diff.Added {
		hA, err := rec.decodeEnc(enc)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrChildDecode, err)
		}
		r, ok := rec.recoverFromCandidates(hA, dB)
		if !ok {
			return nil, fmt.Errorf("%w: no partner decodes child IBLT", ErrChildDecode)
		}
		dA = append(dA, r)
	}

	recovered := assembleHashed(bob, bobHashes, dA, removedHashes)
	if parentHash(coins, recovered) != wantParent {
		return nil, ErrVerify
	}
	return &Result{
		Recovered:      recovered,
		Added:          sortSets(dA),
		Removed:        sortSets(dB),
		PeelIterations: parent.PeelCount() + rec.peels,
	}, nil
}

// NestedUnknownD solves SSRU per Corollary 3.6: the Theorem 3.5 protocol is
// retried with d = 1, 2, 4, ... (fresh public coins per attempt) until Bob
// verifies Alice's parent hash; Bob acknowledges each attempt, giving the
// O(log d) rounds of the corollary.
func NestedUnknownD(sess transport.Channel, coins hashing.Coins, alice, bob [][]uint64, p Params) (*Result, error) {
	return Reconcile(sess, coins, alice, bob, Plan{Protocol: ProtocolNested, P: p})
}

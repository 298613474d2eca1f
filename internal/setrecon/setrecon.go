// Package setrecon implements one-level set reconciliation, the substrate
// that sets-of-sets reconciliation builds on:
//
//   - Corollary 2.2: one round, O(d log u) bits, O(n) time, success with
//     probability 1 - 1/poly(d) (BuildIBLTMsg / ApplyIBLTMsg).
//   - Corollary 3.2: two rounds; Bob first sends a set-difference estimator
//     (Theorem 3.1; BuildDiffEstimator / DiffBoundFromEstimator), then the
//     Corollary 2.2 round runs with the bound it yields.
//   - Theorem 2.3: characteristic-polynomial reconciliation
//     (Minsky–Trachtenberg–Zippel); succeeds with probability 1, at
//     O(n·d + d^3) cost (EncodeCharPoly / ApplyCharPolyMsg).
//
// A session is written once, as an Alice half and a Bob half over a
// transport.Peer: a network server runs Alice's, its client Bob's, and
// Reconcile runs both in process over a transport.Channel. Multisets (§3.4)
// ride the same halves on their packed sets.
//
// All protocols are one-way: Bob ends up with Alice's set. Two-way
// reconciliation follows by applying the decoded difference to Alice as
// well; the recovered difference is returned explicitly so callers can do
// either.
package setrecon

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sosr/internal/estimator"
	"sosr/internal/field"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Common protocol errors.
var (
	// ErrDecode indicates the difference structure failed to decode; the
	// caller's difference bound was likely too small (retry with a doubled
	// bound per Corollary 3.6).
	ErrDecode = errors.New("setrecon: decode failed; difference bound too small")
	// ErrVerify indicates a decoded difference did not reproduce Alice's set
	// hash (a checksum failure caught by the §2 "ward" hash).
	ErrVerify = errors.New("setrecon: recovered set failed verification")
	// ErrElementRange indicates an element outside [0, 2^60), which the
	// characteristic-polynomial protocols cannot embed.
	ErrElementRange = errors.New("setrecon: element exceeds 2^60-1 universe bound")
)

// Result reports a completed one-way reconciliation.
type Result struct {
	// Recovered is Bob's reconstruction of Alice's set (canonical order).
	Recovered []uint64
	// OnlyA holds SA \ SB; OnlyB holds SB \ SA (the decoded difference).
	OnlyA, OnlyB []uint64
	// Stats summarizes communication.
	Stats transport.Stats
}

// verifySeed labels the whole-set verification hash.
const verifySeedLabel = "setrecon/verify"

// BuildIBLTMsg computes Alice's Corollary 2.2 payload — an O(d)-cell IBLT of
// her set plus the whole-set verification hash, sent under the "iblt" label.
// ApplyIBLTMsg is the receiving step.
func BuildIBLTMsg(coins hashing.Coins, alice []uint64, d int) []byte {
	ta := iblt.NewUint64(iblt.CellsFor(d), 0, coins.Seed("setrecon/iblt", 0))
	for _, x := range alice {
		ta.InsertUint64(x)
	}
	buf := ta.AppendMarshal(make([]byte, 0, ta.SerializedSize()+8))
	vh := setutil.Hash(coins.Seed(verifySeedLabel, 0), alice)
	return binary.LittleEndian.AppendUint64(buf, vh)
}

// ApplyIBLTMsg runs Bob's step of the Corollary 2.2 protocol against a
// received BuildIBLTMsg payload: he deletes his elements, peels, and applies
// the difference. The returned Result carries zero Stats; the
// caller owns communication accounting.
func ApplyIBLTMsg(coins hashing.Coins, msg []byte, bob []uint64) (*Result, error) {
	if len(msg) < 8 {
		return nil, fmt.Errorf("setrecon: short message (%d bytes)", len(msg))
	}
	body, vhBytes := msg[:len(msg)-8], msg[len(msg)-8:]
	var t iblt.Table
	if err := t.UnmarshalInto(body); err != nil {
		return nil, err
	}
	if t.Width() != iblt.WordWidth {
		return nil, fmt.Errorf("setrecon: unexpected key width %d", t.Width())
	}
	for _, x := range bob {
		t.DeleteUint64(x)
	}
	// AppendDecodeUint64 bounds the peel, so a hostile table cannot spin.
	onlyA, onlyB, err := t.AppendDecodeUint64(nil, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	recovered := setutil.ApplyDiff(bob, onlyA, onlyB)
	want := binary.LittleEndian.Uint64(vhBytes)
	if setutil.Hash(coins.Seed(verifySeedLabel, 0), recovered) != want {
		return nil, ErrVerify
	}
	return &Result{
		Recovered: recovered,
		OnlyA:     setutil.Canonical(onlyA),
		OnlyB:     setutil.Canonical(onlyB),
	}, nil
}

// EstimatorSafety scales estimator outputs before they are used as
// difference bounds, absorbing the constant-factor slack of Theorem 3.1.
const EstimatorSafety = 4

// BuildDiffEstimator computes Bob's Theorem 3.1 round-1 message, sent under
// the "estimator" label: a set-difference estimator over his elements, which
// Alice feeds to DiffBoundFromEstimator.
func BuildDiffEstimator(coins hashing.Coins, bob []uint64) []byte {
	eb := estimator.New(estimator.Params{}, coins.Seed("setrecon/estimator", 0))
	for _, x := range bob {
		eb.Add(x, estimator.SideB)
	}
	return eb.Marshal()
}

// DiffBoundFromEstimator is Alice's half of the unknown-d estimation: merge
// the received probe with her own elements and return the safety-scaled
// difference bound used to size the Corollary 2.2 transmission.
func DiffBoundFromEstimator(coins hashing.Coins, probe []byte, alice []uint64) (int, error) {
	ebRecv, err := estimator.Unmarshal(probe)
	if err != nil {
		return 0, err
	}
	ea := estimator.New(estimator.Params{}, coins.Seed("setrecon/estimator", 0))
	for _, x := range alice {
		ea.Add(x, estimator.SideA)
	}
	if err := ea.Merge(ebRecv); err != nil {
		return 0, err
	}
	return int(ea.Estimate())*EstimatorSafety + 4, nil
}

// ApplyCharPolyMsg runs Bob's Theorem 2.3 step against a received
// EncodeCharPoly payload built with `points = d+1`: he interpolates the
// rational function χA/χB, factors numerator and denominator, and applies the
// difference. The Result carries zero Stats; the caller owns communication
// accounting.
func ApplyCharPolyMsg(coins hashing.Coins, msg []byte, bob []uint64, d int) (*Result, error) {
	if err := CheckRange(bob); err != nil {
		return nil, err
	}
	onlyA, onlyB, err := DecodeCharPoly(msg, bob, d, coins.Seed("setrecon/czroots", 0))
	if err != nil {
		return nil, err
	}
	return &Result{
		Recovered: setutil.ApplyDiff(bob, onlyA, onlyB),
		OnlyA:     setutil.Canonical(onlyA),
		OnlyB:     setutil.Canonical(onlyB),
	}, nil
}

// EncodeCharPoly builds Alice's Theorem 2.3 message: her set size followed
// by `points` evaluations of her characteristic polynomial at the reserved
// points. Cost O(n · points), the paper's per-point evaluation strategy.
func EncodeCharPoly(alice []uint64, points int) []byte {
	if points < 1 {
		points = 1
	}
	buf := make([]byte, 8+8*points)
	binary.LittleEndian.PutUint64(buf, uint64(len(alice)))
	for i := 0; i < points; i++ {
		binary.LittleEndian.PutUint64(buf[8+8*i:], field.EvalProduct(alice, field.EvalPoint(i)))
	}
	return buf
}

// DecodeCharPoly is Bob's side of Theorem 2.3, also used per child set by
// the multi-round sets-of-sets protocol (Theorem 3.9). msg must come from
// EncodeCharPoly; d bounds the true difference.
func DecodeCharPoly(msg []byte, bob []uint64, d int, rootSeed uint64) (onlyA, onlyB []uint64, err error) {
	if len(msg) < 8 || (len(msg)-8)%8 != 0 {
		return nil, nil, fmt.Errorf("setrecon: malformed charpoly message (%d bytes)", len(msg))
	}
	sizeA := int(binary.LittleEndian.Uint64(msg))
	evals := make([]uint64, (len(msg)-8)/8)
	for i := range evals {
		evals[i] = binary.LittleEndian.Uint64(msg[8+8*i:])
	}
	return charPolyDecode(sizeA, evals, bob, d, rootSeed)
}

// charPolyDecode implements rational recovery plus root extraction.
func charPolyDecode(sizeA int, evals []uint64, bob []uint64, d int, rootSeed uint64) (onlyA, onlyB []uint64, err error) {
	delta := sizeA - len(bob)
	abs := delta
	if abs < 0 {
		abs = -abs
	}
	if abs > d {
		return nil, nil, ErrDecode
	}
	degDen := (d - abs) / 2
	degNum := degDen + abs
	if delta < 0 {
		degNum, degDen = degDen, degNum
	}
	if degNum+degDen > len(evals) {
		return nil, nil, ErrDecode
	}
	points := make([]uint64, len(evals))
	ratios := make([]uint64, len(evals))
	for i := range evals {
		z := field.EvalPoint(i)
		chiB := field.EvalProduct(bob, z)
		points[i] = z
		ratios[i] = field.Mul(evals[i], field.Inv(chiB))
	}
	num, den, err := field.RecoverRational(points, ratios, degNum, degDen)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrDecode, err)
	}
	rootsA, err := field.Roots(num, rootSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: numerator: %v", ErrDecode, err)
	}
	rootsB, err := field.Roots(den, rootSeed^0xb0b)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: denominator: %v", ErrDecode, err)
	}
	// Sanity: every denominator root must be one of Bob's elements, and all
	// roots must be genuine universe elements.
	for _, r := range rootsB {
		if r >= field.EvalPointBase || !setutil.Contains(bob, r) {
			return nil, nil, ErrVerify
		}
	}
	for _, r := range rootsA {
		if r >= field.EvalPointBase {
			return nil, nil, ErrVerify
		}
	}
	return rootsA, rootsB, nil
}

// CheckRange verifies every element fits the 2^60 universe the
// characteristic-polynomial protocols embed into.
func CheckRange(xs []uint64) error {
	for _, x := range xs {
		if x > setutil.MaxElement {
			return fmt.Errorf("%w: %d", ErrElementRange, x)
		}
	}
	return nil
}

package setrecon

import (
	"errors"
	"fmt"
	"sort"
)

// Multiset handling (paper §3.4): "We create a set from our multiset, where
// if an element x occurs in the multiset k times, then (x, k) is an element
// of the set. After reconciling this set, recovering the corresponding
// multiset is immediate. All of the bounds stay the same (d can only
// decrease), except that u grows to u · n."
//
// The pair (x, k) is packed into a single word: the multiplicity occupies
// the top bits below the 2^60 ceiling, so the packed universe stays within
// the characteristic-polynomial range. This caps elements at 2^48 and
// multiplicities at 2^12; both limits are checked.

// MaxMultisetElement is the largest element a packed multiset may contain.
const MaxMultisetElement uint64 = 1<<48 - 1

// MaxMultiplicity is the largest per-element count a packed multiset may
// contain.
const MaxMultiplicity = 1<<12 - 1

// ErrMultisetRange indicates an element or multiplicity outside the packable
// range.
var ErrMultisetRange = errors.New("setrecon: multiset element or multiplicity out of range")

// MultisetToSet converts a multiset (slice with repeats, any order) into the
// canonical packed set of (element, count) pairs.
func MultisetToSet(ms []uint64) ([]uint64, error) {
	counts := make(map[uint64]uint64, len(ms))
	for _, x := range ms {
		if x > MaxMultisetElement {
			return nil, fmt.Errorf("%w: element %d", ErrMultisetRange, x)
		}
		counts[x]++
	}
	out := make([]uint64, 0, len(counts))
	for x, k := range counts {
		if k > MaxMultiplicity {
			return nil, fmt.Errorf("%w: element %d has multiplicity %d", ErrMultisetRange, x, k)
		}
		out = append(out, PackCounted(x, k))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// SetToMultiset inverts MultisetToSet, returning a sorted multiset.
func SetToMultiset(set []uint64) []uint64 {
	var out []uint64
	for _, p := range set {
		x, k := UnpackCounted(p)
		for i := uint64(0); i < k; i++ {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PackCounted packs (element, count) into one word inside the 2^60 universe.
func PackCounted(x, k uint64) uint64 { return (k << 48) | x }

// UnpackCounted splits a packed word into (element, count).
func UnpackCounted(p uint64) (x, k uint64) { return p & MaxMultisetElement, p >> 48 }

// MultisetSymDiff returns the multiset symmetric-difference size: the number
// of element insertions/deletions separating two multisets.
func MultisetSymDiff(a, b []uint64) int {
	ca := make(map[uint64]int, len(a))
	for _, x := range a {
		ca[x]++
	}
	for _, x := range b {
		ca[x]--
	}
	d := 0
	for _, v := range ca {
		if v < 0 {
			v = -v
		}
		d += v
	}
	return d
}

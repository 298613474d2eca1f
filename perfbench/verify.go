package main

import (
	"fmt"
	"slices"

	"sosr/internal/setutil"
)

// checkError is a failed correctness check, named so the run can report
// every failure by the check that caught it.
type checkError struct {
	check  string
	detail string
}

func (e *checkError) Error() string { return e.check + ": " + e.detail }

// sortedParents returns a canonical, lexicographically ordered copy of a
// parent set: the order sosr.Result.Recovered promises.
func sortedParents(parent [][]uint64) [][]uint64 {
	out := make([][]uint64, len(parent))
	for i, cs := range parent {
		out[i] = setutil.Canonical(setutil.Clone(cs))
	}
	setutil.SortSets(out)
	return out
}

// checkParents compares a recovered parent set with the expected one, child
// set by child set.
func checkParents(want, got [][]uint64) error {
	if len(got) != len(want) {
		return &checkError{"sos_result", fmt.Sprintf("recovered %d child sets, want %d", len(got), len(want))}
	}
	for i := range want {
		if !setutil.Equal(want[i], got[i]) {
			return &checkError{"sos_result", fmt.Sprintf("recovered child set %d differs from the hosted one", i)}
		}
	}
	return nil
}

// checkSet compares a recovered set with the hosted one (want is canonical).
func checkSet(want, got []uint64) error {
	if !slices.IsSorted(got) {
		got = setutil.Canonical(setutil.Clone(got))
	}
	if !slices.Equal(want, got) {
		return &checkError{"set_result", fmt.Sprintf("recovered %d elements, not the hosted %d", len(got), len(want))}
	}
	return nil
}

package sosr_test

import (
	"fmt"

	"sosr"
)

// The simplest use: Bob recovers Alice's set, paying bytes proportional to
// the difference.
func ExampleReconcileSets() {
	alice := []uint64{1, 2, 3, 4, 99}
	bob := []uint64{1, 2, 3, 4, 50}
	res, err := sosr.ReconcileSets(alice, bob, sosr.SetConfig{Seed: 7, KnownDiff: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", res.Recovered)
	fmt.Println("alice-only:", res.OnlyA, "bob-only:", res.OnlyB)
	// Output:
	// recovered: [1 2 3 4 99]
	// alice-only: [99] bob-only: [50]
}

// Sets of sets: the paper's primary contribution. The cascading protocol
// reconciles in one round with communication driven by d, not data size.
func ExampleReconcileSetsOfSets() {
	bob := [][]uint64{{1, 2, 3}, {10, 20}}
	alice := [][]uint64{{1, 2, 3}, {10, 20, 21}}
	res, err := sosr.ReconcileSetsOfSets(alice, bob, sosr.Config{Seed: 9, KnownDiff: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("child sets to add:", res.Added)
	fmt.Println("child sets to drop:", res.Removed)
	fmt.Println("rounds:", res.Stats.Rounds)
	// Output:
	// child sets to add: [[10 20 21]]
	// child sets to drop: [[10 20]]
	// rounds: 1
}

// Split-party deployment: Alice serializes a digest, Bob applies it on
// another machine — the only shared state is the seed.
func ExampleBuildDigest() {
	cfg := sosr.Config{Seed: 42, MaxChildSets: 4, MaxChildSize: 4, KnownDiff: 2, Protocol: sosr.ProtocolNested}
	alice := [][]uint64{{1, 2}, {5, 6, 7}}
	bob := [][]uint64{{1, 2}, {5, 6, 8}}

	digest, err := sosr.BuildDigest(alice, cfg) // machine A
	if err != nil {
		panic(err)
	}
	res, err := sosr.ApplyDigest(digest, bob, cfg) // machine B
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", res.Recovered)
	// Output:
	// recovered: [[1 2] [5 6 7]]
}

// Two-way reconciliation leaves both parties with the union (well-defined
// for sets of sets, unlike unlabeled graphs — see FindFigure1Example).
func ExampleReconcileSetsOfSetsTwoWay() {
	alice := [][]uint64{{1, 2}, {7, 8}}
	bob := [][]uint64{{1, 2}, {30}}
	res, err := sosr.ReconcileSetsOfSetsTwoWay(alice, bob, sosr.Config{Seed: 3, KnownDiff: 3, Protocol: sosr.ProtocolNested})
	if err != nil {
		panic(err)
	}
	fmt.Println("union:", res.Union)
	// Output:
	// union: [[1 2] [7 8] [30]]
}

// Forest reconciliation: Bob recovers a forest isomorphic to Alice's.
func ExampleReconcileForests() {
	alice := sosr.Forest{Parent: []int32{-1, 0, 0, 1}} // one tree
	bob := sosr.Forest{Parent: []int32{-1, 0, 0, -1}}  // the deep leaf detached
	res, err := sosr.ReconcileForests(alice, bob, sosr.ForestConfig{Seed: 5, MaxEdits: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("isomorphic:", sosr.ForestsIsomorphic(res.Recovered, alice))
	// Output:
	// isomorphic: true
}

// Multisets (§3.4): children with repeated elements.
func ExampleReconcileSetsOfMultisets() {
	alice := [][]uint64{{5, 5, 5}}
	bob := [][]uint64{{5, 5}}
	res, err := sosr.ReconcileSetsOfMultisets(alice, bob, sosr.Config{Seed: 6, KnownDiff: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", res.Recovered)
	// Output:
	// recovered: [[5 5 5]]
}

// The unknown-difference split-party flow: Bob's probe, Alice's estimate,
// then a digest sized to the estimate.
func ExampleBuildDiffProbe() {
	cfg := sosr.Config{Seed: 8, MaxChildSets: 4, MaxChildSize: 4, Protocol: sosr.ProtocolNested}
	alice := [][]uint64{{1, 2}, {9, 10}}
	bob := [][]uint64{{1, 2}, {9, 11}}

	probe := sosr.BuildDiffProbe(bob, cfg) // machine B → A
	dHat := sosr.EstimateDiffFromProbe(probe, alice, cfg)
	cfg.KnownDiff = 2 * dHat // element bound from the child bound (≤ 2h per child)
	cfg.KnownChildDiff = dHat
	digest, err := sosr.BuildDigest(alice, cfg) // machine A → B
	if err != nil {
		panic(err)
	}
	res, err := sosr.ApplyDigest(digest, bob, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("recovered:", res.Recovered)
	// Output:
	// recovered: [[1 2] [9 10]]
}

// Figure 1: why graph reconciliation is one-way. Two graphs can be merged by
// adding one edge to each in two ways, and the two merges differ.
func ExampleFindFigure1Example() {
	w, err := sosr.FindFigure1Example(5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("G1 %v and G2 %v\n", w.G1.Edges, w.G2.Edges)
	fmt.Printf("adding %v/%v gives one merge; %v/%v gives another\n", w.AddG1X, w.AddG2X, w.AddG1Y, w.AddG2Y)
	fmt.Println("the two merges are isomorphic:", sosr.GraphsExactlyIsomorphic(w.MergeX, w.MergeY))
	// Output:
	// G1 [[0 1] [0 2]] and G2 [[0 3] [1 2]]
	// adding [1 3]/[0 1] gives one merge; [3 4]/[0 4] gives another
	// the two merges are isomorphic: false
}

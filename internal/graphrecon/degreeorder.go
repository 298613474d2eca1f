// Package graphrecon implements the paper's graph reconciliation protocols:
// the unlimited-computation polynomial protocols of §4 (Theorems 4.1/4.3)
// for tiny graphs, and the two random-graph schemes of §5 built on
// sets-of-sets reconciliation — the degree-ordering signature scheme
// (§5.1, Theorem 5.2) and the degree-neighborhood signature scheme
// (§5.2, Theorem 5.6).
//
// In the §5 model, a base graph G ~ G(n, p) is perturbed by at most d/2 edge
// changes on each side; Bob ends up with a graph isomorphic to Alice's
// (one-way reconciliation). Both schemes reconcile vertex signatures via the
// sets-of-sets machinery, derive a conforming labeling, and reconcile the
// labeled edge sets with an IBLT in parallel (a single round overall).
package graphrecon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"sosr/internal/core"
	"sosr/internal/graph"
	"sosr/internal/hashing"
	"sosr/internal/iblt"
	"sosr/internal/setutil"
)

// Protocol errors.
var (
	// ErrNotSeparated indicates the graph violates the scheme's signature
	// robustness property (Definition 5.1 or 5.4), so the protocol's
	// preconditions do not hold.
	ErrNotSeparated = errors.New("graphrecon: graph signatures not sufficiently separated")
	// ErrNoConformingMatch indicates a differing signature could not be
	// matched within the conforming distance threshold.
	ErrNoConformingMatch = errors.New("graphrecon: no conforming signature match")
	// ErrVerify indicates the reconciled edge set failed verification.
	ErrVerify = errors.New("graphrecon: recovered graph failed verification")
)

// DegreeOrderParams configures the §5.1 scheme.
type DegreeOrderParams struct {
	// H is the number of top-degree anchor vertices (the paper's h).
	H int
	// D bounds the total number of edge changes between the two graphs.
	D int
}

// DegreeOrderSignatures computes the §5.1 signature scheme for g: the top-h
// vertices by degree (descending, ties broken by index) and, for every
// other vertex, the subset of [h] it is adjacent to.
func DegreeOrderSignatures(g *graph.Graph, h int) (top []int, sigs map[int][]uint64) {
	order := degreeOrder(g)
	top = append([]int(nil), order[:h]...)
	pos := make(map[int]int, h)
	for j, v := range top {
		pos[v] = j
	}
	sigs = make(map[int][]uint64, g.N-h)
	for _, v := range order[h:] {
		var sig []uint64
		for j, t := range top {
			if g.HasEdge(v, t) {
				sig = append(sig, uint64(j))
			}
		}
		sigs[v] = sig // already sorted: j increasing
	}
	return top, sigs
}

// degreeOrder returns vertices sorted by degree descending (index ascending
// on ties).
func degreeOrder(g *graph.Graph) []int {
	deg := g.Degrees()
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if deg[order[i]] != deg[order[j]] {
			return deg[order[i]] > deg[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

// IsSeparated checks Definition 5.1: after sorting by degree, the top h
// degrees (including the boundary to vertex h+1) are pairwise ≥ a apart, and
// all non-top signature pairs are ≥ b apart in Hamming distance. The
// boundary gap is checked too so the top-h membership is stable under
// perturbation.
func IsSeparated(g *graph.Graph, h, a, b int) bool {
	if h < 1 || h >= g.N {
		return false
	}
	order := degreeOrder(g)
	deg := g.Degrees()
	for i := 0; i+1 <= h && i+1 < g.N; i++ {
		if deg[order[i]]-deg[order[i+1]] < a {
			return false
		}
	}
	_, sigs := DegreeOrderSignatures(g, h)
	list := make([][]uint64, 0, len(sigs))
	for _, s := range sigs {
		list = append(list, s)
	}
	for i := 0; i < len(list); i++ {
		for j := i + 1; j < len(list); j++ {
			if setutil.SymmetricDiff(list[i], list[j]) < b {
				return false
			}
		}
	}
	return true
}

// MaxSeparatedH returns the largest h ≤ hMax for which g is (h, a, b)-
// separated, or 0 if none. Used by the experiment harness to pick a valid h
// for a sampled graph (Theorem 5.3 guarantees such h exist with high
// probability in the stated p regime).
func MaxSeparatedH(g *graph.Graph, a, b, hMax int) int {
	for h := hMax; h >= 1; h-- {
		if IsSeparated(g, h, a, b) {
			return h
		}
	}
	return 0
}

// GraphMsgs holds Alice's two parallel one-round payloads: the cascaded
// signature tables (sent under "cascade-iblts") and the labeled-edge IBLT
// (sent under "edge-iblt").
type GraphMsgs struct {
	Sig   []byte
	Edges []byte
}

// DegreeOrderAlice builds Alice's Theorem 5.2 transmission from her graph
// alone: the signature sets-of-sets payload (Theorem 3.7) and the labeled-edge
// IBLT. DegreeOrderApply is Bob's step.
func DegreeOrderAlice(coins hashing.Coins, ga *graph.Graph, p DegreeOrderParams) (*GraphMsgs, error) {
	n, h, d := ga.N, p.H, p.D
	if h < 1 || h >= n {
		return nil, fmt.Errorf("graphrecon: invalid h=%d", h)
	}
	topA, sigsA := DegreeOrderSignatures(ga, h)
	parentA, err := signatureParent(sigsA)
	if err != nil {
		return nil, err
	}
	labelA := degreeOrderLabeling(ga, topA, sigsA, parentA)
	edgeSetA := labeledEdgeSet(ga, labelA)
	edgeT := iblt.NewUint64(iblt.CellsFor(d), 0, coins.Seed("graphrecon/edges", 0))
	for _, e := range edgeSetA {
		edgeT.InsertUint64(e)
	}
	edgePayload := append(edgeT.Marshal(), u64le(setutil.Hash(coins.Seed("graphrecon/edgeverify", 0), edgeSetA))...)
	sigParams := core.Params{S: n, H: h, U: uint64(h)}
	sigMsg, err := core.AliceMsg(core.DigestCascade, coins.Sub("graphrecon/sig", 0), parentA, sigParams, max(d, 1), 0)
	if err != nil {
		return nil, err
	}
	return &GraphMsgs{Sig: sigMsg, Edges: edgePayload}, nil
}

// DegreeOrderApply runs Bob's Theorem 5.2 step against Alice's received
// payloads: he recovers her signatures, derives the conforming labeling, and
// reconciles the labeled edges, returning his copy of Alice's graph under her
// labeling.
func DegreeOrderApply(coins hashing.Coins, gb *graph.Graph, p DegreeOrderParams, sigMsg, edgeMsg []byte) (*graph.Graph, error) {
	n, h, d := gb.N, p.H, p.D
	if h < 1 || h >= n {
		return nil, fmt.Errorf("graphrecon: invalid h=%d", h)
	}
	topB, sigsB := DegreeOrderSignatures(gb, h)
	parentB, err := signatureParent(sigsB)
	if err != nil {
		return nil, err
	}
	sigParams := core.Params{S: n, H: h, U: uint64(h)}
	res, err := core.ApplyMsg(core.DigestCascade, coins.Sub("graphrecon/sig", 0), sigMsg, parentB, sigParams, max(d, 1), 0)
	if err != nil {
		return nil, fmt.Errorf("graphrecon: signature reconciliation: %w", err)
	}
	labelB, err := bobDegreeOrderLabeling(gb, topB, sigsB, res.Recovered, d)
	if err != nil {
		return nil, err
	}
	return applyEdgeRecon(edgeMsg, gb, labelB, n, coins)
}

// signatureParent converts a vertex→signature map into a canonical parent
// set, rejecting duplicate signatures (which violate separation).
func signatureParent(sigs map[int][]uint64) ([][]uint64, error) {
	parent := make([][]uint64, 0, len(sigs))
	seen := map[uint64][]uint64{}
	for _, s := range sigs {
		h := setutil.Hash(0x51e7a, s)
		if prev, ok := seen[h]; ok && setutil.Equal(prev, s) {
			return nil, fmt.Errorf("%w: duplicate vertex signature", ErrNotSeparated)
		}
		seen[h] = s
		parent = append(parent, s)
	}
	setutil.SortSets(parent)
	return parent, nil
}

// degreeOrderLabeling labels Alice's graph: top vertices get 0..h-1 by
// degree rank; the rest get h + (lexicographic rank of their signature).
func degreeOrderLabeling(g *graph.Graph, top []int, sigs map[int][]uint64, sortedSigs [][]uint64) []int {
	label := make([]int, g.N)
	for i := range label {
		label[i] = -1
	}
	for j, v := range top {
		label[v] = j
	}
	for v, s := range sigs {
		label[v] = len(top) + sigRank(sortedSigs, s)
	}
	return label
}

// sigRank returns the index of signature s in the lexicographically sorted
// list (which must contain it).
func sigRank(sorted [][]uint64, s []uint64) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if setutil.LessSets(sorted[mid], s) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bobDegreeOrderLabeling computes Bob's conforming labeling: his top-h by
// his own degree rank; every other vertex matched to the unique signature of
// Alice's within symmetric difference ≤ d (exact matches first), labeled by
// that signature's lexicographic rank.
func bobDegreeOrderLabeling(gb *graph.Graph, topB []int, sigsB map[int][]uint64, aliceSigs [][]uint64, d int) ([]int, error) {
	label := make([]int, gb.N)
	for i := range label {
		label[i] = -1
	}
	for j, v := range topB {
		label[v] = j
	}
	for v, sB := range sigsB {
		// Exact match via binary search, else conforming scan.
		r := sigRank(aliceSigs, sB)
		if r < len(aliceSigs) && setutil.Equal(aliceSigs[r], sB) {
			label[v] = len(topB) + r
			continue
		}
		found := -1
		for idx, sA := range aliceSigs {
			if setutil.SymmetricDiff(sA, sB) <= d {
				if found >= 0 {
					return nil, fmt.Errorf("%w: ambiguous match for vertex %d", ErrNoConformingMatch, v)
				}
				found = idx
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("%w: vertex %d", ErrNoConformingMatch, v)
		}
		label[v] = len(topB) + found
	}
	return label, nil
}

// labeledEdgeSet returns the canonical set of edge keys of g under label.
func labeledEdgeSet(g *graph.Graph, label []int) []uint64 {
	var out []uint64
	for _, e := range g.Edges() {
		out = append(out, edgeKey(label[e[0]], label[e[1]]))
	}
	return setutil.Canonical(out)
}

// edgeKey packs an unordered label pair into a word (labels < 2^30 so the
// key stays within the 2^60 universe).
func edgeKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<30 | uint64(b)
}

// edgeFromKey inverts edgeKey.
func edgeFromKey(k uint64) (int, int) {
	return int(k >> 30), int(k & ((1 << 30) - 1))
}

// applyEdgeRecon finishes both §5 protocols: Bob deletes his labeled edges
// from Alice's edge IBLT, decodes the difference, verifies, and materializes
// Alice's labeled graph.
func applyEdgeRecon(edgeMsg []byte, gb *graph.Graph, labelB []int, n int, coins hashing.Coins) (*graph.Graph, error) {
	if len(edgeMsg) < 8 {
		return nil, fmt.Errorf("graphrecon: short edge message")
	}
	wantHash := binary.LittleEndian.Uint64(edgeMsg[len(edgeMsg)-8:])
	t, err := iblt.Unmarshal(edgeMsg[:len(edgeMsg)-8])
	if err != nil {
		return nil, err
	}
	edgeSetB := labeledEdgeSet(gb, labelB)
	for _, e := range edgeSetB {
		t.DeleteUint64(e)
	}
	add, rem, err := t.DecodeUint64()
	if err != nil {
		return nil, fmt.Errorf("graphrecon: edge IBLT decode: %w", err)
	}
	edgesA := setutil.ApplyDiff(edgeSetB, add, rem)
	if setutil.Hash(coins.Seed("graphrecon/edgeverify", 0), edgesA) != wantHash {
		return nil, ErrVerify
	}
	out := graph.New(n)
	for _, k := range edgesA {
		u, v := edgeFromKey(k)
		if u == v || u >= n || v >= n {
			return nil, fmt.Errorf("graphrecon: corrupt edge key %d", k)
		}
		out.AddEdge(u, v)
	}
	return out, nil
}

func u64le(x uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	return b[:]
}

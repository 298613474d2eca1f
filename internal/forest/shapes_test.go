package forest

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/transport"
)

// Edge-shape forests exercise the extremes of σ and branching.

func star(n int) *Forest {
	f := New(n)
	for i := 1; i < n; i++ {
		f.Parent[i] = 0
	}
	return f
}

func TestReconDeepChain(t *testing.T) {
	// σ = n: a single path. One edit near the root re-signs nearly every
	// vertex — the worst case for the O(dσ) bound.
	n := 48
	fa := chain(n)
	fb := fa.Clone()
	fb.Parent[n/2] = -1 // cut the chain in half
	sess := transport.New()
	rec, _, err := Reconcile(sess, hashing.NewCoins(1), fa, fb, Session{Req: ReconParams{Sigma: n, D: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsIsomorphic(rec, fa) {
		t.Fatal("deep chain recovery wrong")
	}
}

func TestReconStar(t *testing.T) {
	// σ = 2 with massive identical-leaf multiplicity: stresses the
	// multiplicity-tag encoding (one M_v group with count n-1).
	fa := star(300)
	fb := fa.Clone()
	fb.Parent[7] = -1 // one leaf detached
	sess := transport.New()
	rec, _, err := Reconcile(sess, hashing.NewCoins(2), fa, fb, Session{Req: ReconParams{Sigma: 2, D: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsIsomorphic(rec, fa) {
		t.Fatal("star recovery wrong")
	}
}

func TestReconSingleVertexForests(t *testing.T) {
	fa := New(1)
	fb := New(1)
	sess := transport.New()
	rec, _, err := Reconcile(sess, hashing.NewCoins(3), fa, fb, Session{Req: ReconParams{D: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rec.N() != 1 {
		t.Fatal("single vertex lost")
	}
}

func TestReconAllIsolated(t *testing.T) {
	// n isolated roots on both sides.
	fa, fb := New(64), New(64)
	sess := transport.New()
	rec, _, err := Reconcile(sess, hashing.NewCoins(4), fa, fb, Session{Req: ReconParams{D: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsIsomorphic(rec, fa) {
		t.Fatal("isolated forest recovery wrong")
	}
}

func TestReconBinaryTree(t *testing.T) {
	n := 127 // perfect binary tree
	fa := New(n)
	for i := 1; i < n; i++ {
		fa.Parent[i] = int32((i - 1) / 2)
	}
	src := prng.New(5)
	fb := Perturb(fa, 2, src)
	sigma := fa.Depth()
	if s := fb.Depth(); s > sigma {
		sigma = s
	}
	sess := transport.New()
	rec, _, err := Reconcile(sess, hashing.NewCoins(6), fa, fb, Session{Req: ReconParams{Sigma: sigma, D: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsIsomorphic(rec, fa) {
		t.Fatal("binary tree recovery wrong")
	}
}

func TestPerturbExactOps(t *testing.T) {
	src := prng.New(7)
	for trial := 0; trial < 10; trial++ {
		fa := Random(60, 0.2, src)
		k := 1 + src.Intn(5)
		fb := Perturb(fa, k, src)
		if err := fb.Validate(); err != nil {
			t.Fatal(err)
		}
		// Each op changes exactly one parent pointer, so the pointer-level
		// distance is between 1 and k (later ops may revisit a vertex).
		changed := 0
		for v := range fa.Parent {
			if fa.Parent[v] != fb.Parent[v] {
				changed++
			}
		}
		if changed == 0 || changed > k {
			t.Fatalf("perturb changed %d pointers for k=%d", changed, k)
		}
	}
}

func TestDepthEdgeCases(t *testing.T) {
	if New(0).Depth() != 0 {
		t.Fatal("empty forest depth")
	}
	if New(3).Depth() != 1 {
		t.Fatal("isolated roots depth")
	}
	if chain(5).Depth() != 5 {
		t.Fatal("chain depth")
	}
	if star(5).Depth() != 2 {
		t.Fatal("star depth")
	}
}

func TestCanonLabelsSharedIntern(t *testing.T) {
	// Joint interning: labels comparable across forests.
	a := chain(3)
	b := chain(3)
	labels := CanonLabels(a, b)
	if labels[0][0] != labels[1][0] {
		t.Fatal("identical subtrees got different labels across forests")
	}
}

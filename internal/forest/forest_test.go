package forest

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/transport"
)

func chain(n int) *Forest {
	f := New(n)
	for i := 1; i < n; i++ {
		f.Parent[i] = int32(i - 1)
	}
	return f
}

func TestValidate(t *testing.T) {
	f := chain(5)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	f.Parent[0] = 4 // cycle
	if err := f.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
	g := New(3)
	g.Parent[0] = 7
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range parent not detected")
	}
}

func TestRootsChildrenDepth(t *testing.T) {
	f := New(6)
	f.Parent[1] = 0
	f.Parent[2] = 0
	f.Parent[3] = 2
	// 4, 5 isolated roots.
	roots := f.Roots()
	if len(roots) != 3 || roots[0] != 0 || roots[1] != 4 || roots[2] != 5 {
		t.Fatalf("roots = %v", roots)
	}
	ch := f.Children()
	if len(ch[0]) != 2 || len(ch[2]) != 1 {
		t.Fatal("children wrong")
	}
	if f.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", f.Depth())
	}
	if f.EdgeCount() != 3 {
		t.Fatalf("edges = %d", f.EdgeCount())
	}
	if f.RootOf(3) != 0 || f.RootOf(4) != 4 {
		t.Fatal("RootOf wrong")
	}
}

func TestRandomForestValid(t *testing.T) {
	src := prng.New(1)
	for trial := 0; trial < 20; trial++ {
		f := Random(100, 0.1, src)
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPerturbPreservesForest(t *testing.T) {
	src := prng.New(2)
	f := Random(80, 0.15, src)
	g := Perturb(f, 10, src)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if EditDistanceUpperBound(f, g) == 0 {
		t.Fatal("perturbation did nothing")
	}
}

func TestCanonLabelsIsomorphismInvariance(t *testing.T) {
	src := prng.New(3)
	f := Random(60, 0.2, src)
	// Relabel vertices arbitrarily: isomorphism must hold.
	perm := src.Perm(60)
	g := New(60)
	for v, p := range f.Parent {
		if p >= 0 {
			g.Parent[perm[v]] = int32(perm[p])
		}
	}
	if !IsIsomorphic(f, g) {
		t.Fatal("relabeled forest not isomorphic")
	}
}

func TestIsIsomorphicNegative(t *testing.T) {
	// Chain of 4 vs star of 4: same vertex count, different shape.
	c := chain(4)
	s := New(4)
	s.Parent[1] = 0
	s.Parent[2] = 0
	s.Parent[3] = 0
	if IsIsomorphic(c, s) {
		t.Fatal("chain ≅ star claimed")
	}
	if IsIsomorphic(chain(3), chain(4)) {
		t.Fatal("different sizes isomorphic")
	}
}

func TestHashSignaturesStructural(t *testing.T) {
	// Two leaves must share a signature; distinct shapes must differ.
	f := New(5)
	f.Parent[1] = 0
	f.Parent[2] = 0
	f.Parent[4] = 3
	sigs := HashSignatures(f, 42)
	if sigs[1] != sigs[2] || sigs[1] != sigs[4] {
		t.Fatal("leaf signatures differ")
	}
	if sigs[0] == sigs[3] {
		t.Fatal("distinct subtree shapes share a signature")
	}
	// Same forest, same seed → same signatures; different seed → different.
	sigs2 := HashSignatures(f, 42)
	for i := range sigs {
		if sigs[i] != sigs2[i] {
			t.Fatal("signatures not deterministic")
		}
	}
	sigs3 := HashSignatures(f, 43)
	if sigs3[0] == sigs[0] {
		t.Fatal("seed ignored")
	}
}

func TestVertexMultisets(t *testing.T) {
	f := New(3)
	f.Parent[1] = 0
	f.Parent[2] = 0
	sigs := HashSignatures(f, 7)
	ms := VertexMultisets(f, sigs)
	if len(ms) != 3 {
		t.Fatal("wrong count")
	}
	if len(ms[0]) != 3 { // parent mark + two children
		t.Fatalf("root multiset size %d", len(ms[0]))
	}
	if len(ms[1]) != 1 || len(ms[2]) != 1 {
		t.Fatal("leaf multiset wrong")
	}
}

func TestRebuildRoundTrip(t *testing.T) {
	src := prng.New(5)
	for trial := 0; trial < 15; trial++ {
		f := Random(40+src.Intn(60), 0.15, src)
		sigs := HashSignatures(f, 99)
		parent, err := encodeForTest(f, sigs)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := Rebuild(parent, f.N())
		if err != nil {
			t.Fatal(err)
		}
		if err := rebuilt.Validate(); err != nil {
			t.Fatal(err)
		}
		if !IsIsomorphic(f, rebuilt) {
			t.Fatal("rebuild changed isomorphism class")
		}
	}
}

func TestRebuildWrongCount(t *testing.T) {
	f := chain(5)
	parent, err := encodeForTest(f, HashSignatures(f, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rebuild(parent, 7); err == nil {
		t.Fatal("vertex count mismatch not detected")
	}
}

func TestReconIdentical(t *testing.T) {
	src := prng.New(6)
	f := Random(50, 0.2, src)
	sess := transport.New()
	rec, stats, err := Reconcile(sess, hashing.NewCoins(11), f, f.Clone(), Session{Req: ReconParams{D: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !IsIsomorphic(rec, f) {
		t.Fatal("identical forests reconciled wrongly")
	}
	if stats.Rounds != 1 {
		t.Fatalf("rounds = %d", stats.Rounds)
	}
}

func TestReconPerturbed(t *testing.T) {
	src := prng.New(7)
	for _, d := range []int{1, 2, 4} {
		fa := Random(70, 0.15, src)
		fb := Perturb(fa, d, src)
		sigma := fa.Depth()
		if s := fb.Depth(); s > sigma {
			sigma = s
		}
		sess := transport.New()
		rec, _, err := Reconcile(sess, hashing.NewCoins(uint64(d)+17), fa, fb, Session{Req: ReconParams{Sigma: sigma, D: d}})
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if !IsIsomorphic(rec, fa) {
			t.Fatalf("d=%d: not isomorphic to Alice's forest", d)
		}
	}
}

func TestReconAuto(t *testing.T) {
	src := prng.New(8)
	fa := Random(60, 0.2, src)
	fb := Perturb(fa, 3, src)
	sess := transport.New()
	rec, _, err := Reconcile(sess, hashing.NewCoins(23), fa, fb, Session{MaxBudget: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if !IsIsomorphic(rec, fa) {
		t.Fatal("auto reconciliation wrong")
	}
}

func TestReconCommunicationScalesWithDSigma(t *testing.T) {
	src := prng.New(9)
	// Theorem 6.1: communication is O(dσ log(dσ) log n) — essentially
	// independent of forest size for fixed d and σ. Compare two forest
	// sizes at a pinned budget: bytes must not grow with n.
	run := func(n int) int {
		fa := Random(n, 0.3, src)
		fb := Perturb(fa, 2, src)
		sess := transport.New()
		// Pin Sigma and Budget so both runs use identical table plans.
		if _, _, err := Reconcile(sess, hashing.NewCoins(31), fa, fb,
			Session{Req: ReconParams{Sigma: 12, D: 2, Budget: 192}}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		return sess.TotalBytes()
	}
	small := run(300)
	large := run(2400)
	if float64(large) > 1.6*float64(small) {
		t.Fatalf("communication grew with n: %dB -> %dB", small, large)
	}
}

// encodeForTest mirrors the protocol's Alice-side encoding.
func encodeForTest(f *Forest, sigs []uint64) ([][]uint64, error) {
	return coreEncode(VertexMultisets(f, sigs))
}

// coreEncode is a thin alias so tests read naturally.
func coreEncode(inner [][]uint64) ([][]uint64, error) { return encodeParent(inner) }

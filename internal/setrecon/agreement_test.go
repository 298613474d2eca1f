package setrecon

import (
	"testing"

	"sosr/internal/hashing"
	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/transport"
)

// Cross-validation: the IBLT protocol (Corollary 2.2) and the
// characteristic-polynomial protocol (Theorem 2.3) are entirely independent
// mechanisms; on the same instance they must decode the same difference.

func TestIBLTAndCharPolyAgree(t *testing.T) {
	src := prng.New(99)
	for trial := 0; trial < 25; trial++ {
		d := 1 + src.Intn(10)
		alice, bob := makePair(src.Uint64(), 30+src.Intn(100), d)
		coins := hashing.NewCoins(src.Uint64())

		ib, errI := Reconcile(transport.New(), coins, alice, bob, Plan{D: d + 2})
		cp, errC := Reconcile(transport.New(), coins, alice, bob, Plan{D: d + 2, CharPoly: true})
		if errC != nil {
			t.Fatalf("charpoly must always succeed with a valid bound: %v", errC)
		}
		if !setutil.Equal(cp.Recovered, alice) {
			t.Fatal("charpoly wrong")
		}
		if errI == nil {
			if !setutil.Equal(ib.Recovered, cp.Recovered) {
				t.Fatal("protocols disagree")
			}
			if !setutil.Equal(ib.OnlyA, cp.OnlyA) || !setutil.Equal(ib.OnlyB, cp.OnlyB) {
				t.Fatal("decoded differences disagree")
			}
		}
	}
}

func TestCharPolyProbabilityOneAcrossSeeds(t *testing.T) {
	// Theorem 2.3 succeeds with probability 1: every seed must work.
	alice, bob := makePair(7, 40, 6)
	for seed := uint64(0); seed < 30; seed++ {
		res, err := Reconcile(transport.New(), hashing.NewCoins(seed), alice, bob, Plan{D: 6, CharPoly: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !setutil.Equal(res.Recovered, alice) {
			t.Fatalf("seed %d: wrong recovery", seed)
		}
	}
}

func TestCharPolyLargeDifference(t *testing.T) {
	// Stress the cubic path: d = 64 differences.
	alice, bob := makePair(11, 200, 64)
	res, err := Reconcile(transport.New(), hashing.NewCoins(3), alice, bob, Plan{D: 64, CharPoly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.Equal(res.Recovered, alice) {
		t.Fatal("wrong recovery at d=64")
	}
}

func TestIBLTEmptySides(t *testing.T) {
	// Alice empty: Bob must delete everything he has.
	bobOnly := []uint64{5, 6, 7}
	res, err := Reconcile(transport.New(), hashing.NewCoins(1), nil, bobOnly, Plan{D: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recovered) != 0 {
		t.Fatalf("recovered %v from empty Alice", res.Recovered)
	}
	// Bob empty: he must adopt Alice's set wholesale.
	aliceOnly := []uint64{9, 10}
	res2, err := Reconcile(transport.New(), hashing.NewCoins(2), aliceOnly, nil, Plan{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !setutil.Equal(res2.Recovered, aliceOnly) {
		t.Fatal("empty Bob recovery wrong")
	}
}

func TestCharPolyEmptySides(t *testing.T) {
	res, err := Reconcile(transport.New(), hashing.NewCoins(4), []uint64{42}, nil, Plan{D: 1, CharPoly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recovered) != 1 || res.Recovered[0] != 42 {
		t.Fatal("singleton recovery wrong")
	}
	res2, err := Reconcile(transport.New(), hashing.NewCoins(5), nil, []uint64{42}, Plan{D: 1, CharPoly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Recovered) != 0 {
		t.Fatal("empty Alice recovery wrong")
	}
}
